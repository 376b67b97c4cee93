// Fast-path switch: the one byte every kernel-bypassing sync operation reads.
//
// The uncontended lock/unlock, trylock and signal-with-no-waiters paths never enter the
// kernel monitor. Whether they may bypass it is a global property: the trace and metrics
// observers want every sync event emitted from inside the monitor, and the perverted
// mutex-switch policy hooks every successful lock. Instead of re-deriving those predicates per
// operation, they are folded into a single byte recomputed whenever an input changes, so
// the hot path's whole observability cost is one load and one predicted branch.
//
//   FSUP_FASTPATH=0|off  — kill switch: every operation takes the all-kernel path (the oracle
//                          the _fastpath_off test variants run the sync suites against)
//   FSUP_FASTPATH=1      — restartable-sequence acquire (paper Fig. 4; the default)
//
// The requested setting is what the user asked for; the ACTIVE byte is the request demoted to
// off while the trace or metrics bit of the observer mask (debug/obs.hpp) is set or a
// perverted policy is live. Recompute() runs after every change to those inputs
// (trace::Enable, metrics::Enable, sched::SetPolicy, EnsureInit).

#ifndef FSUP_SRC_SYNC_FASTPATH_HPP_
#define FSUP_SRC_SYNC_FASTPATH_HPP_

#include <cstdint>

namespace fsup::sync::fastpath {

// 1 while the fast path may run, read by the hot paths. Plain byte: changes happen in user
// context on the one OS thread the whole library runs on, so no atomicity is needed.
extern uint8_t g_active;

inline bool Enabled() { return g_active != 0; }

// Runtime switch (benches, tests, the FSUP_FASTPATH env). Calls Recompute().
void SetRequested(bool on);
bool Requested();

// Re-derives the active byte: requested, demoted to off while the trace or metrics observer
// or a perverted scheduling policy is enabled.
void Recompute();

// Parses FSUP_FASTPATH (unset/empty = on). Called from kernel::EnsureInit.
void InitFromEnv();

}  // namespace fsup::sync::fastpath

#endif  // FSUP_SRC_SYNC_FASTPATH_HPP_
