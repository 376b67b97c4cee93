// Fast-path mode selector: the one byte every kernel-bypassing sync operation reads.
//
// The uncontended lock/unlock, trylock and signal-with-no-waiters paths never enter the
// kernel monitor. Whether they may bypass it is a global property: the trace and metrics
// observers want every sync event emitted from inside the monitor, and the perverted
// mutex-switch policy hooks every successful lock. Instead of re-deriving those predicates per
// operation, they are folded into a single mode byte recomputed whenever an input changes, so
// the hot path's whole observability cost is one load and one predicted branch.
//
//   FSUP_FASTPATH=0|off  — kill switch: every operation takes the all-kernel path
//   FSUP_FASTPATH=ras|1  — restartable-sequence acquire (paper Fig. 4; the default)
//   FSUP_FASTPATH=cas    — cmpxchg acquire (the instruction the paper wishes every ISA had)
//
// The requested mode is what the user asked for; the ACTIVE mode is the requested mode
// demoted to kOff while the trace or metrics bit of the observer mask (debug/obs.hpp) is set
// or a perverted policy is live. Recompute() runs after every change to those inputs
// (trace::Enable, metrics::Enable, sched::SetPolicy, EnsureInit).

#ifndef FSUP_SRC_SYNC_FASTPATH_HPP_
#define FSUP_SRC_SYNC_FASTPATH_HPP_

#include <cstdint>

namespace fsup::sync::fastpath {

enum class Mode : uint8_t {
  kOff = 0,
  kRas = 1,
  kCas = 2,
};

// The active mode, read by the hot paths. Plain byte: mode changes happen in user context
// on the one OS thread the whole library runs on, so no atomicity is needed.
extern uint8_t g_active;

inline bool Enabled() { return g_active != 0; }
inline Mode Active() { return static_cast<Mode>(g_active); }

// Runtime selector (benches, tests, the FSUP_FASTPATH env). Calls Recompute().
void SetRequested(Mode m);
Mode Requested();

// Re-derives the active byte: requested, demoted to kOff while the trace or metrics observer
// or a perverted scheduling policy is enabled.
void Recompute();

// Parses FSUP_FASTPATH (unset/empty = ras). Called from kernel::EnsureInit.
void InitFromEnv();

}  // namespace fsup::sync::fastpath

#endif  // FSUP_SRC_SYNC_FASTPATH_HPP_
