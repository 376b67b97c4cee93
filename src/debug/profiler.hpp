// Statistical on-/off-CPU profiler.
//
// On-CPU: a SIGPROF sampler (ITIMER_PROF) intercepted at the very top of the universal signal
// handler walks the interrupted thread's frame-pointer chain — bounded by the thread's stack
// interval — and folds the raw PCs into a fixed on-CPU profile table. Under record/replay the
// itimer is never armed; sampling piggybacks on the (recorded, replayed) timer tick instead,
// so sample counts are bit-identical across a record→replay pair.
//
// Off-CPU: the kOffCpu consumer of the observation funnel (debug/obs.hpp). The suspend event
// snapshots the blocking call stack into the suspending thread's TCB (profile capture
// buffer); the wake event folds the capture into the off-CPU table, weighted by blocked
// nanoseconds and keyed by the wait object (mutex#/cond# tag + BlockReason) as well.
//
// No sampler allocates; the counts live in the registry's "profiler" group. A collector — an
// ordinary library thread — periodically publishes a seqlock-versioned shared-memory stats
// block for tools/fsup_top (FSUP_STATS_SHM) and records the counter points that debug/export
// turns into Perfetto counter tracks in the Chrome-trace JSON.
//
// Export: pt_profile_dump writes flamegraph.pl-compatible folded stacks ("0xPC;0xPC N") with
// a /proc/self/maps sidecar for offline symbolization; FSUP_PROFILE_FILE arms an atexit dump.
//
// Disabled cost: the funnel's one mask test at each transition site, shared with trace and
// metrics — bench_observe_ablation measures it against the compiled-out build.

#ifndef FSUP_SRC_DEBUG_PROFILER_HPP_
#define FSUP_SRC_DEBUG_PROFILER_HPP_

#include <cstdint>
#include <vector>

#include "src/kernel/types.hpp"
#include "src/util/counters.hpp"

namespace fsup {
struct Tcb;
}

namespace fsup::debug::profiler {

// ---------------------------------------------------------------------------------------------
// Control. Start/Stop/Dump are public-API entry points (pt_profile_*): they run EnsureInit and
// take the kernel monitor themselves. hz <= 0 picks the default rate (kDefaultHz).
// ---------------------------------------------------------------------------------------------

inline constexpr int kDefaultHz = 997;  // prime, so sampling doesn't phase-lock the slice tick

// Starts a profiling session: resets aggregates, arms ITIMER_PROF (live mode) or tick
// piggybacking (record/replay), maps the FSUP_STATS_SHM segment if configured, and spawns the
// collector thread. Returns 0, EBUSY if already active, or the errno of a failed host call
// (fault-injectable setitimer) with everything unwound.
int Start(int hz);

// Stops the session: disarms the sampler, joins the collector, publishes a final shm frame and
// unmaps the segment. Aggregated data is retained for Dump. Returns 0 or EINVAL if inactive.
int Stop();

bool Active();

// Writes everything folded so far:
//   <path>         folded on-CPU stacks, "0xPC;0xPC count" root-first (flamegraph.pl)
//   <path>.offcpu  folded off-CPU stacks, weight = blocked microseconds, wait tag as leaf
//   <path>.maps    copy of /proc/self/maps for offline symbolization
// Works during or after a session. Returns 0 or an errno.
int Dump(const char* path);

// The session's on-CPU sampling rate, 0 while no session runs.
uint64_t SampleHz();

// Runs one collection period now, as the collector thread does every 20 ms: records a
// counter point and republishes the FSUP_STATS_SHM frame. No-op without a session. Enters
// the kernel.
void Collect();

// Environment hooks (FSUP_PROFILE, FSUP_PROFILE_HZ, FSUP_PROFILE_FILE, FSUP_STATS_SHM), called
// at the tail of kernel::EnsureInit — after replay::InitFromEnv, so mode-dependent sampling
// setup sees the real replay mode. Re-reads the environment every call (pt_reinit).
void InitFromEnv();

// Called at the top of kernel::ReinitForTesting, before the single-thread assert: stops any
// active session (joining the collector thread) so teardown sees only the main thread.
void ShutdownForReinit();

// ---------------------------------------------------------------------------------------------
// Funnel consumers (called only by obs::EmitSlow). fp/pc are the emitting frame and its return
// address: the walk starts there, so the stack reads as it did at the transition site.
// ---------------------------------------------------------------------------------------------

extern volatile bool g_signal_sampling;  // live mode: SIGPROF branch armed (read in handler)

// Suspend (kOffCpu): capture the blocking stack and wait object into t->profile.
void CaptureBlock(Tcb* t, BlockReason reason, int64_t now, void* fp, void* pc);

// Wake of a blocked thread (kOffCpu), before any mutation: fold the off-CPU sample for the
// closing wait.
void CloseBlock(Tcb* t, int64_t now);

// Timer tick (kTickSample): one deterministic on-CPU sample per tick (ticks are
// recorded/replayed decisions, so replay reproduces the exact sample sequence).
void TickSample(void* fp, void* pc);

// The SIGPROF branch of the universal handler. Called with the raw ucontext_t* (as void* to
// keep <ucontext.h> out of this header); async-signal-safe, touches only the on-CPU table (or
// its pending slot) and the interrupted thread's TCB stack bounds, never enters the kernel.
// Preserves errno.
void OnSigprof(void* ucontext);

// ---------------------------------------------------------------------------------------------
// Counter tracks for the Chrome-trace export ("ph":"C"). The collector appends one point per
// collection period, the whole counter block as metrics::CaptureCounters reads it; export
// turns each gauge and the rate of each counter that moved into a track.
// ---------------------------------------------------------------------------------------------

struct CounterPoint {
  int64_t t_ns = 0;
  counters::Block block;
};

// The newest points (up to 256), oldest first. Enters the kernel monitor itself —
// user-context callers only (debug/export).
std::vector<CounterPoint> CounterSnapshot();

}  // namespace fsup::debug::profiler

#endif  // FSUP_SRC_DEBUG_PROFILER_HPP_
