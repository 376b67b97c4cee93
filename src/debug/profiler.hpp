// Statistical on-/off-CPU profiler.
//
// On-CPU: a SIGPROF sampler (ITIMER_PROF) intercepted at the very top of the universal signal
// handler walks the interrupted thread's frame-pointer chain — bounded by the thread's stack
// interval and its demand-commit watermark — and pushes raw PCs into a lock-free ring. Under
// record/replay the itimer is never armed; sampling piggybacks on the (recorded, replayed)
// timer tick instead, so sample counts are bit-identical across a record→replay pair.
//
// Off-CPU: the kOffCpu consumer of the observation funnel (debug/obs.hpp). The suspend event
// snapshots the blocking call stack into the suspending thread's TCB (profile capture
// buffer); the wake event closes the capture into one ring record weighted by blocked
// nanoseconds and tagged with the wait object (mutex#/cond# tag + BlockReason).
//
// A collector — an ordinary library thread — drains the ring periodically, folds samples into
// (stack hash → weight) aggregates, publishes a seqlock-versioned shared-memory stats block
// for tools/fsup_top (FSUP_STATS_SHM), and feeds the Perfetto counter tracks that
// debug/export interleaves into the Chrome-trace JSON.
//
// Export: pt_profile_dump writes flamegraph.pl-compatible folded stacks ("0xPC;0xPC N") with
// a /proc/self/maps sidecar for offline symbolization; FSUP_PROFILE_FILE arms an atexit dump.
//
// Disabled cost: the funnel's one mask test at each transition site, shared with trace and
// metrics — bench_observe_ablation measures it against the compiled-out build.

#ifndef FSUP_SRC_DEBUG_PROFILER_HPP_
#define FSUP_SRC_DEBUG_PROFILER_HPP_

#include <cstdint>

#include "src/kernel/types.hpp"

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

// Drains + folds everything accumulated so far and writes:
//   <path>         folded on-CPU stacks, "0xPC;0xPC count" root-first (flamegraph.pl)
//   <path>.offcpu  folded off-CPU stacks, weight = blocked microseconds, wait tag as leaf
//   <path>.maps    copy of /proc/self/maps for offline symbolization
// Works during or after a session. Returns 0 or an errno.
int Dump(const char* path);

// Total committed samples so far (on-CPU + off-CPU); drops excluded. Used by the determinism
// tests: under record→replay the pair of counts must match exactly.
uint64_t SampleCount();
uint64_t DroppedCount();

// Off-CPU samples committed so far (one per wake of a thread whose suspend was captured).
uint64_t OffCpuSampleCount();

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

// Wake of a blocked thread (kOffCpu), before any mutation: emit the off-CPU sample for the
// closing wait.
void CloseBlock(Tcb* t, int64_t now);

// Timer tick (kTickSample): one deterministic on-CPU sample per tick (ticks are
// recorded/replayed decisions, so replay reproduces the exact sample sequence).
void TickSample(void* fp, void* pc);

// The SIGPROF branch of the universal handler. Called with the raw ucontext_t* (as void* to
// keep <ucontext.h> out of this header); async-signal-safe, touches only the sample ring and
// the interrupted thread's TCB stack bounds, never enters the kernel. Preserves errno.
void OnSigprof(void* ucontext);

// ---------------------------------------------------------------------------------------------
// Counter tracks for the Chrome-trace export ("ph":"C"). The collector appends one point per
// collection period; export drains them into counter events interleaved with the trace ring.
// ---------------------------------------------------------------------------------------------

struct CounterPoint {
  int64_t t_ns = 0;
  uint32_t live_threads = 0;
  uint32_t ready_depth = 0;
  uint64_t pool_mapped_bytes = 0;
  uint64_t samples = 0;  // cumulative committed samples at t_ns (export differentiates)
};

// Copies up to max points (oldest first) into out; returns the count. Enters the kernel
// monitor itself — user-context callers only (debug/export).
int CounterSnapshot(CounterPoint* out, int max);

}  // namespace fsup::debug::profiler

#endif  // FSUP_SRC_DEBUG_PROFILER_HPP_
