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
// No sampler allocates; the counts live in the registry's "profiler" group. Profiling adds no
// thread: at most every 20 ms the samplers take a collection point — the SIGPROF sampler when
// it lands outside the kernel, the tick sampler under record/replay, and the idle poll — which
// records a counter point (debug/export turns these into Perfetto counter tracks in the
// Chrome-trace JSON) and republishes the seqlock-versioned shared-memory stats block for
// tools/fsup_top (FSUP_STATS_SHM). An idle process therefore publishes the state it went idle
// in, and nothing more until it runs again.
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
// piggybacking (record/replay), maps the FSUP_STATS_SHM segment if configured, and takes the
// first collection point. Returns 0, EBUSY if already active, or the errno of a failed host
// call (fault-injectable setitimer) with everything unwound.
int Start(int hz);

// Stops the session: disarms the sampler, takes a final collection point and unmaps the
// segment. Aggregated data is retained for Dump. Returns 0 or EINVAL if inactive.
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

// Takes one collection point now, whether or not one is due: records a counter point and
// republishes the FSUP_STATS_SHM frame. No-op without a session. Enters the kernel.
void Collect();

// Environment hooks (FSUP_PROFILE, FSUP_PROFILE_HZ, FSUP_PROFILE_FILE, FSUP_STATS_SHM), called
// at the tail of kernel::EnsureInit — after replay::InitFromEnv, so mode-dependent sampling
// setup sees the real replay mode. Re-reads the environment every call (pt_reinit).
void InitFromEnv();

// Called at the top of kernel::ReinitForTesting: stops any active session, which disarms
// ITIMER_PROF and unmaps the stats segment before the handlers are uninstalled.
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

// Idle poll (kOffCpu), and the samplers below: takes a collection point if 20 ms have passed
// since the last one. One writer at a time: code inside the kernel, or the SIGPROF sampler
// when it interrupted code outside it.
void MaybeCollect(int64_t now);

// Timer tick (kTickSample): one deterministic on-CPU sample per tick (ticks are
// recorded/replayed decisions, so replay reproduces the exact sample sequence), then
// MaybeCollect.
void TickSample(int64_t now, void* fp, void* pc);

// The SIGPROF branch of the universal handler. Called with the raw ucontext_t* (as void* to
// keep <ucontext.h> out of this header); async-signal-safe, touches only the on-CPU table (or
// its pending slot) and the interrupted thread's TCB stack bounds, never enters the kernel.
// A sample that lands outside the kernel and outside a busy section also runs MaybeCollect.
// Preserves errno.
void OnSigprof(void* ucontext);

// ---------------------------------------------------------------------------------------------
// Counter tracks for the Chrome-trace export ("ph":"C"). Each collection point appends one
// point, the whole counter block as metrics::CaptureCounters reads it; export turns each
// gauge and the rate of each counter that moved into a track.
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
