// The observation funnel: one event stream, one gate, every observer a consumer.
//
// Each scheduler transition site (switch, suspend, wake, yield, preemption, mutex lock/block/
// unlock, signal and fake-call delivery, timer tick, fault firing, ...) makes exactly one
// Emit(event, thread, a, b) call. Emit is inline and tests one byte — the observer mask —
// against Gate(event), a constant at the site, so an event none of whose observers is on
// costs one load and one predicted branch. The out-of-line slow path hands the event to each
// enabled consumer, reading NowNs() once for those that take a timestamp (all but the log):
//
//   kTrace      the trace ring (debug/trace.hpp) records the trace-visible events
//   kMetrics    the metrics accumulators (debug/metrics.hpp): switch counts, time in state,
//               mutex wait/hold histograms derived from the block/lock/unlock events
//   kOffCpu     the off-CPU profiler (debug/profiler.hpp): suspend opens a capture, wake
//               closes it into a sample weighted by the blocked time; an idle poll takes
//               the session's collection point when one is due
//   kTickSample the deterministic on-CPU sampler that rides the (recorded) timer tick
//   kReplay     the schedule log (debug/replay.hpp), set while recording or replaying: it
//               appends each scheduling decision to the log, or checks it against the log
//
// The log's events (switch, tick, external signal, io wake, idle-pass end, fault, forced
// switch) advance the decision counter while the trace, recording or replay is on, and the
// log runs first, so a trace record carries its own decision's stamp.
//
// Ordering contract: a state-transition Emit fires BEFORE the site mutates the thread's state
// (the metrics epoch-lazy reset and the off-CPU close both read the pre-transition state), and
// on a wake the off-CPU consumer runs before the metrics consumer.
//
// Mutex lock and unlock events carry a fifth operand, the mutex's tag generation
// (sync/tag.hpp). Only the metrics consumer reads it: the trace records (a, b) alone, so a
// replayed run, which allocates its tags in a new generation, still logs bit-exactly. The
// timer tick's fifth operand is 1 when the round-robin slice fired; only the log reads it.
//
// Building with FSUP_NO_OBSERVE=1 (the fsup_noobs library) makes the mask a constexpr 0 and
// Emit an empty inline: the same sources with observation compiled out, which
// bench_observe_ablation uses as its baseline. Recording compiles out with the rest: a noobs
// build logs no decision. Replay's steering hooks (replay.hpp) are not part of this funnel —
// they change behaviour, not just watch it — but verifying a replayed switch is.

#ifndef FSUP_SRC_DEBUG_OBS_HPP_
#define FSUP_SRC_DEBUG_OBS_HPP_

#include <cstdint>

namespace fsup {
struct Tcb;
}

namespace fsup::debug::obs {

enum class Event : uint8_t {
  // Trace-visible events: recorded in the trace ring (values are stable — the ring stores
  // them and the exporters name them).
  kSwitch = 0,    // t = incoming thread; a = from thread id, b = to thread id
  kMutexLock,     // a = thread id, b = mutex tag
  kMutexBlock,    // a = thread id, b = mutex tag
  kMutexUnlock,   // a = thread id, b = mutex tag
  kPrioBoost,     // a = thread id, b = new priority
  kPrioRestore,   // a = thread id, b = new priority
  kSignal,        // a = thread id, b = signo
  kUser,          // a, b = caller-defined
  kFault,         // a = hostos::Call id, b = injected errno (fault injector hit)
  kOverflow,      // a = thread id, b = stack size in bytes (guard-page overflow)
  kDeadlock,      // a = thread id, b = mutex tag (EDEADLK returned by the graph walk)
  kCondWait,      // a = thread id, b = cond tag
  kCondSignal,    // a = woken thread id (0 = none), b = cond tag
  kCancel,        // a = target thread id, b = 1 if acted on immediately
  kFakeCall,      // a = target thread id, b = signo (kSigCancel for cancellation)
  kTimerTick,     // a = current thread id, b = number of expired timer entries
  kCondRequeue,   // a = waiters moved to the mutex queue, b = cond tag (broadcast)
  kSuspend,       // a = thread id, b = BlockReason (running -> blocked)
  kWake,          // a = thread id, b = BlockReason of the wait it leaves (-> ready)
  // Consumer-only events: state transitions the trace leaves implicit.
  kCreate,        // t = newborn thread
  kYield,         // t = current thread, running -> ready
  kPreempt,       // t = current thread, running -> ready, forced (priority or slice)
  kResume,        // t = current thread won the selection again: -> running, no switch
  kExit,          // t = terminating thread, -> terminated
  kIdlePoll,      // the dispatcher idled in the readiness poll
  kLockFailed,    // t = locker whose acquisition failed the ceiling check: its wait ends here
  // Consumer-only decision events: the schedule log's, with the same operands it logs.
  kTickBegin,     // a = AsyncSite of a live tick; kTimerTick closes it (gen = slice fired)
  kExtSignal,     // a = signo delivered to the process from outside, b = AsyncSite
  kIoWake,        // a = thread id woken by an idle poll pass, b = readiness mask
  kIdlePollDone,  // a = wakeups of the idle poll pass that ends here
  kForcedSwitch,  // a = exploration gate ordinal of a forced switch
  kCount,
};

// Observer bits.
inline constexpr uint8_t kTrace = 1u << 0;
inline constexpr uint8_t kMetrics = 1u << 1;
inline constexpr uint8_t kOffCpu = 1u << 2;
inline constexpr uint8_t kTickSample = 1u << 3;
inline constexpr uint8_t kReplay = 1u << 4;

// Which observers consume each event.
inline constexpr uint8_t kInterest[static_cast<int>(Event::kCount)] = {
    kTrace | kMetrics | kReplay,     // kSwitch
    kTrace | kMetrics,               // kMutexLock
    kTrace | kMetrics,               // kMutexBlock
    kTrace | kMetrics,               // kMutexUnlock
    kTrace,                          // kPrioBoost
    kTrace,                          // kPrioRestore
    kTrace | kMetrics,               // kSignal
    kTrace,                          // kUser
    kTrace | kReplay,                // kFault
    kTrace,                          // kOverflow
    kTrace | kMetrics,               // kDeadlock
    kTrace,                          // kCondWait
    kTrace,                          // kCondSignal
    kTrace,                          // kCancel
    kTrace | kMetrics,               // kFakeCall
    kTrace | kTickSample | kReplay,  // kTimerTick
    kTrace,                          // kCondRequeue
    kTrace | kMetrics | kOffCpu,     // kSuspend
    kTrace | kMetrics | kOffCpu,     // kWake
    kMetrics,                        // kCreate
    kMetrics,                        // kYield
    kMetrics,                        // kPreempt
    kMetrics,                        // kResume
    kMetrics,                        // kExit
    kOffCpu,                         // kIdlePoll
    kMetrics,                        // kLockFailed
    kReplay,                         // kTickBegin
    kReplay,                         // kExtSignal
    kReplay,                         // kIoWake
    kReplay,                         // kIdlePollDone
    kReplay,                         // kForcedSwitch
};

// The observer bits that send an event to the slow path: its consumers', and the trace's for
// a log event, which the funnel counts while the trace is on.
constexpr uint8_t Gate(Event e) {
  const uint8_t i = kInterest[static_cast<int>(e)];
  return (i & kReplay) != 0 ? static_cast<uint8_t>(i | kTrace) : i;
}

#if FSUP_NO_OBSERVE

inline constexpr uint8_t g_mask = 0;
inline void Emit(Event, Tcb*, uint32_t, uint32_t, uint16_t = 0) {}
inline void Set(uint8_t, bool) {}

#else

// The one gate. Written only by Set (user context, or inside the monitor), read by every
// transition site.
extern uint8_t g_mask;

void EmitSlow(Event e, Tcb* t, uint32_t a, uint32_t b, uint16_t gen);

inline void Emit(Event e, Tcb* t, uint32_t a, uint32_t b, uint16_t gen = 0) {
  if (__builtin_expect((g_mask & Gate(e)) != 0, 0)) {
    EmitSlow(e, t, a, b, gen);
  }
}

// Turns observer bits on or off. Callers that change what the sync fast path may bypass
// (kTrace, kMetrics) recompute the fast-path byte afterwards.
void Set(uint8_t bits, bool on);

#endif  // FSUP_NO_OBSERVE

inline bool On(uint8_t bits) { return (g_mask & bits) != 0; }

}  // namespace fsup::debug::obs

#endif  // FSUP_SRC_DEBUG_OBS_HPP_
