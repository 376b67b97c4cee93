// Deterministic record/replay of scheduling decisions.
//
// The library owns every scheduling decision of the process (the uniprocessor monitor), so an
// execution is fully determined by the *sequence of nondeterministic decisions* the kernel
// takes: which thread the dispatcher switches to, when a preemption tick fires and how many
// timers it expires, which fault rule injects an error, which fds the idle poll reports ready,
// and where the exploration gate forces a switch. This module serializes exactly that sequence.
// The perverted-random policy's draws are not in it: they are a pure function of the policy
// seed the program passes and a count both session starts restart (sched/perverted.hpp).
//
//   record  (FSUP_RECORD=<path>)  — every decision is appended to an in-memory log, written to
//                                   <path> at process exit (or via SaveLog).
//   replay  (FSUP_REPLAY=<path>)  — the log *steers* the sources of nondeterminism (ticks,
//                                   poll outcomes, fault rules, forced switches are taken
//                                   from the log, the physical interval timer is suppressed) and
//                                   *verifies* the derived decisions (context switches). Any
//                                   mismatch is a divergence: the first mismatched decision
//                                   and the tail of the trace ring are dumped, then abort.
//
// A replayed run of a data-race-free program reproduces the recorded trace ring bit-exactly
// (same events, operands and decision indices; wall-clock timestamps differ — replay does not
// sleep). See DESIGN.md "Determinism and replay" for what counts as a decision and why this
// is sufficient.
//
// The record side is a consumer of the observation funnel (debug/obs.hpp, observer kReplay, set
// while recording or replaying): each site that takes a decision emits one event, and Observe
// logs it or, in replay, checks it. The steering entry points below stay with their sites.
//
// The logical decision counter stamps each trace-ring record, giving traces a timestamp that
// two runs can be compared on. It advances while the trace, recording or replay is on.

#ifndef FSUP_SRC_DEBUG_REPLAY_HPP_
#define FSUP_SRC_DEBUG_REPLAY_HPP_

#include <cstddef>
#include <cstdint>

#include "src/debug/obs.hpp"

namespace fsup::debug::replay {

enum class Mode : uint8_t { kOff = 0, kRecord = 1, kReplay = 2 };

// One logged decision. The kinds marked "steered" are *forced* onto a replayed run; the kinds
// marked "verified" are recomputed by the replayed run and checked against the log.
enum class Decision : uint8_t {
  kSwitch = 0,  // verified: a = from thread id, b = to thread id
  kTick,        // steered:  a = expired timer entries, b = kSliceFired | site (see below)
  kExtSignal,   // steered:  a = signo delivered to the process from outside, b = site
  kIoWake,      // steered:  a = woken thread id, b = delivered readiness mask
  kIoDone,      // steered:  a = wakeups in this idle poll pass (terminates the pass)
  kFault,       // steered:  a = hostos::Call ordinal, b = injected errno
  kForced,      // steered:  a = exploration gate ordinal of a forced switch
};

struct LogRecord {
  uint32_t a;
  uint32_t b;
  Decision kind;
};

// Where the recorded run took an asynchronous event (kTick / kExtSignal): in the universal
// handler before any kernel entry (the thread was in user code), or inside the dispatcher
// (the signal arrived in the kernel, was deferred, and the dispatch loop or the idle wait
// handled it). The record's b carries the site bit and, above it (bits 2..31), the number of
// kernel entries since the previous decision, which names the kernel section. Replay fires
// each record at its own site's mirror in that section: kernel::Enter for pre-entry, the
// dispatch loop for in-dispatcher.
enum class AsyncSite : uint8_t { kPreEntry = 0, kInDispatcher = 1 };
inline constexpr uint32_t kSliceFired = 1u << 0;     // kTick b: the slice expired
inline constexpr uint32_t kSiteDispatcher = 1u << 1;  // kTick/kExtSignal b: in-dispatcher

// g_gate_pending bits, set while the next log record is an async event: kernel::Enter must
// call RunGate; for an in-dispatcher record the dispatch loop must call GateInDispatcher.
inline constexpr uint8_t kGateEntry = 1u << 0;
inline constexpr uint8_t kGateDispatcher = 1u << 1;

// -- hot-path state (extern so the kernel's inline Enter and the trace ring can read it
// without a function call; written only by this module) ---------------------------------
extern uint8_t g_mode;             // Mode as a raw byte
extern uint64_t g_decisions;       // logical decision counter (trace, record or replay on)
#if FSUP_NO_OBSERVE
// The observation-free baseline build (debug/obs.hpp): the kernel's replay entry and dispatcher
// gates compile out.
inline constexpr uint8_t g_gate_pending = 0;
#else
extern volatile uint8_t g_gate_pending;  // replay only: kGate* bits for the next record
#endif

inline Mode CurrentMode() { return static_cast<Mode>(g_mode); }
inline bool Replaying() { return g_mode == static_cast<uint8_t>(Mode::kReplay); }
inline uint64_t DecisionCount() { return g_decisions; }

// -- control ------------------------------------------------------------------------------

// Starts recording into the in-memory log (resets it, the decision counter and the counts of
// sched::RewindDraws). A full log stops recording silently and marks the log truncated; a
// replay of a truncated log falls back to live execution when it runs off the end.
void StartRecording();

// Stops recording; the log stays in memory for SaveLog/CopyLog. Returns the record count.
size_t StopRecording();

size_t LogSize();
bool LogTruncated();

// Writes the in-memory log to path. Returns 0 or an errno value.
int SaveLog(const char* path);

// Loads path and enters replay mode: the physical interval timer is disarmed (the log carries
// every tick) and the decision counter and the counts of sched::RewindDraws reset. Returns 0 or
// an errno value (EINVAL: bad magic, version or corrupt header). The runtime must be
// initialized and idle.
int StartReplay(const char* path);

// Leaves replay mode and re-arms the interval timer from the live timer heap. Returns the
// number of log records the run did not consume: 0 for a replay that followed the whole
// recording, and 0 when the run already left replay mode by running off the log's end.
size_t StopReplay();

// Reads a log file into out (pass nullptr to only query the record count). Used by the
// exploration tool to lift the forced-switch ordinals out of a failing run's recording.
int ReadLogFile(const char* path, LogRecord* out, size_t max, size_t* count);

// Copies the in-memory log (oldest first), returns the number copied.
size_t CopyLog(LogRecord* out, size_t max);

// Arms FSUP_RECORD / FSUP_REPLAY from the environment (idempotent; called from
// kernel::EnsureInit so a recorded trajectory starts at the first decision).
void InitFromEnv();

// -- the funnel's consumer ------------------------------------------------------------------

// One event of the log's (obs::kInterest has kReplay), with its funnel operands. Record
// appends the decision; replay verifies a switch and diverges on a live tick, external signal
// or io wake; with only the trace on it counts the decision. kTimerTick is not one: it fills
// in the tick record its kTickBegin reserved.
void Observe(obs::Event e, uint32_t a, uint32_t b, uint16_t slice_fired);

// -- steering (called by the kernel while replaying) -----------------------------------------

// The fault injector's question at every host call while replaying: the errno to inject
// (0 = none).
int ReplayFault(uint32_t call);

// Replays the next idle-poll outcome: consumes kIoWake/kFault records up to the pass's
// kIoDone terminator, waking the logged threads. Called from io::PollOnce in replay mode.
void ReplayIdleIo();

// Dispatcher-loop gate (called when g_gate_pending has kGateDispatcher): if the next log record
// is an async event that the recorded run took inside the dispatcher of this kernel section
// (a deferred tick or external signal), fire it now. Returns true if something fired (the
// caller restarts its selection loop).
bool GateInDispatcher();

// Pre-kernel gate (called by kernel::Enter while g_gate_pending has kGateEntry). A pre-entry
// record due at this entry mirrors the universal handler's out-of-kernel path: enter, fire the
// async event, dispatch. An in-dispatcher record due in the section this entry opens raises
// dispatch_pending, as the deferred signal did on record, so the section's exit dispatches.
void RunGate();

// Replay side of the gate at `ordinal`: true if the log forces a switch here (the record is
// consumed and the caller demotes). A logged switch this gate passed, or one that finds
// nothing to interleave with (!applicable), is a divergence.
bool ReplayForced(uint64_t ordinal, bool applicable);

// Re-arms the interval timer if a replay ran off its log outside the kernel.
void RearmAfterExhaust();

const char* DecisionName(Decision d);

}  // namespace fsup::debug::replay

#endif  // FSUP_SRC_DEBUG_REPLAY_HPP_
