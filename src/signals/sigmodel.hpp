// The signal delivery model (paper, "Signal Handling").
//
// Two-stage model, reproduced step for step:
//
// Recipient selection (highest precedence first):
//   1. signal directed at a specific thread         → that thread
//   2. synchronous signal                           → the thread that caused it
//   3. timer expiration                             → the thread that armed the timer
//   4. I/O completion                               → the thread that requested the I/O
//   5. any thread with the signal unmasked          → first such thread (linear search,
//                                                     sigwait counts as unmasked)
//   6. otherwise                                    → pend at the process level
//
// Action selection for the recipient (highest precedence first):
//   1. thread masks the signal                      → pend on the thread
//   2. alarm from a timer expiration                → wake the sleeper / re-slice
//   3. thread suspended in sigwait                  → wake it, mask the sigwait set
//   4. a user handler is registered                 → fake call, mask per sigaction
//   5. the cancellation signal                      → Table 1: pend, or fake call to
//                                                     pt_exit (cancel/cancel.hpp)
//   6. disposition "ignore"                         → discard
//   7. default                                      → default action on the process
//
// All functions here must be called with the Pthreads kernel entered unless noted.

#ifndef FSUP_SRC_SIGNALS_SIGMODEL_HPP_
#define FSUP_SRC_SIGNALS_SIGMODEL_HPP_

#include <cstdint>

#include "src/kernel/kernel.hpp"
#include "src/kernel/tcb.hpp"
#include "src/kernel/types.hpp"

namespace fsup::sig {

// Stage 1 for an external (process-level) signal: find a recipient and run stage 2 on it, or
// pend the signal at the process level. Steps 1-4 name their thread and are taken where they
// arise: pt_kill runs stage 2 on its target, the fault handler runs on the faulting thread,
// and the timer heap and the I/O waits wake the thread that armed or asked.
void DeliverToProcess(int signo);

// Stage 2: take the action for `signo` on thread `t`.
void DeliverToThread(Tcb* t, int signo);

// Re-examines thread + process pending sets after t's mask opened up (pt_sigmask, handler
// return, sigwait re-mask) and delivers anything now deliverable.
void CheckPendingAfterUnmask(Tcb* t);

// Delivers an asynchronous process-level signal (SIGALRM = the timer tick) that reached the
// library at `site`: the universal handler's out-of-kernel path, or the dispatcher replaying a
// deferred one. The arrival is a recorded scheduling decision. In kernel.
void DeliverAsync(int signo, debug::replay::AsyncSite site);

// Replays signals the universal handler logged while the kernel flag was set.
void HandleDeferred(SigSet set);

// Dispatcher hook: called when `next` is about to be switched to (arms the RR slice).
void OnDispatch(Tcb* next);

// True if an installed user handler or a thread blocked in sigwait could ever consume an
// external signal — used by the idle loop's deadlock detection. Derived on each call: the
// disposition table first, then (no handler installed) all_threads up to the first sigwait
// blocker.
bool ExternalWakeupPossible();

// The host process mask is empty on every thread except inside a live universal-handler or
// fault-handler frame, where the host kernel blocks the frame's own signal (every signal, for
// SIGPROF and faults) until its sigreturn. A thread that leaves such a frame other than by
// returning from it — a switch or an idle sleep while an in-frame user handler blocks or a
// nested delivery preempts it, or a redirect (ApplyRedirectIfAny) — lifts that mask first:
// one sigprocmask, made when Tcb::in_handler_frame says the thread is in such a frame.
void LeaveHandlerFrame(Tcb* t);

// One sigprocmask(SIG_SETMASK): block everything (across a reinit's handler swap), or
// nothing.
void SetHostMask(bool block_all);

// Installs/uninstalls the process-level universal handler for all maskable signals.
void InstallOsHandlers();
void UninstallOsHandlers();

// pt_sigaction backing: registers a per-thread-deliverable user handler (or "ignore") for a
// virtual signal. handler == nullptr with ignore == false restores the default disposition.
// Call outside the kernel.
int SetAction(int signo, void (*handler)(int), SigSet mask, bool ignore, VSigAction* old);

// -- timers ------------------------------------------------------------------------------

// Arms t's blocking timeout / alarm for an absolute CLOCK_MONOTONIC deadline.
void ArmBlockTimer(Tcb* t, int64_t deadline_ns);
void CancelBlockTimer(Tcb* t);
void ArmAlarm(Tcb* t, int64_t deadline_ns);
void CancelAlarm(Tcb* t);

// Fires every due timer (SIGALRM path and idle-loop timeout path). In kernel.
void OnTimerTick(debug::replay::AsyncSite site);

// Replay-side tick: expires up to `expired` heap entries (returns how many; fewer means the
// run diverged) and forces the slice branch if `slice_fired`, regardless of the wall clock.
// Called by the replay gates. In kernel.
uint32_t ForceTimerTick(uint32_t expired, bool slice_fired);

// Earliest pending deadline (timers + RR slice), or -1 if none. In kernel.
int64_t NextDeadlineNs();

// Reprograms the interval timer from the current timer list + slice state. In kernel.
void ProgramItimer();

// Enables/disables SCHED_RR time slicing with the given quantum.
void EnableTimeSlice(int64_t slice_us);
void DisableTimeSlice();

// Removes t from every signal/timer structure and settles the interval timer (thread exit).
void ForgetThread(Tcb* t);

}  // namespace fsup::sig

#endif  // FSUP_SRC_SIGNALS_SIGMODEL_HPP_
