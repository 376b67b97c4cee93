// Fake calls (paper, "Fake Calls" / Figure 3).
//
// User signal handlers must execute at the priority of the receiving thread, not at delivery
// time. A fake call pushes a wrapper frame onto the *target thread's* stack and doctors its
// saved context so that, when the thread is next dispatched, it runs the wrapper as if it had
// called it explicitly. The wrapper:
//   1. re-acquires the mutex if the handler interrupted a conditional wait (terminating it),
//   2. saves the thread's error number,
//   3. calls the user handler,
//   4. restores the error number,
//   5. restores the per-thread signal mask and delivers anything newly unmasked,
//   6. resumes the interruption point — or redirects control where the handler asked
//      (pt_handler_redirect, the implementation-defined hook the Ada runtime needs).
//
// For the *current* thread (a signal caught while it was running, or pt_kill to self) the
// wrapper is invoked directly under the live frame once the kernel has been exited — the call
// frame is the "frame pushed on top of the thread's stack" of Figure 3.

#ifndef FSUP_SRC_SIGNALS_FAKE_CALL_HPP_
#define FSUP_SRC_SIGNALS_FAKE_CALL_HPP_

#include "src/kernel/kernel.hpp"
#include "src/kernel/tcb.hpp"

namespace fsup::sig {

// Installs a fake call running `handler(signo)` on t, masking per the action's mask. If t is
// blocked, it is detached from its wait queue and made ready (the interrupted blocking call
// re-evaluates its predicate or reports EINTR). If t is the current thread, the handler run is
// queued and drained by RunSelfHandlers() after kernel exit. In kernel.
void FakeCallUserHandler(Tcb* t, int signo, const VSigAction& action);

// Installs a fake call to pt_exit(kCanceled) on t (cancellation, Table 1 "acted upon"). The
// caller has already set t's interruptibility/masks. t must not be the current thread.
// In kernel.
void FakeCallCancel(Tcb* t);

// Removes t from whatever wait queue holds it so it can be made ready for a fake call or a
// timeout. Maintains every queue's invariants (mutex has_waiters, cond interruption flag,
// join links, I/O registry). In kernel.
void DetachFromWaitQueue(Tcb* t);

// Drains handler runs queued for the current thread. Call *outside* the kernel.
void RunSelfHandlers();

// True if handler runs are queued for the current thread. O(1): asked on every kernel exit.
inline bool SelfHandlersPending() { return kernel::Current()->self_direct_recs != 0; }

// pt_handler_redirect backing: applies a pending redirect (siglongjmp) if the handler that
// just returned requested one. Never returns if a redirect is pending.
void ApplyRedirectIfAny();

}  // namespace fsup::sig

#endif  // FSUP_SRC_SIGNALS_FAKE_CALL_HPP_
