// Thread cancellation (paper, "Thread Cancellation" and Table 1).
//
// Cancellation is a request to send the internal signal SIGCANCEL. The action taken depends on
// the receiving thread's interruptibility state:
//
//   disabled               — SIGCANCEL pends on the thread until cancellation is enabled
//   enabled, controlled    — pends until an interruption point is reached
//   enabled, asynchronous  — acted upon immediately
//
// Interruption points are the calls that may suspend indefinitely (conditional wait, sigwait,
// join, delay, I/O waits) plus pt_testintr — but NOT mutex lock, so cleanup handlers always
// see mutexes in a deterministic state. Acting on a cancellation disables interruptibility,
// masks all signals for the thread and ends it through pt_exit: another thread by a fake call
// pushed onto its stack, the running thread directly (TestIntrInKernel). A cancel aimed at the
// running thread always pends first, and a pending cancel is never redelivered as a signal:
// only an interruption point or an interruptibility change acts on it.

#ifndef FSUP_SRC_CANCEL_CANCEL_HPP_
#define FSUP_SRC_CANCEL_CANCEL_HPP_

#include "src/kernel/tcb.hpp"
#include "src/kernel/types.hpp"

namespace fsup::cancel {

// Requests cancellation of t. In kernel.
void RequestInKernel(Tcb* t);

// The SIGCANCEL action of the signal delivery model (action step 5). In kernel.
void CancelAction(Tcb* t);

// Interruption point, kernel already entered: if a cancellation is pending and enabled on the
// current thread, acts on it (never returns in that case). Besides the interruption points,
// the three calls that can make a pending cancel actionable on an asynchronous thread —
// pt_cancel on itself, pt_setintr, pt_setintrtype — end here before leaving the kernel.
void TestIntrInKernel();

// pt_setintr / pt_setintrtype / pt_testintr backing.
int SetInterruptibility(bool enabled, Interruptibility* old_state);
int SetInterruptType(bool asynchronous, Interruptibility* old_state);

}  // namespace fsup::cancel

#endif  // FSUP_SRC_CANCEL_CANCEL_HPP_
