// Cleanup handlers (paper, "Ada Interface and Binding").
//
// The standard suggests pthread_cleanup_push/pop as a macro pair opening a lexical scope; the
// paper rejects that for language-independence and implements them as real functions keeping
// an explicit per-thread stack of handlers — "this trades the overhead of function calls
// otherwise not needed by C applications for the generality and language-independence of the
// interface". So do we. The nodes are recycled through a list whose push and pop are
// restartable atomic sequences, so once warm a push/pop pair touches neither the heap nor
// the kernel.

#ifndef FSUP_SRC_CANCEL_CLEANUP_HPP_
#define FSUP_SRC_CANCEL_CLEANUP_HPP_

#include "src/kernel/tcb.hpp"

namespace fsup::cleanup {

// Registers fn(arg) to run if the thread exits or is cancelled before the matching Pop.
void Push(void (*fn)(void*), void* arg);

// Unregisters the most recent handler; runs it if execute is true. EINVAL if the stack is
// empty.
int Pop(bool execute);

// Pops and runs every registered handler, newest first (thread exit path). User code: call
// outside the kernel.
void RunAll(Tcb* t);

}  // namespace fsup::cleanup

#endif  // FSUP_SRC_CANCEL_CLEANUP_HPP_
