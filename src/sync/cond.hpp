// Condition variables (paper, "Synchronization").
//
// A conditional wait atomically unlocks the associated mutex and suspends; the mutex is
// re-locked before the wait returns, so the mutex is always in a known state — even when a
// signal handler interrupts the wait, in which case the fake-call wrapper re-acquires the
// mutex *before* the user handler runs and the wait terminates with EINTR (draft-6 semantics,
// exactly the behaviour the paper describes). Wakeups go to the highest-priority waiter.
// Spurious wakeups are permitted by the standard; callers re-evaluate their predicate.
//
// Broadcast REQUEUES every waiter onto its own mutex's wait queue (the futex-requeue
// discipline): since every broadcast waiter would immediately re-block on the mutex anyway,
// moving it there instead of waking it avoids the O(waiters) thundering herd of context
// switches. The picked (highest-priority, longest-waiting) waiter goes to the head of its
// priority level, the rest to the tail, and a mutex nobody holds passes at once to its top
// waiter. The picked waiter waits as a plain mutex waiter and returns 0. The rest, requeued
// waiters, block as ordinary mutex waiters (coherent for the wait-for-graph deadlock detector
// and priority repositioning) but keep their conditional-wait identity (Tcb::cond_requeued):
// armed timeout timers stay armed and convert to a normal ETIMEDOUT-after-reacquisition, and
// fake-call interruption / cancellation still terminate the logical conditional wait.

#ifndef FSUP_SRC_SYNC_COND_HPP_
#define FSUP_SRC_SYNC_COND_HPP_

#include <cstdint>

#include "src/kernel/prio_queue.hpp"
#include "src/kernel/tcb.hpp"
#include "src/sync/mutex.hpp"

namespace fsup {

inline constexpr uint32_t kCondMagic = 0x636f6e64;  // "cond"

struct Cond {
  uint32_t magic = 0;
  uint32_t tag = 0;

  // Waiter-presence word, mirroring !waiters.empty(). Every path that mutates the waiter
  // queue (wait, signal, broadcast/requeue, timeout/interruption detach) maintains it under
  // the kernel monitor; pt_cond_signal/broadcast read it in user context and return without
  // entering the kernel when it is 0. That read is race-free under the standard's own rule:
  // when "predictable scheduling behavior is required", the signaller holds the mutex, so no
  // thread can be between "released the mutex" and "on the queue" while the signaller runs
  // (see DESIGN.md, "Uncontended fast path").
  volatile uint8_t has_waiters = 0;

  PrioWaitQueue waiters;  // per-priority FIFO buckets; every operation O(1)
};

namespace sync {

int CondInit(Cond* c);
int CondDestroy(Cond* c);

// timeout_ns < 0: wait forever. Otherwise an absolute CLOCK_MONOTONIC deadline.
// Returns 0, ETIMEDOUT, EINTR (wait interrupted by a user signal handler), EPERM (mutex not
// held by the caller), or EINVAL.
int CondWait(Cond* c, Mutex* m, int64_t deadline_ns);

int CondSignal(Cond* c);

// Queues the highest-priority waiter first on its recorded mutex and every other waiter
// behind it on its own (see the header comment). Zero waiters: no-op.
int CondBroadcast(Cond* c);

// Re-buckets t within c's waiter queue after t's priority changed. O(1). In kernel.
void RepositionCondWaiter(Cond* c, Tcb* t);

// Removes t from c's waiter queue, maintaining the has_waiters presence word (fake-call
// interruption and timeout expiry detach waiters without going through signal/broadcast).
// O(1). In kernel.
void RemoveCondWaiter(Cond* c, Tcb* t);

}  // namespace sync
}  // namespace fsup

#endif  // FSUP_SRC_SYNC_COND_HPP_
