#include "src/sync/cond.hpp"

#include <cerrno>
#include <new>

#include "src/cancel/cancel.hpp"
#include "src/debug/obs.hpp"
#include "src/kernel/kernel.hpp"
#include "src/signals/sigmodel.hpp"
#include "src/sync/fastpath.hpp"
#include "src/sync/tag.hpp"
#include "src/util/assert.hpp"

namespace fsup::sync {
namespace {

// Bookkeeping for a waiter a broadcast moved from a condition queue onto mutex m's wait
// queue. The thread stays suspended at its CondWait suspension point but blocks as an
// ordinary mutex waiter: the wait-for-graph detector follows waiting_on_mutex, priority
// changes reposition it in m's queue, and a direct unlock handoff can make it owner.
void ParkOnMutex(Tcb* w, Mutex* m) {
  w->cond_signalled = true;  // the broadcast reached it; it returns once it re-holds m
  w->waiting_on_cond = nullptr;
  w->waiting_on_mutex = m;
  w->block_reason = BlockReason::kMutex;
}

// One of the rest a broadcast requeues. The cond_requeued flag preserves the logical
// conditional-wait identity for interruption and cancellation; an armed timeout timer stays
// armed (expiry converts to a normal mutex-wake that returns ETIMEDOUT after reacquisition).
void MarkRequeued(Tcb* w, Mutex* m) {
  ParkOnMutex(w, m);
  w->cond_requeued = true;
}

// Queues w on m. A waiter queued on a free mutex is only ever popped by an unlock, and none
// may come, so pass m on at once as UnlockInKernel would: its top waiter becomes owner and
// finds holder() == self in CondWait.
void Requeue(Tcb* w, Mutex* m, bool to_head) {
  InsertWaiter(m, w, to_head);
  if (m->owner == nullptr) {
    HandOff(m);
  }
}

}  // namespace

int CondInit(Cond* c) {
  kernel::EnsureInit();
  if (c == nullptr) {
    return EINVAL;
  }
  new (c) Cond();
  c->magic = kCondMagic;
  c->tag = NextSyncTag();
  return 0;
}

int CondDestroy(Cond* c) {
  // A destroy really can be the first library call (a global object torn down by a program
  // that never spawned a thread): Enter() on an uninitialized kernel would trip its monitor
  // invariants, so initialize like every other public entry point.
  kernel::EnsureInit();
  if (c == nullptr || c->magic != kCondMagic) {
    return EINVAL;
  }
  kernel::Enter();
  if (!c->waiters.empty()) {
    kernel::Exit();
    return EBUSY;
  }
  c->magic = 0;
  kernel::Exit();
  return 0;
}

int CondWait(Cond* c, Mutex* m, int64_t deadline_ns) {
  kernel::EnsureInit();
  if (c == nullptr || c->magic != kCondMagic || m == nullptr || m->magic != kMutexMagic) {
    return EINVAL;
  }
  Tcb* self = kernel::Current();

  kernel::Enter();
  if (m->holder() != self) {
    kernel::Exit();
    return EPERM;
  }

  // Conditional waits are interruption points: act on a pending cancellation before blocking
  // (the mutex is still held, so cleanup handlers see a deterministic state).
  cancel::TestIntrInKernel();

  // Atomic with the suspension: unlock (full protocol semantics, possible handoff) and queue.
  UnlockInKernel(m, self);
  c->waiters.Push(self);
  c->has_waiters = 1;  // published before the mutex can be re-acquired by a signaller
  self->waiting_on_cond = c;
  self->cond_mutex = m;
  self->cond_signalled = false;
  self->cond_interrupted = false;
  self->timed_out = false;
  if (deadline_ns >= 0) {
    sig::ArmBlockTimer(self, deadline_ns);
  }

  debug::obs::Emit(debug::obs::Event::kCondWait, self, self->id, c->tag);
  kernel::Suspend(BlockReason::kCond);

  if (deadline_ns >= 0) {
    sig::CancelBlockTimer(self);
  }
  self->waiting_on_cond = nullptr;
  self->waiting_on_mutex = nullptr;  // set while a broadcast had us requeued on m's queue
  self->cond_requeued = false;

  int rc = 0;
  bool relock = true;
  if (self->cond_interrupted) {
    // A user signal handler ran via fake call; the wrapper already re-acquired the mutex and
    // the wait terminates (paper: "the mutex is reacquired and the conditional wait
    // terminated").
    relock = false;
    rc = EINTR;
  } else if (self->timed_out) {
    rc = ETIMEDOUT;
  }
  self->cond_mutex = nullptr;

  if (relock) {
    int lock_rc;
    if (m->holder() == self) {
      // An unlocker handed the mutex directly to us while we sat requeued on its wait queue;
      // only the protocol acquisition work remains.
      lock_rc = CompleteHandoff(m, self);
    } else {
      lock_rc = LockInKernel(m, self);
    }
    FSUP_CHECK_MSG(lock_rc == 0, "condwait relock failed");
  }

  // Interruption point on the way out as well; runs with the mutex held, so a cancellation
  // unwinds through cleanup handlers with the mutex in a known (locked) state.
  cancel::TestIntrInKernel();

  kernel::Exit();
  return rc;
}

int CondSignal(Cond* c) {
  kernel::EnsureInit();
  if (c == nullptr || c->magic != kCondMagic) {
    return EINVAL;
  }
  // Signal with no waiters: nothing to wake, nothing to log — return without entering the
  // kernel. Race-free whenever the caller follows the standard's predictable-scheduling rule
  // of signalling with the associated mutex held (a would-be waiter then cannot be between
  // "released the mutex" and "on the queue"); without the mutex, signal/wait ordering is
  // unspecified anyway, so returning "nobody was waiting" remains a correct linearization.
  if (fastpath::Enabled() && c->has_waiters == 0) {
    return 0;
  }
  kernel::Enter();
  Tcb* w = c->waiters.PopHighest();  // longest-waiting thread of the highest priority
  if (c->waiters.empty()) {
    c->has_waiters = 0;
  }
  debug::obs::Emit(debug::obs::Event::kCondSignal, w, w != nullptr ? w->id : 0, c->tag);
  if (w != nullptr) {
    w->cond_signalled = true;
    sig::CancelBlockTimer(w);
    kernel::MakeReady(w);
  }
  kernel::Exit();
  return 0;
}

int CondBroadcast(Cond* c) {
  kernel::EnsureInit();
  if (c == nullptr || c->magic != kCondMagic) {
    return EINVAL;
  }
  // Same no-waiter bypass as CondSignal (see the comment there).
  if (fastpath::Enabled() && c->has_waiters == 0) {
    return 0;
  }
  kernel::Enter();

  // Every waiter would wake only to block on its mutex again, so each goes straight onto its
  // own recorded mutex (the standard leaves waits through different mutexes undefined; each
  // still lands on the one it waited with). The picked waiter goes to the head of its level,
  // so the next handoff of its mutex is its own. It waits as the plain mutex waiter it would
  // have become (no cond_requeued), so its wait returns 0 even if a signal handler interrupts
  // the mutex wait, and its timer goes.
  Tcb* first = c->waiters.PopHighest();
  debug::obs::Emit(debug::obs::Event::kCondSignal, first, first != nullptr ? first->id : 0,
                   c->tag);
  if (first != nullptr) {
    sig::CancelBlockTimer(first);
    ParkOnMutex(first, first->cond_mutex);
    Requeue(first, first->cond_mutex, /*to_head=*/true);
    const uint32_t moved = c->waiters.size();
    for (Tcb* w; (w = c->waiters.PopHighest()) != nullptr;) {
      MarkRequeued(w, w->cond_mutex);
      Requeue(w, w->cond_mutex, /*to_head=*/false);
    }
    if (moved > 0) {
      debug::obs::Emit(debug::obs::Event::kCondRequeue, nullptr, moved, c->tag);
    }
  }
  c->has_waiters = 0;

  kernel::Exit();
  return 0;
}

void RepositionCondWaiter(Cond* c, Tcb* t) { c->waiters.Reposition(t); }

void RemoveCondWaiter(Cond* c, Tcb* t) {
  c->waiters.Erase(t);
  if (c->waiters.empty()) {
    c->has_waiters = 0;
  }
}

}  // namespace fsup::sync
