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
void ParkOnMutex(Cond* c, Tcb* w, Mutex* m) {
  ++c->signals_sent;
  w->cond_signalled = true;  // the broadcast reached it; it returns once it re-holds m
  w->waiting_on_cond = nullptr;
  w->waiting_on_mutex = m;
  w->block_reason = BlockReason::kMutex;
}

// One of the rest a broadcast requeues. The cond_requeued flag preserves the logical
// conditional-wait identity for interruption and cancellation; an armed timeout timer stays
// armed (expiry converts to a normal mutex-wake that returns ETIMEDOUT after reacquisition).
void MarkRequeued(Cond* c, Tcb* w, Mutex* m) {
  ParkOnMutex(c, w, m);
  w->cond_requeued = true;
}

// A broadcast may requeue waiters onto a mutex nobody holds. Waiters queued on an unlocked
// mutex are only ever popped by an unlock — if no thread locks it again, the queue is
// orphaned and the waiters hang until the idle loop's deadlock abort. Do what UnlockInKernel
// would have done: hand the mutex to the top waiter immediately (the woken thread finds
// holder() == self in CondWait and runs CompleteHandoff). Callers skip this when the first
// woken waiter contends for the same mutex — it is awake and will lock and later unlock it,
// draining the queue through the normal handoff path with its priority claim intact.
void HandoffIfUnlocked(Mutex* m) {
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
    ++c->signals_sent;
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

  // The highest-priority, longest-waiting waiter goes first.
  Tcb* first = c->waiters.PopHighest();
  if (c->waiters.empty()) {
    c->has_waiters = 0;
  }
  debug::obs::Emit(debug::obs::Event::kCondSignal, first, first != nullptr ? first->id : 0,
                   c->tag);
  if (first == nullptr) {
    kernel::Exit();
    return 0;
  }
  Mutex* const first_m = first->cond_mutex;

  // Requeue the rest: every remaining waiter would wake only to re-block on its mutex, so
  // move it there directly — no context switches, no thundering herd. The standard leaves
  // concurrent waits through different mutexes undefined; we still handle them by requeueing
  // each waiter onto its own recorded mutex (the uniform case moves whole priority levels
  // with pointer splices).
  if (!c->waiters.empty()) {
    Mutex* target = nullptr;
    bool uniform = true;
    c->waiters.ForEach([&](Tcb* w) {
      if (target == nullptr) {
        target = w->cond_mutex;
      } else if (w->cond_mutex != target) {
        uniform = false;
      }
    });
    const uint32_t moved = c->waiters.size();
    if (uniform) {
      c->waiters.SpliceAllOnto(target->waiters,
                               [&](Tcb* w) { MarkRequeued(c, w, target); });
      target->has_waiters = 1;
      WaitersChanged(target);
      if (first_m != target) {
        HandoffIfUnlocked(target);
      }
    } else {
      Tcb* w;
      while ((w = c->waiters.PopHighest()) != nullptr) {
        Mutex* m = w->cond_mutex;
        MarkRequeued(c, w, m);
        InsertWaiter(m, w);
        if (first_m != m) {
          HandoffIfUnlocked(m);
        }
      }
    }
    c->has_waiters = 0;  // the requeue drained the condition queue completely
    debug::obs::Emit(debug::obs::Event::kCondRequeue, nullptr, moved, c->tag);
  }

  // Woken while its mutex is held, the picked waiter would run only to block on it again
  // (behind the rest just requeued, or at once if it outranks the holder). Queue it at the
  // head of its level instead: the unlock's handoff makes it owner, one switch-in in all.
  // It waits as the plain mutex waiter it would have become (no cond_requeued), so its wait
  // returns 0 even if a signal handler interrupts the mutex wait; its timer goes either way.
  sig::CancelBlockTimer(first);
  if (first_m->owner != nullptr) {
    ParkOnMutex(c, first, first_m);
    InsertWaiter(first_m, first, /*to_head=*/true);
  } else {
    ++c->signals_sent;
    first->cond_signalled = true;
    kernel::MakeReady(first);
  }

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
