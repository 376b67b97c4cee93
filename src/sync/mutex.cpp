#include "src/sync/mutex.hpp"

#include <cerrno>
#include <new>
#include "src/sched/perverted.hpp"

#include "src/arch/ras.hpp"
#include "src/debug/obs.hpp"
#include "src/kernel/kernel.hpp"
#include "src/sched/policy.hpp"
#include "src/sync/fastpath.hpp"
#include "src/sync/tag.hpp"
#include "src/util/assert.hpp"

namespace fsup::sync {
namespace {

// Whether one operation on one mutex may bypass the kernel: the global fast-path byte says go
// AND the mutex is eligible. Protocol mutexes must enter the kernel (they manipulate
// priorities), and so do the error-check/recursive types (per-acquisition bookkeeping) —
// both folded into the per-mutex fast_ok byte at init. Observability demotions — the trace and
// metrics observers want every lock/unlock event, perverted mutex-switch hooks every lock —
// are folded into the global byte (see fastpath.hpp). The whole gate is two byte loads.
inline bool FastPathOk(const Mutex* m) { return fastpath::Enabled() && m->fast_ok != 0; }

inline void* volatile* OwnerWord(Mutex* m) {
  return reinterpret_cast<void* volatile*>(&m->owner);
}

// The paper's restartable sequence: its committing store acquires the lock AND publishes the
// holder in one instruction.
inline bool TryAcquireFast(Mutex* m, Tcb* self) {
  return fsup_ras_owner_lock(OwnerWord(m), self) == nullptr;
}

void AddToOwnedList(Mutex* m, Tcb* t) {
  FSUP_ASSERT(!m->in_owned_list);
  m->next_owned = t->owned_head;
  t->owned_head = m;
  m->in_owned_list = true;
}

void RemoveFromOwnedList(Mutex* m, Tcb* t) {
  Mutex** pp = &t->owned_head;
  while (*pp != nullptr) {
    if (*pp == m) {
      *pp = m->next_owned;
      m->next_owned = nullptr;
      m->in_owned_list = false;
      return;
    }
    pp = &(*pp)->next_owned;
  }
  FSUP_CHECK_MSG(false, "mutex missing from owner's held list");
}

// Protocol work on acquisition. In kernel (or uncontended NONE path, which has no work).
int OnAcquired(Mutex* m, Tcb* self) {
  switch (m->proto) {
    case MutexProtocol::kNone:
      break;
    case MutexProtocol::kInherit:
      AddToOwnedList(m, self);
      break;
    case MutexProtocol::kProtect: {
      if (self->base_prio > m->ceiling) {
        debug::obs::Emit(debug::obs::Event::kLockFailed, self, self->id, m->tag);
        return EINVAL;  // ceiling below a locker's priority: the paper says "undefined"
      }
      // SRP: push the previous priority and raise to the ceiling immediately on acquire.
      FSUP_CHECK_MSG(self->srp_depth < kMaxCeilDepth, "ceiling mutexes nested too deeply");
      self->srp_stack[self->srp_depth++] = self->prio;
      if (m->ceiling > self->prio) {
        debug::obs::Emit(debug::obs::Event::kPrioBoost, self, self->id,
                         static_cast<uint32_t>(m->ceiling));
        sched::ApplyPriority(self, m->ceiling, /*to_head=*/true);
      }
      break;
    }
  }
  debug::obs::Emit(debug::obs::Event::kMutexLock, self, self->id, m->tag, m->tag_gen);
  return 0;
}

}  // namespace

int MutexInit(Mutex* m, const MutexAttr* attr) {
  kernel::EnsureInit();
  if (m == nullptr) {
    return EINVAL;
  }
  MutexAttr defaults;
  const MutexAttr& a = attr != nullptr ? *attr : defaults;
  if (a.ceiling < kMinPrio || a.ceiling > kMaxPrio) {
    return EINVAL;
  }
  new (m) Mutex();
  m->magic = kMutexMagic;
  m->proto = a.protocol;
  m->type = a.type;
  m->fast_ok =
      a.protocol == MutexProtocol::kNone && a.type == MutexType::kNormal ? 1 : 0;
  m->ceiling = static_cast<int16_t>(a.ceiling);
  m->tag = NextSyncTag();
  m->tag_gen = SyncTagGeneration();
  return 0;
}

int MutexDestroy(Mutex* m) {
  kernel::EnsureInit();  // destroy can legitimately be the first library call — see CondDestroy
  if (m == nullptr || m->magic != kMutexMagic) {
    return EINVAL;
  }
  kernel::Enter();
  if (m->owner != nullptr || !m->waiters.empty()) {
    kernel::Exit();
    return EBUSY;
  }
  m->magic = 0;
  kernel::Exit();
  return 0;
}

void InsertWaiter(Mutex* m, Tcb* t) {
  m->has_waiters = 1;
  m->waiters.Push(t);
}

void RepositionWaiter(Mutex* m, Tcb* t) { m->waiters.Reposition(t); }

void RemoveWaiter(Mutex* m, Tcb* t) {
  m->waiters.Erase(t);
  if (m->waiters.empty()) {
    m->has_waiters = 0;
  }
}

int MaxWaiterPrio(const Mutex* m) { return m->waiters.TopPrio(); }

int CompleteHandoff(Mutex* m, Tcb* self) {
  FSUP_ASSERT(kernel::InKernel());
  FSUP_ASSERT(m->holder() == self);
  return OnAcquired(m, self);
}

bool WouldDeadlock(const Mutex* m, const Tcb* self) {
  FSUP_ASSERT(kernel::InKernel());
  // The monitor freezes the whole graph, so a plain walk is race-free. The hop budget
  // (#live threads) terminates the walk even on a cycle that does not pass through self —
  // that cycle is someone else's EDEADLK, already returned to them when it formed.
  //
  // `owner` is accurate even for mutexes acquired on the fast path (the acquiring store IS
  // the lock word) and nullptr the moment a fast unlock releases one, so no stale edge can
  // be followed here.
  uint32_t hops = kernel::ks().live_threads;
  const Tcb* owner = m->holder();
  while (owner != nullptr && hops-- > 0) {
    if (owner == self) {
      return true;
    }
    // Follow the wait-for edge only while the owner is truly blocked on a mutex. A thread
    // that received a direct handoff but has not run yet is READY with a stale
    // waiting_on_mutex still naming the mutex it now owns — following it would spin on that
    // one-node cycle for the whole hop budget on every contended lock.
    if (owner->state != ThreadState::kBlocked ||
        owner->block_reason != BlockReason::kMutex || owner->waiting_on_mutex == nullptr) {
      return false;  // the chain ends at a runnable (or differently blocked) thread
    }
    owner = owner->waiting_on_mutex->holder();
  }
  return false;
}

int LockInKernel(Mutex* m, Tcb* self) {
  FSUP_ASSERT(kernel::InKernel());
  if (m->owner == self) {
    if (m->type == MutexType::kRecursive) {
      ++m->recursion;
      debug::obs::Emit(debug::obs::Event::kMutexLock, self, self->id, m->tag, m->tag_gen);
      return 0;
    }
    return EDEADLK;
  }
  while (m->owner != nullptr) {
    if (m->owner == self) {
      // Direct handoff from an unlocker; the owner word never dropped to nullptr.
      return OnAcquired(m, self);
    }
    // Walk the wait-for graph before blocking: if the owner chain leads back to us, waiting
    // would wedge every thread on the cycle forever — EDEADLK now, while the caller can
    // still release what it holds. Re-checked on every loop iteration because a spurious
    // wakeup re-contends against a possibly different owner.
    if (WouldDeadlock(m, self)) {
      debug::obs::Emit(debug::obs::Event::kDeadlock, self, self->id, m->tag);
      return EDEADLK;
    }
    ++m->contended_acquires;
    debug::obs::Emit(debug::obs::Event::kMutexBlock, self, self->id, m->tag);
    if (m->proto == MutexProtocol::kInherit && m->owner != nullptr &&
        m->owner->prio < self->prio) {
      sched::BoostChain(m->owner, self->prio);
    }
    InsertWaiter(m, self);
    self->waiting_on_mutex = m;
    kernel::Suspend(BlockReason::kMutex);
    self->waiting_on_mutex = nullptr;
    // Re-check: handoff made us owner, or a fake call woke us spuriously and we re-contend.
  }
  m->owner = self;
  return OnAcquired(m, self);
}

void UnlockInKernel(Mutex* m, Tcb* self) {
  FSUP_ASSERT(kernel::InKernel());
  FSUP_ASSERT(m->holder() == self);
  if (m->recursion > 0) {
    // A recursive re-entry being balanced: the mutex stays held, so no protocol restore, no
    // hold-interval close, no handoff.
    --m->recursion;
    debug::obs::Emit(debug::obs::Event::kMutexUnlock, self, self->id, m->tag, m->tag_gen);
    return;
  }
  debug::obs::Emit(debug::obs::Event::kMutexUnlock, self, self->id, m->tag, m->tag_gen);

  // Protocol: lower the priority on unlock.
  switch (m->proto) {
    case MutexProtocol::kNone:
      break;
    case MutexProtocol::kInherit: {
      RemoveFromOwnedList(m, self);
      // Linear search over the mutexes still held: the new priority is the max of the base
      // priority and every remaining contender's priority (paper Table 3).
      int new_prio = self->base_prio;
      for (Mutex* held = self->owned_head; held != nullptr; held = held->next_owned) {
        const int w = MaxWaiterPrio(held);
        if (w > new_prio) {
          new_prio = w;
        }
      }
      if (new_prio != self->prio) {
        debug::obs::Emit(debug::obs::Event::kPrioRestore, self, self->id,
                         static_cast<uint32_t>(new_prio));
        sched::ApplyPriority(self, new_prio, /*to_head=*/true);
      }
      break;
    }
    case MutexProtocol::kProtect: {
      FSUP_CHECK_MSG(self->srp_depth > 0, "ceiling unlock without matching lock");
      int restored = self->srp_stack[--self->srp_depth];
      // Mixing rule (paper Table 4): a pure stack restore would drop an inheritance boost
      // acquired *while* the ceiling was held, reintroducing unbounded inversion. "The linear
      // search of the inheritance protocol would determine the correct priority for the
      // ceiling protocol as well if the protocols were mixed" — so take the max over the
      // still-held inheritance mutexes' contenders.
      for (Mutex* held = self->owned_head; held != nullptr; held = held->next_owned) {
        const int w = MaxWaiterPrio(held);
        if (w > restored) {
          restored = w;
        }
      }
      if (restored != self->prio) {
        debug::obs::Emit(debug::obs::Event::kPrioRestore, self, self->id,
                         static_cast<uint32_t>(restored));
        // Head placement: the thread was forced into the boost, so it must not lose its turn
        // when the boost ends (paper, discussion of lowering on unlock).
        sched::ApplyPriority(self, restored, /*to_head=*/true);
      }
      break;
    }
  }

  Tcb* next = m->waiters.PopHighest();
  if (next == nullptr) {
    m->has_waiters = 0;
    m->owner = nullptr;
    return;
  }
  if (m->waiters.empty()) {
    m->has_waiters = 0;
  }
  // Handoff: ownership passes directly (the owner word never drops to nullptr, so no barging
  // window opens — not even for fast-path lockers); the waiter completes OnAcquired when it
  // runs.
  m->owner = next;
  kernel::MakeReady(next);
}

int MutexLock(Mutex* m) {
  kernel::EnsureInit();
  if (m == nullptr || m->magic != kMutexMagic) {
    return EINVAL;
  }
  Tcb* self = kernel::Current();
  if (m->owner == self && m->type != MutexType::kRecursive) {
    // Error detection without kernel entry: owner can only equal self by our own doing, and
    // only we can clear it — the comparison is race-free in user context.
    return EDEADLK;
  }
  if (FastPathOk(m) && TryAcquireFast(m, self)) {
    return 0;  // the committing store published us as owner; no kernel entry
  }
  kernel::Enter();
  const int rc = LockInKernel(m, self);
  if (rc == 0) {
    sched::PervertedOnMutexLock();
  }
  kernel::Exit();
  return rc;
}

int MutexTrylock(Mutex* m) {
  kernel::EnsureInit();
  if (m == nullptr || m->magic != kMutexMagic) {
    return EINVAL;
  }
  Tcb* self = kernel::Current();
  if (m->owner == self && m->type != MutexType::kRecursive) {
    return EDEADLK;
  }
  if (FastPathOk(m)) {
    // EBUSY is decided by the same atomic acquire the lock path uses — still no kernel entry.
    return TryAcquireFast(m, self) ? 0 : EBUSY;
  }
  kernel::Enter();
  int rc;
  if (m->owner == self) {
    FSUP_ASSERT(m->type == MutexType::kRecursive);
    ++m->recursion;
    debug::obs::Emit(debug::obs::Event::kMutexLock, self, self->id, m->tag, m->tag_gen);
    rc = 0;
  } else if (m->owner != nullptr) {
    rc = EBUSY;
  } else {
    m->owner = self;
    rc = OnAcquired(m, self);
  }
  if (rc == 0) {
    sched::PervertedOnMutexLock();
  }
  kernel::Exit();
  return rc;
}

int MutexUnlock(Mutex* m) {
  kernel::EnsureInit();
  if (m == nullptr || m->magic != kMutexMagic) {
    return EINVAL;
  }
  Tcb* self = kernel::Current();
  if (m->owner != self) {
    return EPERM;  // race-free in user context for the same reason as the EDEADLK check
  }
  if (FastPathOk(m)) {
    // Restartable sequence: releases only if no waiter is queued; a waiter enqueued by a
    // preempting signal handler forces the restart down the kernel handoff path.
    if (fsup_ras_owner_unlock(OwnerWord(m), &m->has_waiters) == 0) {
      return 0;
    }
  }
  kernel::Enter();
  UnlockInKernel(m, self);
  kernel::Exit();
  return 0;
}

int MutexSetCeiling(Mutex* m, int ceiling, int* old_ceiling) {
  kernel::EnsureInit();  // every public entry point initializes; Enter() relies on it
  if (m == nullptr || m->magic != kMutexMagic || m->proto != MutexProtocol::kProtect ||
      ceiling < kMinPrio || ceiling > kMaxPrio) {
    return EINVAL;
  }
  kernel::Enter();
  if (old_ceiling != nullptr) {
    *old_ceiling = m->ceiling;
  }
  m->ceiling = static_cast<int16_t>(ceiling);
  kernel::Exit();
  return 0;
}

}  // namespace fsup::sync
