#include "src/sched/policy.hpp"

#include "src/debug/obs.hpp"
#include "src/kernel/kernel.hpp"
#include "src/sync/cond.hpp"
#include "src/sync/mutex.hpp"
#include "src/util/assert.hpp"

namespace fsup::sched {

void ApplyPriority(Tcb* t, int new_prio, bool to_head) {
  KernelState& k = kernel::ks();
  FSUP_ASSERT(k.in_kernel != 0);
  FSUP_ASSERT(new_prio >= kMinPrio && new_prio <= kMaxPrio);
  if (new_prio == t->prio) {
    return;
  }
  t->prio = new_prio;
  switch (t->state) {
    case ThreadState::kRunning:
      // A lowered running thread keeps the CPU unless a strictly higher-priority thread is
      // ready (head placement in spirit: it is not penalized for a boost it did not choose).
      if (k.ready.TopPrio() > new_prio) {
        k.dispatch_pending = 1;
      }
      break;
    case ThreadState::kReady:
      k.ready.Erase(t);
      if (to_head) {
        k.ready.PushFront(t);
      } else {
        k.ready.PushBack(t);
      }
      if (k.current != nullptr && new_prio > k.current->prio) {
        k.dispatch_pending = 1;
      }
      break;
    case ThreadState::kBlocked:
      // Keep priority-ordered wait queues sorted.
      if (t->block_reason == BlockReason::kMutex && t->waiting_on_mutex != nullptr) {
        sync::RepositionWaiter(t->waiting_on_mutex, t);
      } else if (t->block_reason == BlockReason::kCond && t->waiting_on_cond != nullptr) {
        sync::RepositionCondWaiter(t->waiting_on_cond, t);
      }
      break;
    case ThreadState::kTerminated:
      break;
  }
}

void BoostChain(Tcb* holder, int prio) {
  // Transitive priority inheritance: a boosted holder that is itself blocked on another
  // inheritance mutex passes the boost on. Depth-bounded against cyclic lock graphs (which
  // are application deadlocks, found by the deadlock detector, not here).
  int depth = 0;
  while (holder != nullptr && holder->prio < prio && depth++ < 64) {
    debug::obs::Emit(debug::obs::Event::kPrioBoost, holder, holder->id,
                     static_cast<uint32_t>(prio));
    ApplyPriority(holder, prio, /*to_head=*/true);
    if (holder->state == ThreadState::kBlocked &&
        holder->block_reason == BlockReason::kMutex && holder->waiting_on_mutex != nullptr &&
        holder->waiting_on_mutex->proto == MutexProtocol::kInherit) {
      Mutex* m = holder->waiting_on_mutex;
      holder = m->owner;  // the owner word IS the lock state (nullptr = unlocked)
    } else {
      break;
    }
  }
}

void SetBasePriority(Tcb* t, int prio) {
  FSUP_ASSERT(kernel::InKernel());
  t->base_prio = prio;
  // The current priority follows the base unless a protocol boost holds it higher.
  int effective = prio;
  for (Mutex* m = t->owned_head; m != nullptr; m = m->next_owned) {
    const int w = sync::MaxWaiterPrio(m);
    if (w > effective) {
      effective = w;
    }
  }
  if (t->srp_depth > 0 && t->prio > effective) {
    effective = t->prio;  // keep an active ceiling boost
  }
  ApplyPriority(t, effective, /*to_head=*/false);
}

}  // namespace fsup::sched
