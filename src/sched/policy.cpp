#include "src/sched/policy.hpp"

#include <algorithm>

#include "src/debug/obs.hpp"
#include "src/kernel/kernel.hpp"
#include "src/sync/cond.hpp"
#include "src/sync/mutex.hpp"
#include "src/util/assert.hpp"

namespace fsup::sched {
namespace {

// Sets t's current priority and keeps the queue t sits on consistent with it.
void ApplyPriority(Tcb* t, int new_prio, bool to_head) {
  KernelState& k = kernel::ks();
  FSUP_ASSERT(k.in_kernel != 0);
  FSUP_ASSERT(new_prio >= kMinPrio && new_prio <= kMaxPrio);
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

// The rule (policy.hpp). The ceilings are one lookup in the held-ceiling multiset; the
// inheritance term is the paper's linear search of the held inheritance mutexes.
int DerivedPrio(const Tcb* t) {
  int prio = std::max(t->base_prio, t->held_ceilings.Top());
  for (const Mutex* m = t->owned_head; m != nullptr; m = m->next_owned) {
    prio = std::max(prio, sync::MaxWaiterPrio(m));
  }
  return prio;
}

}  // namespace

void Recompute(Tcb* t, bool to_head) {
  FSUP_ASSERT(kernel::InKernel());
  for (int hops = 0; t != nullptr && hops < 64; ++hops) {
    const int prio = DerivedPrio(t);
    if (prio == t->prio) {
      return;
    }
    debug::obs::Emit(prio > t->prio ? debug::obs::Event::kPrioBoost
                                    : debug::obs::Event::kPrioRestore,
                     t, t->id, static_cast<uint32_t>(prio));
    ApplyPriority(t, prio, to_head);
    // t is a waiter of the inheritance mutex it blocks on: its holder's input just changed.
    if (t->state != ThreadState::kBlocked || t->block_reason != BlockReason::kMutex ||
        t->waiting_on_mutex == nullptr ||
        t->waiting_on_mutex->proto != MutexProtocol::kInherit) {
      return;
    }
    t = t->waiting_on_mutex->owner;  // the owner word IS the lock state (nullptr = unlocked)
    to_head = true;
  }
}

}  // namespace fsup::sched
