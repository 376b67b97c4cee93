#include "src/sched/perverted.hpp"

#include "src/debug/replay.hpp"
#include "src/kernel/kernel.hpp"
#include "src/sync/fastpath.hpp"
#include "src/util/assert.hpp"
#include "src/util/counters.hpp"

namespace fsup::sched {
namespace {

bool g_random_pick_pending = false;

// Parks the current thread at the tail of the lowest occupied priority queue so that *every*
// other ready thread runs before it, and flags a dispatch.
void DemoteCurrent(KernelState& k) {
  Tcb* self = k.current;
  self->state = ThreadState::kReady;
  k.ready.PushBackLowestLevel(self);
  k.dispatch_pending = 1;
  counters::Bump(counters::kKernelForcedSwitches);
}

}  // namespace

void PervertedOnKernelExit() {
  KernelState& k = kernel::ks();
  FSUP_ASSERT(k.in_kernel != 0);
  if (k.current == nullptr || k.current->state != ThreadState::kRunning || k.ready.empty()) {
    return;  // nothing to interleave with
  }
  switch (k.perverted) {
    case PervertedPolicy::kRrOrdered:
      DemoteCurrent(k);
      break;
    case PervertedPolicy::kRandom: {
      // The coin is a recorded decision: a replayed run takes it from the log instead of
      // advancing the live rng, so the same kernel exits force the same switches.
      bool heads;
      if (debug::replay::Replaying()) {
        heads = debug::replay::ReplayRngCoin();
      } else {
        heads = k.rng.NextBool();
        debug::replay::OnRngCoin(heads);
      }
      if (heads) {
        DemoteCurrent(k);
        g_random_pick_pending = true;
      }
      break;
    }
    case PervertedPolicy::kMutexSwitch:
    case PervertedPolicy::kNone:
      break;
  }
}

void PervertedOnMutexLock() {
  KernelState& k = kernel::ks();
  FSUP_ASSERT(k.in_kernel != 0);
  if (k.perverted != PervertedPolicy::kMutexSwitch) {
    return;
  }
  if (k.current == nullptr || k.current->state != ThreadState::kRunning || k.ready.empty()) {
    return;
  }
  // Mutex switch repositions at the tail of the thread's *own* priority queue (unlike the
  // kernel-exit policies, which use the lowest level).
  Tcb* self = k.current;
  self->state = ThreadState::kReady;
  k.ready.PushBack(self);
  k.dispatch_pending = 1;
  counters::Bump(counters::kKernelForcedSwitches);
}

bool ForceSwitchNow() {
  KernelState& k = kernel::ks();
  FSUP_ASSERT(k.in_kernel != 0);
  if (k.current == nullptr || k.current->state != ThreadState::kRunning || k.ready.empty()) {
    return false;  // nothing to interleave with
  }
  DemoteCurrent(k);
  return true;
}

bool TakeRandomPickRequest() {
  const bool take = g_random_pick_pending;
  g_random_pick_pending = false;
  return take;
}

void SetPolicy(PervertedPolicy policy, uint64_t seed) {
  KernelState& k = kernel::ks();
  k.perverted = policy;
  k.rng.Seed(seed);
  g_random_pick_pending = false;
  // Perverted mutex-switch hooks every successful lock: demote (or restore) the sync fast
  // paths that would otherwise bypass the hook.
  sync::fastpath::Recompute();
}

PervertedPolicy Policy() { return kernel::ks().perverted; }

}  // namespace fsup::sched
