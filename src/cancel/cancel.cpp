#include "src/cancel/cancel.hpp"

#include <cerrno>

#include "src/core/api_internal.hpp"
#include "src/debug/obs.hpp"
#include "src/kernel/kernel.hpp"
#include "src/signals/fake_call.hpp"
#include "src/signals/sigmodel.hpp"
#include "src/util/assert.hpp"

namespace fsup::cancel {
namespace {

// Set when the *current* thread must cancel itself: a running thread cannot receive a fake
// call, so the public API wrapper completes the act after leaving the kernel.
bool g_self_cancel = false;

bool IsInterruptionPoint(BlockReason r) {
  switch (r) {
    case BlockReason::kCond:
    case BlockReason::kSigwait:
    case BlockReason::kDelay:
    case BlockReason::kJoin:
    case BlockReason::kIo:
      return true;
    case BlockReason::kMutex:  // explicitly NOT an interruption point (paper: deterministic
                               // mutex state for cleanup handlers)
    case BlockReason::kLazy:
    case BlockReason::kNone:
      return false;
  }
  return false;
}

// Acts on the cancellation: disable interruptibility, mask everything, fake-call pt_exit
// (paper: "the interruptibility state of the receiving thread is changed to disabled, all
// other signals are disabled for this thread, and a fake call to pthread_exit is pushed").
void ActOn(Tcb* t) {
  debug::obs::Emit(debug::obs::Event::kCancel, t, t->id, 1);
  t->intr_enabled = false;
  sig::NoteSigmaskSet(t, kSigSetAll);
  t->pending &= ~SigBit(kSigCancel);
  if (t == kernel::Current()) {
    g_self_cancel = true;
    return;
  }
  sig::FakeCallCancel(t);
}

}  // namespace

void CancelAction(Tcb* t) {
  FSUP_ASSERT(kernel::InKernel());
  switch (t->interruptibility()) {
    case Interruptibility::kDisabled:
      debug::obs::Emit(debug::obs::Event::kCancel, t, t->id, 0);
      t->pending |= SigBit(kSigCancel);  // Table 1 row 1: pends until enabled
      return;
    case Interruptibility::kControlled:
      if (t != kernel::Current() && t->state == ThreadState::kBlocked &&
          IsInterruptionPoint(t->block_reason)) {
        ActOn(t);  // suspended *at* an interruption point: the point is reached
      } else {
        t->pending |= SigBit(kSigCancel);  // Table 1 row 2: pends until a point is reached
      }
      return;
    case Interruptibility::kAsynchronous:
      ActOn(t);  // Table 1 row 3: acted upon immediately
      return;
  }
}

void RequestInKernel(Tcb* t) { sig::DeliverToThread(t, kSigCancel); }

void TestIntrInKernel() {
  Tcb* self = kernel::Current();
  if (!self->intr_enabled || (self->pending & SigBit(kSigCancel)) == 0) {
    return;
  }
  self->pending &= ~SigBit(kSigCancel);
  self->intr_enabled = false;
  sig::NoteSigmaskSet(self, kSigSetAll);
  kernel::ExitProtocol();
  api::ExitCurrent(kCanceled);
}

bool TakeSelfCancel() {
  const bool take = g_self_cancel;
  g_self_cancel = false;
  return take;
}

int SetInterruptibility(bool enabled, Interruptibility* old_state) {
  kernel::EnsureInit();
  kernel::Enter();
  Tcb* self = kernel::Current();
  if (old_state != nullptr) {
    *old_state = self->intr_enabled ? Interruptibility::kControlled
                                    : Interruptibility::kDisabled;
  }
  self->intr_enabled = enabled;
  if (enabled && self->intr_async && (self->pending & SigBit(kSigCancel)) != 0) {
    ActOn(self);
  }
  kernel::Exit();
  if (TakeSelfCancel()) {
    api::ExitCurrent(kCanceled);
  }
  return 0;
}

int SetInterruptType(bool asynchronous, Interruptibility* old_state) {
  kernel::EnsureInit();
  kernel::Enter();
  Tcb* self = kernel::Current();
  if (old_state != nullptr) {
    *old_state = self->intr_async ? Interruptibility::kAsynchronous
                                  : Interruptibility::kControlled;
  }
  self->intr_async = asynchronous;
  if (asynchronous && self->intr_enabled && (self->pending & SigBit(kSigCancel)) != 0) {
    ActOn(self);
  }
  kernel::Exit();
  if (TakeSelfCancel()) {
    api::ExitCurrent(kCanceled);
  }
  return 0;
}

}  // namespace fsup::cancel
