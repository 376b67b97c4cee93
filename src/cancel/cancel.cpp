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

// Acts on the cancellation of another thread: disable interruptibility, mask everything,
// fake-call pt_exit (paper: "the interruptibility state of the receiving thread is changed to
// disabled, all other signals are disabled for this thread, and a fake call to pthread_exit
// is pushed"). The running thread acts on its own cancel in TestIntrInKernel instead.
void ActOn(Tcb* t) {
  debug::obs::Emit(debug::obs::Event::kCancel, t, t->id, 1);
  t->intr_enabled = false;
  t->sigmask = kSigSetAll;
  t->pending &= ~SigBit(kSigCancel);
  sig::FakeCallCancel(t);
}

}  // namespace

void CancelAction(Tcb* t) {
  FSUP_ASSERT(kernel::InKernel());
  // A cancel aimed at the running thread pends; the entry point that sent it acts on it
  // before leaving the kernel if the thread is asynchronous.
  const bool self = t == kernel::Current();
  switch (t->interruptibility()) {
    case Interruptibility::kDisabled:
      debug::obs::Emit(debug::obs::Event::kCancel, t, t->id, 0);
      break;  // Table 1 row 1: pends until enabled
    case Interruptibility::kControlled:
      if (!self && t->state == ThreadState::kBlocked && IsInterruptionPoint(t->block_reason)) {
        ActOn(t);  // suspended *at* an interruption point: the point is reached
        return;
      }
      break;  // Table 1 row 2: pends until a point is reached
    case Interruptibility::kAsynchronous:
      if (!self) {
        ActOn(t);  // Table 1 row 3: acted upon immediately
        return;
      }
      debug::obs::Emit(debug::obs::Event::kCancel, t, t->id, 1);
      break;
  }
  t->pending |= SigBit(kSigCancel);
}

void RequestInKernel(Tcb* t) { sig::DeliverToThread(t, kSigCancel); }

void TestIntrInKernel() {
  Tcb* self = kernel::Current();
  if (!self->intr_enabled || (self->pending & SigBit(kSigCancel)) == 0) {
    return;
  }
  self->pending &= ~SigBit(kSigCancel);
  self->intr_enabled = false;
  self->sigmask = kSigSetAll;
  kernel::ExitProtocol();
  api::ExitCurrent(kCanceled);
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
  if (self->intr_async) {
    TestIntrInKernel();  // enabling an asynchronous thread acts on a pending cancel
  }
  kernel::Exit();
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
  if (asynchronous) {
    TestIntrInKernel();  // going asynchronous acts on a pending, enabled cancel
  }
  kernel::Exit();
  return 0;
}

}  // namespace fsup::cancel
