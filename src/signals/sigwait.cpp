// pt_sigwait: synchronous signal consumption (paper delivery model, recipient rule 5 /
// action rule 3 — "sigwait is just another case where the signal is unmasked").

#include <bit>
#include <cerrno>

#include "src/cancel/cancel.hpp"
#include "src/kernel/kernel.hpp"
#include "src/signals/sigmodel.hpp"
#include "src/signals/sigwait.hpp"
#include "src/util/assert.hpp"

namespace fsup::sig {

int SigwaitInternal(SigSet set, int* signo_out, int64_t deadline_ns) {
  kernel::EnsureInit();
  if (set == 0 || signo_out == nullptr || SigIsMember(set, kSigCancel)) {
    return EINVAL;
  }
  KernelState& k = kernel::ks();
  Tcb* self = kernel::Current();

  kernel::Enter();
  cancel::TestIntrInKernel();  // sigwait is an interruption point

  int got = 0;
  for (;;) {
    // Already pending on the thread or the process?
    SigSet avail = self->pending & set;
    if (avail != 0) {
      got = std::countr_zero(avail);
      self->pending &= ~SigBit(got);
      break;
    }
    avail = k.process_pending & set;
    if (avail != 0) {
      got = std::countr_zero(avail);
      k.process_pending &= ~SigBit(got);
      break;
    }

    self->sigwait_set = set;
    self->sigwait_received = 0;
    self->timed_out = false;
    if (deadline_ns >= 0) {
      ArmBlockTimer(self, deadline_ns);
    }
    kernel::Suspend(BlockReason::kSigwait);
    if (deadline_ns >= 0) {
      CancelBlockTimer(self);
    }
    self->sigwait_set = 0;

    if (self->sigwait_received != 0) {
      got = self->sigwait_received;
      self->sigwait_received = 0;
      break;
    }
    if (self->timed_out) {
      kernel::Exit();
      return EAGAIN;
    }
    // Spurious wakeup (a fake call ran some unrelated handler): wait again, but honour any
    // cancellation that arrived in between.
    cancel::TestIntrInKernel();
  }

  // Paper action 3: the signals specified in the call are masked for the thread on return.
  self->sigmask |= set;
  *signo_out = got;
  kernel::Exit();
  return 0;
}

}  // namespace fsup::sig
