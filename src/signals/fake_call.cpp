#include "src/signals/fake_call.hpp"

#include <csetjmp>
#include <cerrno>

#include "src/arch/context.hpp"
#include "src/core/api_internal.hpp"
#include "src/debug/obs.hpp"
#include "src/io/io.hpp"
#include "src/signals/sigmodel.hpp"
#include "src/sync/cond.hpp"
#include "src/sync/mutex.hpp"
#include "src/util/assert.hpp"

namespace fsup::sig {
namespace {

FakeRec* AllocRec(Tcb* t) {
  for (FakeRec& r : t->fake_recs) {
    if (!r.in_use) {
      r = FakeRec{};
      r.in_use = true;
      return &r;
    }
  }
  FSUP_CHECK_MSG(false, "too many pending fake calls on one thread");
  return nullptr;
}

// Figure 3 steps 2-6 for one handler run, on the receiving thread outside the kernel: both
// the fake-call wrapper and the self-directed drain end here.
void RunHandler(Tcb* self, FakeRec* rec) {
  const int saved_errno = errno;  // step 2
  if (rec->handler != nullptr) {
    rec->handler(rec->signo);  // step 3
  }
  errno = saved_errno;  // step 4

  kernel::Enter();  // step 5: restore the mask and deliver what it was hiding
  self->sigmask = rec->saved_mask;
  rec->in_use = false;
  CheckPendingAfterUnmask(self);
  kernel::Exit();  // runs any handler the unmask queued for this very thread

  ApplyRedirectIfAny();  // step 6 (redirect case): never returns if one is pending
}

// Wrapper body for a fake call landed on a *suspended* thread. Entered with the kernel still
// held (the dispatcher's switch resumed straight into the doctored frame); must complete the
// kernel exit the dispatcher began, and re-enter before resuming the original frame, which
// lands back inside dispatcher code.
void UserHandlerTramp(void* argp) {
  auto* rec = static_cast<FakeRec*>(argp);
  Tcb* self = kernel::Current();

  kernel::ExitProtocol();

  if (rec->reacquire_mutex != nullptr) {
    // The handler interrupted a conditional wait: re-acquire the mutex, terminating the wait
    // (paper Figure 3 step 1). May block; that is ordinary thread suspension.
    const int rc = sync::MutexLock(rec->reacquire_mutex);
    FSUP_CHECK_MSG(rc == 0, "condwait mutex reacquire failed in fake call");
  }

  RunHandler(self, rec);

  kernel::Enter();
  // Return into fsup_fake_call_cc, which restores the original frame — landing inside the
  // dispatcher (in kernel) at the thread's interruption point.
}

// Fake call used by cancellation: re-acquires a condwait mutex if needed, then exits.
void CancelTramp(void* argp) {
  auto* rec = static_cast<FakeRec*>(argp);

  kernel::ExitProtocol();
  if (rec->reacquire_mutex != nullptr) {
    const int rc = sync::MutexLock(rec->reacquire_mutex);
    FSUP_CHECK_MSG(rc == 0, "cancel mutex reacquire failed");
  }
  rec->in_use = false;
  api::ExitCurrent(kCanceled);
}

// Detaches a blocked thread from its wait queue and pushes the fake frame.
void InstallOnThread(Tcb* t, void (*tramp)(void*), FakeRec* rec) {
  if (t->lazy && api::ActivateLazyInKernel(t) != 0) {
    // The deferred stack cannot be allocated, so there is no frame to doctor. Undo the
    // record and leave the signal pending on the thread: activation re-examines pending
    // signals, so nothing is lost — only delayed, like a masked signal.
    t->sigmask = rec->saved_mask;
    t->pending |= SigBit(rec->signo);
    rec->in_use = false;
    return;
  }
  if (t->state == ThreadState::kBlocked) {
    if (t->block_reason == BlockReason::kCond || t->cond_requeued) {
      // A broadcast may have requeued the thread onto the mutex's wait queue (it blocks with
      // reason kMutex), but the logical wait being interrupted is still the conditional one.
      rec->reacquire_mutex = t->cond_mutex;
      t->cond_interrupted = true;
    }
    DetachFromWaitQueue(t);
    CtxPushFakeCall(t->ctx, tramp, rec);
    kernel::MakeReady(t);
    return;
  }
  // Ready: doctor the saved frame in place; queue position is unchanged.
  FSUP_ASSERT(t->state == ThreadState::kReady);
  CtxPushFakeCall(t->ctx, tramp, rec);
}

}  // namespace

void DetachFromWaitQueue(Tcb* t) {
  switch (t->block_reason) {
    case BlockReason::kMutex:
      FSUP_ASSERT(t->waiting_on_mutex != nullptr);
      sync::RemoveWaiter(t->waiting_on_mutex, t);
      break;
    case BlockReason::kCond:
      FSUP_ASSERT(t->waiting_on_cond != nullptr);
      sync::RemoveCondWaiter(t->waiting_on_cond, t);  // maintains the waiter-presence word
      break;
    case BlockReason::kJoin:
      if (t->join_target != nullptr) {
        t->join_target->joiners.Erase(t);
      }
      break;
    case BlockReason::kIo:
      io::ForgetThread(t);
      break;
    case BlockReason::kSigwait:
    case BlockReason::kDelay:
    case BlockReason::kLazy:
    case BlockReason::kNone:
      break;  // not linked on any queue
  }
  // Once off the queue the thread is no longer a requeued cond waiter: if it blocks on a
  // mutex again (e.g. the fake-call wrapper reacquiring cond_mutex), that is an ordinary
  // mutex wait and a further interruption must not schedule a second reacquisition.
  t->cond_requeued = false;
}

void FakeCallUserHandler(Tcb* t, int signo, const VSigAction& action) {
  FSUP_ASSERT(kernel::InKernel());
  FakeRec* rec = AllocRec(t);
  rec->signo = signo;
  rec->handler = action.handler;
  rec->saved_mask = t->sigmask;
  // During the handler: the sigaction mask plus the delivered signal are blocked.
  t->sigmask |= action.mask | SigBit(signo);
  ++t->signals_taken;
  debug::obs::Emit(debug::obs::Event::kSignal, t, t->id, static_cast<uint32_t>(signo));

  if (t == kernel::Current()) {
    rec->self_direct = true;  // drained by RunSelfHandlers() after kernel exit
    ++t->self_direct_recs;
    return;
  }
  debug::obs::Emit(debug::obs::Event::kFakeCall, t, t->id, static_cast<uint32_t>(signo));
  InstallOnThread(t, &UserHandlerTramp, rec);
}

void FakeCallCancel(Tcb* t) {
  FSUP_ASSERT(kernel::InKernel());
  FSUP_ASSERT(t != kernel::Current());
  FakeRec* rec = AllocRec(t);
  rec->signo = kSigCancel;
  rec->handler = nullptr;
  rec->saved_mask = t->sigmask;
  debug::obs::Emit(debug::obs::Event::kFakeCall, t, t->id, kSigCancel);
  InstallOnThread(t, &CancelTramp, rec);
}

void RunSelfHandlers() {
  Tcb* self = kernel::Current();
  // Reading the count outside the kernel is safe: a signal that queues a record after this
  // check drains it in its own handler's ExitProtocol.
  while (self->self_direct_recs != 0) {
    FakeRec* rec = nullptr;
    kernel::Enter();
    for (FakeRec& r : self->fake_recs) {
      if (r.in_use && r.self_direct) {
        r.self_direct = false;
        --self->self_direct_recs;
        rec = &r;
        break;
      }
    }
    kernel::Exit();
    if (rec == nullptr) {
      return;
    }
    RunHandler(self, rec);
  }
}

void ApplyRedirectIfAny() {
  Tcb* self = kernel::Current();
  if (self->redirect_env == nullptr) {
    return;
  }
  auto* env = static_cast<sigjmp_buf*>(self->redirect_env);
  const int val = self->redirect_val;
  self->redirect_env = nullptr;
  LeaveHandlerFrame(self);  // the jump skips the sigreturn of a handler frame it leaves
  ::siglongjmp(*env, val);
}

}  // namespace fsup::sig

// Landing function for fake-call frames (see arch/context.S). Runs the wrapper, then resumes
// the thread's original saved frame at its interruption point.
extern "C" void fsup_fake_call_cc(void (*fn)(void*), void* arg, void* resume_sp) {
  fn(arg);
  fsup_ctx_restore(resume_sp);
}
