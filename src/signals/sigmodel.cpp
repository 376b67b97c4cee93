#include "src/signals/sigmodel.hpp"

#include <bit>
#include <unistd.h>

#include "src/cancel/cancel.hpp"
#include "src/debug/obs.hpp"
#include "src/debug/replay.hpp"
#include "src/debug/trace.hpp"
#include "src/hostos/unix_if.hpp"
#include "src/signals/fake_call.hpp"
#include "src/util/assert.hpp"

namespace fsup::sig {
namespace {

// Signals whose default UNIX disposition is "ignore" — the model's action 6 applies even with
// no explicit "ignore" disposition registered.
constexpr SigSet kDefaultIgnored =
    SigBit(SIGCHLD) | SigBit(SIGURG) | SigBit(SIGWINCH) | SigBit(SIGCONT);

// Effective blocked set: a thread suspended in sigwait counts as having its sigwait set
// unmasked (paper: "sigwait is just another case where the signal is unmasked").
SigSet EffectiveMask(const Tcb* t) { return t->sigmask & ~t->sigwait_set; }

int LowestSignal(SigSet set) { return std::countr_zero(set); }

// Performs the UNIX default action for signo on the whole process (action step 7): reset the
// OS disposition, unblock, re-raise. If the process survives (stop/continue signals), the
// universal handler is reinstalled.
void DefaultActionOnProcess(int signo) {
  if (signo > 31) {
    // Virtual-only signal with default disposition: treat as fatal to match UNIX semantics.
    FatalError("unhandled virtual signal with default action", __FILE__, __LINE__);
  }
  struct sigaction dfl{};
  dfl.sa_handler = SIG_DFL;
  ::sigemptyset(&dfl.sa_mask);
  hostos::Sigaction(signo, &dfl, nullptr);

  sigset_t just;
  ::sigemptyset(&just);
  ::sigaddset(&just, signo);
  hostos::Sigprocmask(SIG_UNBLOCK, &just, nullptr);
  hostos::Kill(::getpid(), signo);
  // Fatal signals do not return. Stop signals resume here on SIGCONT:
  InstallOsHandlers();
}

}  // namespace

void DeliverToThread(Tcb* t, int signo) {
  FSUP_ASSERT(kernel::InKernel());
  FSUP_ASSERT(signo > 0 && signo <= kMaxSignal);
  KernelState& k = kernel::ks();
  const SigSet bit = SigBit(signo);

  // Action 1: the thread masks the signal — pend it on the thread.
  if ((EffectiveMask(t) & bit) != 0) {
    t->pending |= bit;
    return;
  }

  // Action 2 (alarm caused by a timer expiration) is taken on the timer paths directly — see
  // OnTimerTick(): sleepers become ready; a slice expiry repositions the running thread at
  // the tail of its ready queue.

  // Action 3: the thread is suspended in sigwait and the signal is in its wait set.
  if (t->state == ThreadState::kBlocked && t->block_reason == BlockReason::kSigwait &&
      (t->sigwait_set & bit) != 0) {
    t->sigwait_received = signo;
    kernel::MakeReady(t);
    return;
  }

  // Action 4: a user handler is registered — install a fake call at the thread's priority.
  const VSigAction& a = k.actions[signo];
  if (signo != kSigCancel && a.installed && a.handler != nullptr) {
    FakeCallUserHandler(t, signo, a);
    return;
  }

  // Action 5: the cancellation signal.
  if (signo == kSigCancel) {
    cancel::CancelAction(t);
    return;
  }

  // Action 6: disposition is "ignore".
  if ((a.installed && a.ignore) || (!a.installed && (kDefaultIgnored & bit) != 0)) {
    return;
  }

  // Action 7: default action on the process.
  DefaultActionOnProcess(signo);
}

void DeliverToProcess(int signo) {
  FSUP_ASSERT(kernel::InKernel());
  KernelState& k = kernel::ks();
  const SigSet bit = SigBit(signo);

  // Step 5: the first live thread with the signal unmasked. With no thread masking anything
  // the first live thread (almost always main, at the head of the list) is the answer, so
  // the search probes one mask.
  for (Tcb* t : k.all_threads) {
    if (t->state != ThreadState::kTerminated && (EffectiveMask(t) & bit) == 0) {
      DeliverToThread(t, signo);
      return;
    }
  }

  // Step 6: pend the signal at the process level until a thread becomes eligible.
  k.process_pending |= bit;
}

void CheckPendingAfterUnmask(Tcb* t) {
  FSUP_ASSERT(kernel::InKernel());
  KernelState& k = kernel::ks();
  for (;;) {
    // A pending cancel is not a deliverable signal: interruption points and interruptibility
    // changes act on it (cancel.hpp). Redelivering it would only pend it again, forever.
    SigSet deliverable = t->pending & ~EffectiveMask(t) & ~SigBit(kSigCancel);
    if (deliverable != 0) {
      const int s = LowestSignal(deliverable);
      t->pending &= ~SigBit(s);
      DeliverToThread(t, s);
      continue;
    }
    deliverable = k.process_pending & ~EffectiveMask(t);
    if (deliverable != 0) {
      const int s = LowestSignal(deliverable);
      k.process_pending &= ~SigBit(s);
      DeliverToThread(t, s);
      continue;
    }
    return;
  }
}

void DeliverAsync(int signo, debug::replay::AsyncSite site) {
  if (signo == SIGALRM) {
    OnTimerTick(site);
    return;
  }
  // An asynchronous process-level signal is a scheduling decision: its arrival point is
  // recorded, and a replayed run refires it from the log at the same decision index and site.
  debug::obs::Emit(debug::obs::Event::kExtSignal, nullptr, static_cast<uint32_t>(signo),
                   static_cast<uint32_t>(site));
  DeliverToProcess(signo);
}

void HandleDeferred(SigSet set) {
  FSUP_ASSERT(kernel::InKernel());
  while (set != 0) {
    const int s = LowestSignal(set);
    set &= ~SigBit(s);
    DeliverAsync(s, debug::replay::AsyncSite::kInDispatcher);
  }
}

bool ExternalWakeupPossible() {
  // Read only on an idle pass with no timer deadline and no I/O waiter, which sleeps anyway;
  // the thread walk runs only when no user handler is installed.
  KernelState& k = kernel::ks();
  for (const VSigAction& a : k.actions) {
    if (a.installed && a.handler != nullptr) {
      return true;
    }
  }
  for (const Tcb* t : k.all_threads) {
    if (t->state == ThreadState::kBlocked && t->block_reason == BlockReason::kSigwait) {
      return true;
    }
  }
  return false;
}

void LeaveHandlerFrame(Tcb* t) {
  if (t->in_handler_frame) {
    t->in_handler_frame = false;
    SetHostMask(false);
  }
}

void SetHostMask(bool block_all) {
  sigset_t set;
  if (block_all) {
    ::sigfillset(&set);
  } else {
    ::sigemptyset(&set);
  }
  hostos::Sigprocmask(SIG_SETMASK, &set, nullptr);
}

void ForgetThread(Tcb* t) {
  CancelBlockTimer(t);
  CancelAlarm(t);
  ProgramItimer();  // settle a shot left for a cancelled deadline: an exited thread's never fires
}

}  // namespace fsup::sig
