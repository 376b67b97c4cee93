// The dispatcher (paper Figure 2).
//
// Selects the next thread under the active scheduling policy, switches contexts, and runs the
// kernel-exit protocol: clear the kernel and dispatcher flags, then re-check for signals that
// were caught while in the kernel — if any arrived, re-enter and restart the dispatch, because
// handling them may change which thread should run.

#include <cerrno>

#include "src/debug/obs.hpp"
#include "src/debug/replay.hpp"
#include "src/io/io.hpp"
#include "src/kernel/kernel.hpp"
#include "src/sched/perverted.hpp"
#include "src/signals/fake_call.hpp"
#include "src/signals/sigmodel.hpp"
#include "src/util/assert.hpp"
#include "src/util/counters.hpp"
#include "src/util/dual_loop_timer.hpp"

namespace fsup::kernel {
namespace {

// Switches from the running thread to `next` (which must not be current). When the call
// returns, the original thread has been re-dispatched.
void SwitchTo(Tcb* next) {
  KernelState& k = ks();
  Tcb* cur = k.current;
  FSUP_ASSERT(next != cur);
  FSUP_ASSERT(next->state == ThreadState::kReady || next->queued_level == -1);

  // The paper swaps UNIX's global error number with the thread's on every switch.
  cur->err_no = errno;

  // The switch is a logged (or, in replay, verified) decision. Its event fires before any
  // mutation, so the metrics epoch-lazy reset can still read the state `next` held since
  // enable time.
  debug::obs::Emit(debug::obs::Event::kSwitch, next, cur->id, next->id);
  next->state = ThreadState::kRunning;
  next->block_reason = BlockReason::kNone;
  ++next->switches_in;
  counters::Bump(counters::kKernelCtxSwitches);
  k.current = next;

  sig::OnDispatch(next);
  // Every thread resumes with nothing blocked. The mask is not empty here only when `cur`
  // leaves a handler frame; lift it before `next` runs.
  sig::LeaveHandlerFrame(cur);

  fsup_ctx_switch(&cur->ctx, &next->ctx);

  // We are `cur` again, inside the kernel of whoever switched back to us.
  errno = cur->err_no;
  ReapZombies();
}

// No thread is runnable: wait for a timer, I/O readiness, or an external signal. Runs inside
// the kernel, so any signal that arrives is deferred and replayed by the dispatch loop. The
// sleep itself happens in io::PollOnce (epoll_pwait2 with the nanosecond deadline budget, or
// the poll fallback) so fd readiness and signals both end it. A signal deferred after the
// dispatch loop's check but before the sleep starts ends it too: the sleep syscall is the
// tail of a restartable sequence that first re-reads the deferred set (arch/ras.S), so it is
// never entered over a logged signal. Deadlock detection reads the timer-heap head, the I/O
// waiter count and, only when both are empty, ExternalWakeupPossible's derived answer.
// A deadline ITIMER_REAL is armed for is served by its SIGALRM alone, one tick per shot: a
// timeout racing the signal would tick twice. The timeout is for a deadline not armed.
// Cancelling a timer leaves the interval timer alone, so the wait first settles it exactly:
// an idle process never wakes for a deadline nobody waits on.
void IdleWait() {
  KernelState& k = ks();
  sig::LeaveHandlerFrame(k.current);  // the sleep must be interruptible by every signal
  sig::ProgramItimer();

  const int64_t deadline = sig::NextDeadlineNs();
  if (deadline < 0 && !io::HaveWaiters() && !sig::ExternalWakeupPossible()) {
    DeadlockAbort();
  }

  const bool backstop = deadline >= 0 && deadline != k.itimer_deadline_ns;
  int64_t timeout_ns = -1;
  if (backstop) {
    const int64_t now = NowNs();
    timeout_ns = deadline > now ? deadline - now : 0;
  }
  io::PollOnce(timeout_ns);

  // Under replay the wall clock is meaningless — ticks fire only when the log says so (the
  // dispatch loop's replay gate), never from a live deadline comparison.
  if (backstop && !debug::replay::Replaying() && NowNs() >= deadline) {
    sig::OnTimerTick(debug::replay::AsyncSite::kInDispatcher);
  }
  if (k.sigs_caught_in_kernel.load(std::memory_order_relaxed) != 0) {
    sig::HandleDeferred(k.sigs_caught_in_kernel.exchange(0, std::memory_order_relaxed));
  }
}

}  // namespace

void DispatchKeepKernel() {
  KernelState& k = ks();
  FSUP_ASSERT(k.in_kernel != 0);
  counters::Bump(counters::kKernelDispatches);

  for (;;) {
    k.dispatch_pending = 0;

    // Replay signals logged while in the kernel before selecting: they may ready threads.
    // A plain load first: the exchange is a locked instruction, taken only when there is
    // something to take.
    if (k.sigs_caught_in_kernel.load(std::memory_order_relaxed) != 0) {
      sig::HandleDeferred(k.sigs_caught_in_kernel.exchange(0, std::memory_order_relaxed));
      continue;
    }

    // Replay-side twin of the deferred-signal check: async log records whose recorded firing
    // point was inside the dispatcher (deferred ticks, idle-wait wakeups) fire here.
    if ((debug::replay::g_gate_pending & debug::replay::kGateDispatcher) != 0 &&
        debug::replay::GateInDispatcher()) {
      continue;
    }

    Tcb* cur = k.current;
    Tcb* next = nullptr;

    if (cur->state == ThreadState::kRunning) {
      // The running thread stays unless a strictly higher-priority thread is ready.
      if (k.ready.TopPrio() > cur->prio) {
        debug::obs::Emit(debug::obs::Event::kPreempt, cur, cur->id, 0);
        cur->state = ThreadState::kReady;
        k.ready.PushFront(cur);  // preempted: head of its level, it did not consume its turn
        counters::Bump(counters::kKernelPreemptions);
        next = k.ready.PopHighest();
      } else {
        return;  // keep running
      }
    } else {
      next = sched::g_random_pick != 0 ? sched::TakeRandomPick() : k.ready.PopHighest();
      if (next == nullptr) {
        IdleWait();
        continue;
      }
      if (next == cur) {
        // The current thread yielded / was requeued and won selection again.
        debug::obs::Emit(debug::obs::Event::kResume, cur, cur->id, 0);
        cur->state = ThreadState::kRunning;
        cur->block_reason = BlockReason::kNone;
        sig::OnDispatch(cur);
        return;
      }
    }

    SwitchTo(next);
    return;
  }
}

void ExitProtocol() {
  KernelState& k = ks();
  FSUP_ASSERT(k.in_kernel != 0);
  for (;;) {
    k.in_kernel = 0;
    // Window: a signal arriving here is handled immediately by the universal handler (the
    // flag is clear), which is exactly what we want.
    if (k.sigs_caught_in_kernel.load(std::memory_order_relaxed) == 0 &&
        k.dispatch_pending == 0) {
      break;
    }
    // Something was deferred or readied: re-enter and dispatch again (Figure 2's restart).
    k.in_kernel = 1;
    DispatchKeepKernel();
  }
  // Replaying deferred signals may have selected the *current* thread as a handler recipient;
  // a running thread cannot take a fake call, so its handlers drain here, right after the
  // kernel exit (RunSelfHandlers re-enters the kernel briefly for mask bookkeeping).
  if (sig::SelfHandlersPending()) {
    sig::RunSelfHandlers();
  }
}

void Dispatch() {
  DispatchKeepKernel();
  ExitProtocol();
}

}  // namespace fsup::kernel
