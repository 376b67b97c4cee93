// Per-thread timers multiplexed onto one UNIX interval timer.
//
// Threads arm block timeouts (timed conditional waits, pt_delay) and alarms (pt_alarm); the
// kernel keeps every armed entry in a 4-ary min-heap keyed on deadline (timer_heap.hpp) and
// programs ITIMER_REAL for the earliest deadline (including the round-robin slice). Arm,
// cancel and expiry are O(log n); the idle loop's NextDeadlineNs is O(1). The resulting
// SIGALRM enters through the universal handler; expirations are taken in the kernel on the
// tick path, one tick per shot. Only a deadline the timer could not be armed for is ticked
// from the idle loop's timeout instead.
//
// Arm and cancel program the interval timer lazily: it only ever moves earlier, so a timed
// wait met before its deadline makes no host call. A shot left for a cancelled deadline is
// settled exactly at thread exit (ForgetThread) and at the top of the idle wait; a busy
// process may take it once, as a tick that expires nothing. The slice is programmed exactly.
//
// Delivery follows the paper: a timer expiration directs SIGALRM "at the thread which armed
// the timer" (recipient rule 3); the action (model action 2) readies a suspended sleeper, or
// repositions the running thread at the tail of its queue when the expiration was caused by
// time slicing.

#include <algorithm>

#include "src/debug/obs.hpp"
#include "src/debug/replay.hpp"
#include "src/hostos/unix_if.hpp"
#include "src/kernel/kernel.hpp"
#include "src/signals/fake_call.hpp"
#include "src/signals/sigmodel.hpp"
#include "src/util/assert.hpp"
#include "src/util/dual_loop_timer.hpp"

namespace fsup::sig {
namespace {

void Arm(TimerEntry* e, Tcb* t, int64_t deadline_ns, TimerEntry::Kind kind) {
  FSUP_ASSERT(kernel::InKernel());
  KernelState& k = kernel::ks();
  if (e->armed) {
    k.timers.Remove(e);
  }
  e->owner = t;
  e->deadline_ns = deadline_ns;
  e->kind = kind;
  e->armed = true;
  k.timers.Push(e);
  // Only ever earlier: a shot armed for an earlier, since cancelled, deadline stays.
  if (k.itimer_deadline_ns < 0 || deadline_ns < k.itimer_deadline_ns) {
    ProgramItimer();
  }
}

void Cancel(TimerEntry* e) {
  if (!e->armed) {
    return;
  }
  FSUP_ASSERT(kernel::InKernel());
  e->armed = false;
  kernel::ks().timers.Remove(e);
  // The interval timer is left alone, even when this was the head (see the header comment).
}

}  // namespace

void ArmBlockTimer(Tcb* t, int64_t deadline_ns) {
  Arm(&t->block_timer, t, deadline_ns, TimerEntry::Kind::kBlockTimeout);
}

void CancelBlockTimer(Tcb* t) { Cancel(&t->block_timer); }

void ArmAlarm(Tcb* t, int64_t deadline_ns) {
  Arm(&t->alarm_timer, t, deadline_ns, TimerEntry::Kind::kAlarm);
}

void CancelAlarm(Tcb* t) { Cancel(&t->alarm_timer); }

int64_t NextDeadlineNs() {
  KernelState& k = kernel::ks();
  int64_t next = -1;
  TimerEntry* head = k.timers.Top();
  if (head != nullptr) {
    next = head->deadline_ns;
  }
  if (k.slice_armed && (next < 0 || k.slice_deadline_ns < next)) {
    next = k.slice_deadline_ns;
  }
  return next;
}

void ProgramItimer() {
  FSUP_ASSERT(kernel::InKernel());
  KernelState& k = kernel::ks();
  const int64_t next = NextDeadlineNs();
  if (next == k.itimer_deadline_ns) {
    return;
  }
  itimerval v{};
  if (next >= 0) {
    // Whole microseconds, rounded up: a shot that fired before its deadline would tick, expire
    // nothing and need a second shot.
    const int64_t delta_us = std::max<int64_t>((next - NowNs() + 999) / 1000, 1);
    v.it_value.tv_sec = delta_us / 1000000;
    v.it_value.tv_usec = delta_us % 1000000;
  }
  // A deadline the timer could not be armed for is forgotten: the idle wait then sleeps on a
  // timeout for it instead of on a signal that will not come, and the next call retries.
  k.itimer_deadline_ns = hostos::Setitimer(ITIMER_REAL, &v, nullptr) == 0 ? next : -1;
}

namespace {

// The tick body, shared by the live path (expire by wall clock) and the replay path (expire
// exactly the recorded count — ForceTimerTick — so a replayed tick readies the same sleepers
// no matter what the clock says now).
uint32_t TickImpl(bool forced, uint32_t forced_expired, bool forced_slice,
                  debug::replay::AsyncSite site) {
  FSUP_ASSERT(kernel::InKernel());
  KernelState& k = kernel::ks();
  counters::Bump(counters::kKernelTimerTicks);
  k.itimer_deadline_ns = -1;  // the programmed shot has fired (or we are past it)
  const int64_t now = NowNs();
  // Reserve the decision slot before any delivery below logs trace records, so the inner
  // records carry the same decision stamps in record and replay. Forced ticks pass the
  // no-slot sentinel: their decision was already consumed from the log.
  const size_t slot = forced ? ~static_cast<size_t>(0) : debug::replay::BeginTick(site);
  uint32_t expired = 0;

  for (;;) {
    TimerEntry* head = k.timers.Top();
    if (head == nullptr || (forced ? expired >= forced_expired : head->deadline_ns > now)) {
      break;
    }
    k.timers.PopMin();
    head->armed = false;
    ++expired;
    Tcb* t = head->owner;
    if (head->kind == TimerEntry::Kind::kBlockTimeout) {
      // Model action 2, sleeper half: "the selected thread becomes ready if it was suspended".
      if (t->state == ThreadState::kBlocked) {
        t->timed_out = true;
        DetachFromWaitQueue(t);
        kernel::MakeReady(t);
      }
    } else {
      // pt_alarm: a real SIGALRM for the arming thread, through the full action model
      // (masked → pends; handler → fake call; default → process action).
      DeliverToThread(t, SIGALRM);
    }
  }

  // Model action 2, slicing half: reposition the running thread at the tail of its queue.
  bool slice_fired = false;
  if (k.slice_armed && (forced ? forced_slice : now >= k.slice_deadline_ns)) {
    slice_fired = true;
    k.slice_armed = false;
    Tcb* cur = k.current;
    if (cur != nullptr && cur->state == ThreadState::kRunning &&
        cur->policy == SchedPolicy::kRr && !k.ready.empty()) {
      // Losing the slice is a preemption, not a yield.
      debug::obs::Emit(debug::obs::Event::kPreempt, cur, cur->id, 0);
      cur->state = ThreadState::kReady;
      k.ready.PushBack(cur);
      k.dispatch_pending = 1;
    }
  }

  debug::replay::EndTick(slot, expired, slice_fired);
  // The tick event also drives the deterministic-mode profiler sample: the tick is a
  // recorded/replayed decision, so hanging the sample off it (instead of an unsynchronized
  // ITIMER_PROF) gives record and replay bit-identical sample sequences.
  debug::obs::Emit(debug::obs::Event::kTimerTick, k.current,
                   k.current != nullptr ? k.current->id : 0, expired);
  ProgramItimer();
  return expired;
}

}  // namespace

void OnTimerTick(debug::replay::AsyncSite site) { TickImpl(false, 0, false, site); }

uint32_t ForceTimerTick(uint32_t expired, bool slice_fired) {
  return TickImpl(true, expired, slice_fired, debug::replay::AsyncSite::kInDispatcher);
}

void OnDispatch(Tcb* next) {
  KernelState& k = kernel::ks();
  if (!k.slice_enabled) {
    return;
  }
  if (next->policy == SchedPolicy::kRr) {
    k.slice_deadline_ns = NowNs() + k.slice_us * 1000;
    k.slice_armed = true;
    ProgramItimer();
  } else if (k.slice_armed) {
    k.slice_armed = false;
    ProgramItimer();
  }
}

void EnableTimeSlice(int64_t slice_us) {
  kernel::EnsureInit();
  kernel::Enter();
  KernelState& k = kernel::ks();
  k.slice_enabled = true;
  k.slice_us = slice_us > 0 ? slice_us : kDefaultSliceUs;
  OnDispatch(k.current);
  kernel::Exit();
}

void DisableTimeSlice() {
  kernel::EnsureInit();
  kernel::Enter();
  KernelState& k = kernel::ks();
  k.slice_enabled = false;
  k.slice_armed = false;
  ProgramItimer();
  kernel::Exit();
}

}  // namespace fsup::sig
