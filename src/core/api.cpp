// Public API implementation: thread management, signals, cancellation, TSD, and the thin
// wrappers over the sync module.

#include "src/core/pthread.hpp"

#include <unistd.h>

#include <csignal>

#include <cerrno>
#include <cstring>

#include "src/cancel/cancel.hpp"
#include "src/cancel/cleanup.hpp"
#include "src/core/api_internal.hpp"
#include "src/debug/export.hpp"
#include "src/debug/introspect.hpp"
#include "src/debug/metrics.hpp"
#include "src/debug/obs.hpp"
#include "src/debug/profiler.hpp"
#include "src/io/io.hpp"
#include "src/libc/reentrant.hpp"
#include "src/kernel/kernel.hpp"
#include "src/sched/perverted.hpp"
#include "src/sched/policy.hpp"
#include "src/signals/fake_call.hpp"
#include "src/signals/sigmodel.hpp"
#include "src/signals/sigwait.hpp"
#include "src/tsd/tsd.hpp"
#include "src/util/assert.hpp"
#include "src/util/counters.hpp"
#include "src/util/dual_loop_timer.hpp"

namespace fsup {
namespace {

// Entry shim for new threads: the dispatcher switches to a fresh thread while inside the
// kernel, so the thread's first act is completing the kernel exit the dispatcher began.
void* ThreadStartTramp(void* tcbp) {
  auto* self = static_cast<Tcb*>(tcbp);
  kernel::ExitProtocol();
  return self->entry(self->entry_arg);
}

// Reclaims a terminated, detachable thread that is NOT the current one. In kernel.
void ReapTerminatedLocked(Tcb* t) {
  KernelState& k = kernel::ks();
  FSUP_ASSERT(t->state == ThreadState::kTerminated);
  FSUP_ASSERT(t != k.current);
  t->link.Unlink();  // zombie list, if queued there
  t->all_link.Unlink();
  sig::NoteThreadUnlinked(t);
  sig::ForgetThread(t);
  if (t == k.main_tcb) {
    return;  // static storage; never pooled
  }
  k.pool->Free(t);
}

// Drains self-directed user handlers queued while we were in the kernel. Call after Exit().
void DrainSelf() {
  if (sig::SelfHandlersPending()) {
    sig::RunSelfHandlers();
  }
}

bool ValidSignal(int signo) {
  return signo > 0 && signo <= kMaxSignal && signo != SIGKILL && signo != SIGSTOP &&
         signo != kSigCancel;
}

}  // namespace

namespace api {

int ActivateLazyInKernel(Tcb* t) {
  FSUP_ASSERT(kernel::InKernel());
  if (!t->lazy) {
    return 0;
  }
  if (t->stack_base == nullptr && !kernel::ks().pool->AttachStack(t, t->stack_size)) {
    // The deferred resource is unavailable (exhaustion or an injected fault). Leave the
    // thread lazy so the caller can report EAGAIN and retry the activation later.
    return EAGAIN;
  }
  t->lazy = false;
  CtxMake(t->ctx, t->stack_base, t->stack_size, &ThreadStartTramp, t);
  kernel::MakeReady(t);
  // A signal that arrived while the thread had no stack (failed fake-call install) was left
  // pending; now that a frame exists it can be delivered.
  sig::CheckPendingAfterUnmask(t);
  return 0;
}

void ExitCurrent(void* retval) {
  kernel::EnsureInit();
  Tcb* self = kernel::Current();
  FSUP_CHECK_MSG(kernel::ks().in_kernel == 0, "pt_exit from inside the kernel");

  // No further interruptions: the thread is committed to terminating. The mask write takes a
  // brief monitor section so the masked-thread counter update cannot be torn by a signal.
  self->intr_enabled = false;
  kernel::Enter();
  sig::NoteSigmaskSet(self, kSigSetAll);
  kernel::Exit();

  cleanup::RunAll(self);      // newest first — user code, outside the kernel
  tsd::RunDestructors(self);  // user code

  kernel::Enter();
  KernelState& k = kernel::ks();
  self->retval = retval;
  debug::obs::Emit(debug::obs::Event::kExit, self, self->id, 0);
  self->state = ThreadState::kTerminated;
  sig::ForgetThread(self);
  io::ForgetThread(self);

  const bool had_joiners = !self->joiners.empty();
  Tcb* j;
  while ((j = self->joiners.PopFront()) != nullptr) {
    j->join_result = retval;
    j->join_satisfied = true;
    kernel::MakeReady(j);
  }
  if (had_joiners) {
    self->detached = true;  // every joiner has its answer; nothing left to collect
  }
  if (self->detached && self != k.main_tcb) {
    // Reaping happens off this stack: the next dispatched thread drains the zombie list.
    k.zombies.PushBack(self);
  }
  kernel::TerminateCurrent();
}

}  // namespace api

// -- runtime control ----------------------------------------------------------------------

void pt_init() { kernel::EnsureInit(); }

void pt_reinit() {
  kernel::ReinitForTesting();
  libc_internal::ResetForTesting();
  tsd::ResetForTesting();
  sched::SetPolicy(PervertedPolicy::kNone, 0);
}

RuntimeStats pt_stats() {
  kernel::EnsureInit();
  using namespace counters;
  return RuntimeStats{
      Get(kKernelCtxSwitches),    Get(kKernelDispatches),     Get(kKernelPreemptions),
      Get(kKernelDeferredSignals), Get(kKernelForcedSwitches), Get(kKernelEntries),
      kernel::ks().live_threads,
  };
}

void pt_dump_threads(uint32_t max_threads) { debug::DumpThreads(max_threads); }

// -- observability ------------------------------------------------------------------------

void pt_metrics_enable(bool on) { debug::metrics::Enable(on); }

bool pt_metrics_enabled() { return debug::obs::On(debug::obs::kMetrics); }

debug::metrics::MetricsSnapshot pt_metrics_snapshot() {
  debug::metrics::MetricsSnapshot snap;
  debug::metrics::Capture(&snap);
  return snap;
}

int pt_metrics_dump(int fd, uint32_t max_threads) {
  return debug::metrics::DumpText(fd, max_threads);
}

int pt_trace_dump(const char* path) {
  if (path == nullptr || path[0] == '\0') {
    return EINVAL;
  }
  return debug::TraceDumpJson(path);
}

void pt_trace_user(uint32_t a, uint32_t b) {
  debug::obs::Emit(debug::obs::Event::kUser, nullptr, a, b);
}

int pt_profile_start(int hz) { return debug::profiler::Start(hz); }

int pt_profile_stop() { return debug::profiler::Stop(); }

bool pt_profile_active() { return debug::profiler::Active(); }

int pt_profile_dump(const char* path) {
  if (path == nullptr || path[0] == '\0') {
    return EINVAL;
  }
  return debug::profiler::Dump(path);
}

uint64_t pt_profile_samples() { return debug::profiler::SampleCount(); }

// -- thread management --------------------------------------------------------------------

int pt_create(pt_thread_t* thread, const ThreadAttr* attr, void* (*fn)(void*), void* arg) {
  kernel::EnsureInit();
  if (thread == nullptr || fn == nullptr) {
    return EINVAL;
  }
  ThreadAttr defaults;
  const ThreadAttr& a = attr != nullptr ? *attr : defaults;
  if (a.priority != -1 && (a.priority < kMinPrio || a.priority > kMaxPrio)) {
    return EINVAL;
  }
  size_t stack_size = a.stack_size;
  if (stack_size < kMinStackSize) {
    stack_size = kMinStackSize;
  }

  kernel::Enter();
  KernelState& k = kernel::ks();
  kernel::ReapZombies();  // recycle before allocating

  Tcb* t = a.lazy ? k.pool->AllocateNoStack() : k.pool->Allocate(stack_size);
  if (t == nullptr) {
    kernel::Exit();
    return EAGAIN;
  }
  Tcb* self = k.current;
  t->id = k.next_id++;
  t->entry = fn;
  t->entry_arg = arg;
  t->detached = a.detached;
  t->base_prio = a.priority != -1 ? a.priority : self->base_prio;
  t->prio = t->base_prio;
  t->policy = a.inherit_policy ? self->policy : a.policy;
  sig::NoteSigmaskSet(t, self->sigmask);  // inherited, as in POSIX
  if (a.name != nullptr) {
    std::strncpy(t->name, a.name, sizeof(t->name) - 1);
  }
  k.all_threads.PushBack(t);
  ++k.live_threads;
  // Stamp the newborn's metrics clock before its first state transition: the recycled TCB
  // slot may carry a previous tenant's accumulators under the current epoch.
  debug::obs::Emit(debug::obs::Event::kCreate, t, t->id, 0);

  if (a.lazy) {
    t->lazy = true;
    t->stack_size = stack_size;  // the request, attached at activation
    t->state = ThreadState::kBlocked;
    t->block_reason = BlockReason::kLazy;
  } else {
    CtxMake(t->ctx, t->stack_base, t->stack_size, &ThreadStartTramp, t);
    kernel::MakeReady(t);
  }
  *thread = t;
  kernel::Exit();
  return 0;
}

int pt_join(pt_thread_t t, void** retval) {
  kernel::EnsureInit();
  if (!TcbValid(t)) {
    return ESRCH;
  }
  Tcb* self = kernel::Current();
  if (t == self) {
    return EDEADLK;
  }

  kernel::Enter();
  if (t->magic != kTcbMagic) {  // re-check under the kernel
    kernel::Exit();
    return ESRCH;
  }
  if (t->detached && t->state != ThreadState::kTerminated) {
    kernel::Exit();
    return EINVAL;
  }
  // Join-cycle detection (A joins B joins A would deadlock silently otherwise).
  for (Tcb* w = t->join_target; w != nullptr; w = w->join_target) {
    if (w == self) {
      kernel::Exit();
      return EDEADLK;
    }
  }
  if (t->lazy) {
    // Joining a lazy thread is a "need": activate it. If its deferred stack cannot be
    // allocated the join cannot ever complete — surface the exhaustion instead of wedging.
    if (const int rc = api::ActivateLazyInKernel(t); rc != 0) {
      kernel::Exit();
      return rc;
    }
  }

  if (t->state != ThreadState::kTerminated) {
    self->join_satisfied = false;
    self->join_target = t;
    t->joiners.PushBack(self);
    for (;;) {
      kernel::Suspend(BlockReason::kJoin);
      if (self->join_satisfied) {
        break;
      }
      cancel::TestIntrInKernel();  // join is an interruption point
      if (!self->link.linked()) {
        t->joiners.PushBack(self);  // a fake call detached us: queue up again
      }
    }
    self->join_target = nullptr;
    if (retval != nullptr) {
      *retval = self->join_result;
    }
    kernel::Exit();
    DrainSelf();
    return 0;
  }

  // Already terminated: collect and reap.
  if (retval != nullptr) {
    *retval = t->retval;
  }
  ReapTerminatedLocked(t);
  kernel::Exit();
  return 0;
}

int pt_detach(pt_thread_t t) {
  kernel::EnsureInit();
  if (!TcbValid(t)) {
    return ESRCH;
  }
  kernel::Enter();
  if (t->detached) {
    kernel::Exit();
    return EINVAL;
  }
  if (t->state == ThreadState::kTerminated) {
    // "after a terminated thread is detached, any memory associated with the thread can be
    // reclaimed" — reclaim right away.
    if (t == kernel::Current()) {
      t->detached = true;  // reap happens at termination (we are running on its stack)
    } else {
      ReapTerminatedLocked(t);
    }
  } else {
    t->detached = true;
  }
  kernel::Exit();
  return 0;
}

void pt_exit(void* retval) { api::ExitCurrent(retval); }

int pt_activate(pt_thread_t t) {
  kernel::EnsureInit();
  if (!TcbValid(t)) {
    return ESRCH;
  }
  kernel::Enter();
  const int rc = api::ActivateLazyInKernel(t);
  kernel::Exit();
  return rc;
}

pt_thread_t pt_self() {
  kernel::EnsureInit();
  return kernel::Current();
}

bool pt_equal(pt_thread_t a, pt_thread_t b) { return a == b; }

uint32_t pt_id(pt_thread_t t) { return TcbValid(t) ? t->id : 0; }

void pt_yield() {
  kernel::EnsureInit();
  kernel::Enter();
  kernel::Yield();
  kernel::Exit();
}

// -- scheduling ---------------------------------------------------------------------------

int pt_setprio(pt_thread_t t, int prio) {
  kernel::EnsureInit();
  if (!TcbValid(t)) {
    return ESRCH;
  }
  if (prio < kMinPrio || prio > kMaxPrio) {
    return EINVAL;
  }
  kernel::Enter();
  sched::SetBasePriority(t, prio);
  kernel::Exit();
  return 0;
}

int pt_getprio(pt_thread_t t, int* prio) {
  kernel::EnsureInit();
  if (!TcbValid(t)) {
    return ESRCH;
  }
  if (prio == nullptr) {
    return EINVAL;
  }
  *prio = t->prio;
  return 0;
}

int pt_setschedpolicy(pt_thread_t t, SchedPolicy p) {
  kernel::EnsureInit();
  if (!TcbValid(t)) {
    return ESRCH;
  }
  kernel::Enter();
  t->policy = p;
  kernel::Exit();
  return 0;
}

int pt_getschedpolicy(pt_thread_t t, SchedPolicy* p) {
  kernel::EnsureInit();
  if (!TcbValid(t)) {
    return ESRCH;
  }
  if (p == nullptr) {
    return EINVAL;
  }
  *p = t->policy;
  return 0;
}

void pt_enable_time_slicing(int64_t slice_us) { sig::EnableTimeSlice(slice_us); }

void pt_disable_time_slicing() { sig::DisableTimeSlice(); }

void pt_set_perverted(PervertedPolicy policy, uint64_t seed) {
  kernel::EnsureInit();
  sched::SetPolicy(policy, seed);
}

// -- signals ------------------------------------------------------------------------------

int pt_kill(pt_thread_t t, int signo) {
  kernel::EnsureInit();
  if (!TcbValid(t)) {
    return ESRCH;
  }
  if (!ValidSignal(signo)) {
    return EINVAL;
  }
  kernel::Enter();
  if (t->state == ThreadState::kTerminated) {
    kernel::Exit();
    return ESRCH;
  }
  sig::DeliverToProcess(signo, sig::Cause::kDirected, t);
  kernel::Exit();
  DrainSelf();
  return 0;
}

int pt_sigmask(SigMaskHow how, SigSet set, SigSet* old_set) {
  kernel::EnsureInit();
  set &= ~SigBit(kSigCancel);  // cancellation is controlled by interruptibility, not masks
  kernel::Enter();
  Tcb* self = kernel::Current();
  if (old_set != nullptr) {
    *old_set = self->sigmask;
  }
  switch (how) {
    case SigMaskHow::kBlock:
      sig::NoteSigmaskSet(self, self->sigmask | set);
      break;
    case SigMaskHow::kUnblock:
      sig::NoteSigmaskSet(self, self->sigmask & ~set);
      break;
    case SigMaskHow::kSetMask:
      sig::NoteSigmaskSet(self, set);
      break;
  }
  sig::CheckPendingAfterUnmask(self);
  kernel::Exit();
  DrainSelf();
  return 0;
}

int pt_sigaction(int signo, void (*handler)(int), SigSet mask) {
  return sig::SetAction(signo, handler, mask, /*ignore=*/false, nullptr);
}

int pt_sigignore(int signo) {
  return sig::SetAction(signo, nullptr, 0, /*ignore=*/true, nullptr);
}

SigSet pt_sigpending() {
  kernel::EnsureInit();
  kernel::Enter();
  const SigSet pending = kernel::Current()->pending | kernel::ks().process_pending;
  kernel::Exit();
  return pending;
}

int pt_sigwait(SigSet set, int* signo, int64_t timeout_ns) {
  const int64_t deadline = timeout_ns < 0 ? -1 : NowNs() + timeout_ns;
  return sig::SigwaitInternal(set, signo, deadline);
}

int pt_alarm(int64_t delay_ns) {
  kernel::EnsureInit();
  if (delay_ns < 0) {
    return EINVAL;
  }
  kernel::Enter();
  Tcb* self = kernel::Current();
  if (delay_ns == 0) {
    sig::CancelAlarm(self);
  } else {
    sig::ArmAlarm(self, NowNs() + delay_ns);
  }
  kernel::Exit();
  return 0;
}

// -- cancellation -------------------------------------------------------------------------

int pt_cancel(pt_thread_t t) {
  kernel::EnsureInit();
  if (!TcbValid(t)) {
    return ESRCH;
  }
  kernel::Enter();
  if (t->state == ThreadState::kTerminated) {
    kernel::Exit();
    return ESRCH;
  }
  if (t->lazy && api::ActivateLazyInKernel(t) != 0) {
    // No stack to run cancellation on: mark the thread terminated directly — it never
    // started, so there are no cleanup handlers or TSD destructors to honor.
    debug::obs::Emit(debug::obs::Event::kExit, t, t->id, 0);
    t->state = ThreadState::kTerminated;
    t->retval = kCanceled;
    Tcb* j;
    while ((j = t->joiners.PopFront()) != nullptr) {
      j->join_result = kCanceled;
      j->join_satisfied = true;
      kernel::MakeReady(j);
    }
    FSUP_CHECK(kernel::ks().live_threads > 0);
    --kernel::ks().live_threads;
    kernel::Exit();
    return 0;
  }
  cancel::RequestInKernel(t);
  kernel::Exit();
  if (cancel::TakeSelfCancel()) {
    api::ExitCurrent(kCanceled);
  }
  return 0;
}

int pt_setintr(bool enabled, Interruptibility* old) {
  return cancel::SetInterruptibility(enabled, old);
}

int pt_setintrtype(bool asynchronous, Interruptibility* old) {
  return cancel::SetInterruptType(asynchronous, old);
}

void pt_testintr() {
  kernel::EnsureInit();
  kernel::Enter();
  cancel::TestIntrInKernel();  // does not return if a cancellation is acted on
  kernel::Exit();
}

void pt_cleanup_push(void (*fn)(void*), void* arg) { cleanup::Push(fn, arg); }

int pt_cleanup_pop(bool execute) { return cleanup::Pop(execute); }

// -- thread-specific data -----------------------------------------------------------------

int pt_key_create(pt_key_t* key, void (*destructor)(void*)) {
  return tsd::KeyCreate(key, destructor);
}

int pt_key_delete(pt_key_t key) { return tsd::KeyDelete(key); }

int pt_setspecific(pt_key_t key, void* value) { return tsd::SetSpecific(key, value); }

void* pt_getspecific(pt_key_t key) { return tsd::GetSpecific(key); }

// -- sync wrappers ------------------------------------------------------------------------

int pt_mutex_init(pt_mutex_t* m, const pt_mutexattr_t* attr) { return sync::MutexInit(m, attr); }
int pt_mutex_destroy(pt_mutex_t* m) { return sync::MutexDestroy(m); }
int pt_mutex_lock(pt_mutex_t* m) { return sync::MutexLock(m); }
int pt_mutex_trylock(pt_mutex_t* m) { return sync::MutexTrylock(m); }
int pt_mutex_unlock(pt_mutex_t* m) { return sync::MutexUnlock(m); }
int pt_mutex_setceiling(pt_mutex_t* m, int ceiling, int* old_ceiling) {
  return sync::MutexSetCeiling(m, ceiling, old_ceiling);
}

int pt_cond_init(pt_cond_t* c) { return sync::CondInit(c); }
int pt_cond_destroy(pt_cond_t* c) { return sync::CondDestroy(c); }
int pt_cond_wait(pt_cond_t* c, pt_mutex_t* m) { return sync::CondWait(c, m, -1); }
int pt_cond_timedwait(pt_cond_t* c, pt_mutex_t* m, int64_t timeout_ns) {
  if (timeout_ns < 0) {
    return EINVAL;
  }
  return sync::CondWait(c, m, NowNs() + timeout_ns);
}
int pt_cond_signal(pt_cond_t* c) { return sync::CondSignal(c); }
int pt_cond_broadcast(pt_cond_t* c) { return sync::CondBroadcast(c); }

int pt_sem_init(pt_sem_t* s, int initial) { return sync::SemInit(s, initial); }
int pt_sem_destroy(pt_sem_t* s) { return sync::SemDestroy(s); }
int pt_sem_wait(pt_sem_t* s) { return sync::SemWait(s); }
int pt_sem_trywait(pt_sem_t* s) { return sync::SemTryWait(s); }
int pt_sem_post(pt_sem_t* s) { return sync::SemPost(s); }
int pt_sem_getvalue(pt_sem_t* s, int* value) { return sync::SemGetValue(s, value); }

int pt_rwlock_init(pt_rwlock_t* rw) { return sync::RwlockInit(rw); }
int pt_rwlock_destroy(pt_rwlock_t* rw) { return sync::RwlockDestroy(rw); }
int pt_rwlock_rdlock(pt_rwlock_t* rw) { return sync::RwlockRdLock(rw); }
int pt_rwlock_tryrdlock(pt_rwlock_t* rw) { return sync::RwlockTryRdLock(rw); }
int pt_rwlock_wrlock(pt_rwlock_t* rw) { return sync::RwlockWrLock(rw); }
int pt_rwlock_trywrlock(pt_rwlock_t* rw) { return sync::RwlockTryWrLock(rw); }
int pt_rwlock_unlock(pt_rwlock_t* rw) { return sync::RwlockUnlock(rw); }

int pt_barrier_init(pt_barrier_t* b, int count) { return sync::BarrierInit(b, count); }
int pt_barrier_destroy(pt_barrier_t* b) { return sync::BarrierDestroy(b); }
int pt_barrier_wait(pt_barrier_t* b) { return sync::BarrierWait(b); }

int pt_once(pt_once_t* once, void (*fn)()) { return sync::OnceRun(once, fn); }

// -- time and I/O -------------------------------------------------------------------------

int pt_delay(int64_t duration_ns) {
  kernel::EnsureInit();
  if (duration_ns < 0) {
    return EINVAL;
  }
  Tcb* self = kernel::Current();
  const int64_t deadline = NowNs() + duration_ns;

  kernel::Enter();
  cancel::TestIntrInKernel();  // delay is an interruption point
  int rc = 0;
  self->timed_out = false;
  sig::ArmBlockTimer(self, deadline);
  kernel::Suspend(BlockReason::kDelay);
  if (!self->timed_out) {
    sig::CancelBlockTimer(self);
    rc = EINTR;  // a signal handler ran before the deadline
  }
  cancel::TestIntrInKernel();
  kernel::Exit();
  DrainSelf();
  return rc;
}

long pt_read(int fd, void* buf, size_t count) { return io::Read(fd, buf, count); }

long pt_write(int fd, const void* buf, size_t count) { return io::Write(fd, buf, count); }

int pt_errno() { return errno; }

}  // namespace fsup

// Receives the return value of a thread's entry function (arch/context.S boot path).
extern "C" void fsup_thread_exit_cc(void* retval) { fsup::api::ExitCurrent(retval); }
