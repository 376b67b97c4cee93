#include "src/kernel/kernel.hpp"

#include <cerrno>
#include <cstdlib>
#include <new>

#include <sys/time.h>

#include "src/arch/ras.hpp"
#include "src/hostos/fault.hpp"
#include "src/hostos/unix_if.hpp"
#include "src/debug/export.hpp"
#include "src/debug/introspect.hpp"
#include "src/debug/metrics.hpp"
#include "src/debug/obs.hpp"
#include "src/debug/profiler.hpp"
#include "src/debug/replay.hpp"
#include "src/debug/trace.hpp"
#include "src/io/io.hpp"
#include "src/sched/perverted.hpp"
#include "src/signals/sigmodel.hpp"
#include "src/sync/fastpath.hpp"
#include "src/util/assert.hpp"
#include "src/util/counters.hpp"
#include "src/util/log.hpp"

namespace fsup::kernel {
namespace {

// The main thread's TCB lives in static storage: it has no library-owned stack and must exist
// before any pool does.
alignas(Tcb) unsigned char g_main_tcb_storage[sizeof(Tcb)];

}  // namespace

void InitRuntime() {
  KernelState& k = ks();
  if (k.initialized) {
    return;
  }
  k.initialized = true;

  // Arm any FSUP_FAULT_SPEC rules before the first host call, so soak runs can inject from
  // the very beginning and replays see the whole trajectory.
  hostos::fault::InitFromEnv();

  ras::RegisterBuiltins();
  k.pool = new StackPool();

  Tcb* main_tcb = new (g_main_tcb_storage) Tcb();
  main_tcb->magic = kTcbMagic;
  main_tcb->id = k.next_id++;
  main_tcb->state = ThreadState::kRunning;
  main_tcb->prio = kDefaultPrio;
  main_tcb->base_prio = kDefaultPrio;
  main_tcb->name[0] = 'm';
  main_tcb->name[1] = 'a';
  main_tcb->name[2] = 'i';
  main_tcb->name[3] = 'n';

  k.main_tcb = main_tcb;
  k.current = main_tcb;
  k.live_threads = 1;
  k.all_threads.PushBack(main_tcb);

  sig::InstallOsHandlers();
  // Make the signal state canonical: nothing blocked. (After a reinit the mask was fully
  // blocked across the handler swap; on first init this is the process default anyway.)
  sig::SetHostMask(false);

  // Observability env hooks. FSUP_TRACE_FILE=<path> turns tracing on and dumps a Chrome
  // trace_event JSON at process exit (the final pt_exit leaves via std::exit, so atexit
  // handlers run). FSUP_METRICS=1 turns metric collection on from the start.
  if (const char* path = std::getenv("FSUP_TRACE_FILE"); path != nullptr && path[0] != '\0') {
    debug::trace::Enable(true);
    debug::SetTraceFileAtExit(path);
  }
  if (const char* v = std::getenv("FSUP_METRICS");
      v != nullptr && v[0] != '\0' && v[0] != '0') {
    debug::metrics::Enable(true);
  }
  // FSUP_FASTPATH=0|1: after the trace/metrics env hooks, so the active byte is computed
  // against their final state (the Enable calls above recompute too; this one also picks up
  // the request itself).
  sync::fastpath::InitFromEnv();
  // FSUP_EXPLORE_* then FSUP_RECORD / FSUP_REPLAY: armed last so a recording starts with the
  // runtime fully up and a replay finds the same initialized state the recording saw.
  sched::InitFromEnv();
  debug::replay::InitFromEnv();
  // FSUP_PROFILE / FSUP_PROFILE_FILE: after the replay mode is known, because the profiler's
  // sampling source depends on it (ITIMER_PROF live, tick piggybacking under record/replay).
  debug::profiler::InitFromEnv();
}

void ReinitForTesting() {
  KernelState& k = ks();
  if (!k.initialized) {
    EnsureInit();
    return;
  }
  FSUP_CHECK_MSG(k.in_kernel == 0, "reinit inside the kernel");
  FSUP_CHECK_MSG(k.current == k.main_tcb, "reinit off the main thread");

  // An active profiling session holds ITIMER_PROF and possibly a shm mapping; stop it
  // before the handlers it samples through are uninstalled.
  debug::profiler::ShutdownForReinit();

  Enter();
  ReapZombies();
  FSUP_CHECK_MSG(k.all_threads.size() == 1, "reinit with live threads");
  k.in_kernel = 0;

  // Disarm the interval timer and keep signals blocked across the handler swap: a stray
  // SIGALRM landing while the saved (default) disposition is restored would kill the process.
  itimerval off{};
  hostos::Setitimer(ITIMER_REAL, &off, nullptr);
  sig::SetHostMask(true);
  sig::UninstallOsHandlers();
  io::ResetForTesting();

  Tcb* main_tcb = k.main_tcb;
  main_tcb->all_link.Unlink();
  delete k.pool;

  k.~KernelState();
  new (&k) KernelState();
  counters::ResetGroup("kernel");
  counters::ResetGroup("pool");
  main_tcb->~Tcb();

  EnsureInit();
}

void MakeReady(Tcb* t, bool front) {
  KernelState& k = ks();
  FSUP_ASSERT(k.in_kernel != 0);
  FSUP_ASSERT(t->state != ThreadState::kTerminated);
  // Every sigwait wakeup funnels through here, including the cancellation fake call, which
  // never returns control to SigwaitInternal. The woken thread stops counting as unmasked for
  // its wait set at once: a second signal that arrives before it runs must pend, not find a
  // recipient that can no longer take it.
  if (t->state == ThreadState::kBlocked && t->block_reason == BlockReason::kSigwait) {
    t->sigwait_set = 0;
  }
  // t may be the current thread: a blocked thread with no runnable peer idles on its own
  // stack inside the dispatcher, and its own timer/IO wakeup re-readies it.
  debug::obs::Emit(debug::obs::Event::kWake, t, t->id, static_cast<uint32_t>(t->block_reason));
  t->state = ThreadState::kReady;
  t->block_reason = BlockReason::kNone;
  if (front) {
    k.ready.PushFront(t);
  } else {
    k.ready.PushBack(t);
  }
  if (k.current == nullptr || t->prio > k.current->prio ||
      k.current->state != ThreadState::kRunning) {
    k.dispatch_pending = 1;
  }
}

void Suspend(BlockReason reason) {
  KernelState& k = ks();
  FSUP_ASSERT(k.in_kernel != 0);
  Tcb* self = k.current;
  FSUP_ASSERT(self->state == ThreadState::kRunning);
  debug::obs::Emit(debug::obs::Event::kSuspend, self, self->id, static_cast<uint32_t>(reason));
  self->state = ThreadState::kBlocked;
  self->block_reason = reason;
  DispatchKeepKernel();
  // Resumed: made ready by a waker and selected by the dispatcher. Still in the kernel.
  FSUP_ASSERT(k.current == self);
  FSUP_ASSERT(self->state == ThreadState::kRunning);
}

void Yield() {
  KernelState& k = ks();
  FSUP_ASSERT(k.in_kernel != 0);
  Tcb* self = k.current;
  debug::obs::Emit(debug::obs::Event::kYield, self, self->id, 0);
  self->state = ThreadState::kReady;
  k.ready.PushBack(self);
  DispatchKeepKernel();
}

void Exit() {
  FSUP_ASSERT(ks().in_kernel != 0);
  // One byte for every kernel-exit perturbation: perverted policies, exploration, replay.
  if (sched::g_exit_hook != 0) {
    sched::OnKernelExit();
  }
  // Figure 2's exit order matters: clear the flag FIRST, then re-check the signal log. A
  // signal that lands before the clear is logged and must be replayed by us; one that lands
  // after the clear is handled immediately by the universal handler. Checking before clearing
  // loses the in-between arrival forever. ExitProtocol implements exactly this loop.
  ExitProtocol();
}

void EnterExitProbe() {
  // The Table 2 "enter and exit Pthreads kernel" cost: the monitor's fast path.
  Enter();
  ExitProtocol();
}

void Terminate(Tcb* t, void* retval) {
  KernelState& k = ks();
  FSUP_ASSERT(k.in_kernel != 0);
  FSUP_ASSERT(t->state != ThreadState::kTerminated);
  t->retval = retval;
  debug::obs::Emit(debug::obs::Event::kExit, t, t->id, 0);
  t->state = ThreadState::kTerminated;
  t->lazy = false;  // a thread that never ran never will: activation must not revive it
  sig::ForgetThread(t);
  io::ForgetThread(t);
  while (Tcb* j = t->joiners.PopFront()) {
    j->join_result = retval;
    j->join_satisfied = true;
    MakeReady(j);
    t->detached = true;  // every joiner has its answer; nothing left to collect
  }
  if (t->detached && t != k.main_tcb) {
    // Reaped off t's own stack: by the thread the dispatcher switches to, or pt_create.
    k.zombies.PushBack(t);
  }
  FSUP_CHECK(k.live_threads > 0);
  --k.live_threads;
}

void Reap(Tcb* t) {
  KernelState& k = ks();
  FSUP_ASSERT(k.in_kernel != 0);
  FSUP_ASSERT(t->state == ThreadState::kTerminated);
  FSUP_ASSERT(t != k.current);
  t->link.Unlink();  // the zombie list, if queued there
  t->all_link.Unlink();
  if (t != k.main_tcb) {
    k.pool->Free(t);  // the main TCB is static storage, never pooled
  }
}

void ReapZombies() {
  FSUP_ASSERT(ks().in_kernel != 0);
  while (Tcb* z = ks().zombies.PopFront()) {
    Reap(z);
  }
}

void TerminateCurrent() {
  KernelState& k = ks();
  FSUP_ASSERT(k.in_kernel != 0);
  FSUP_ASSERT(k.current->state == ThreadState::kTerminated);
  if (k.live_threads == 0) {
    // Last thread: the process is done (the paper-era semantics of the final pthread_exit).
    k.in_kernel = 0;
    std::exit(0);
  }
  DispatchKeepKernel();
  FSUP_CHECK_MSG(false, "terminated thread dispatched");
  ::abort();
}

void DeadlockAbort() {
  log::RawWriteCstr("fsup: DEADLOCK — no runnable thread and no wakeup source\n");
  debug::DumpThreads();
  FatalError("all threads deadlocked", __FILE__, __LINE__);
}

}  // namespace fsup::kernel
