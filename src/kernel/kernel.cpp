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

constexpr size_t kPrecachedStacks = 8;

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
  k.pool = new StackPool(kPrecachedStacks);

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
  sig::UnblockAllOsSignals();

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
  // FSUP_RECORD / FSUP_REPLAY / FSUP_EXPLORE_*: armed last so a recording starts with the
  // runtime fully up and a replay finds the same initialized state the recording saw.
  debug::replay::InitFromEnv();
  // FSUP_PROFILE / FSUP_PROFILE_FILE: after the replay mode is known, because the profiler's
  // sampling source depends on it (ITIMER_PROF live, tick piggybacking under record/replay).
  debug::profiler::InitFromEnv();
  log::Write("runtime initialized");
}

void ReinitForTesting() {
  KernelState& k = ks();
  if (!k.initialized) {
    EnsureInit();
    return;
  }
  FSUP_CHECK_MSG(k.in_kernel == 0, "reinit inside the kernel");
  FSUP_CHECK_MSG(k.current == k.main_tcb, "reinit off the main thread");

  // An active profiling session holds a collector thread and possibly ITIMER_PROF + a shm
  // mapping; stop it (joining the collector) before the only-main-thread check below.
  debug::profiler::ShutdownForReinit();

  Enter();
  ReapZombies();
  FSUP_CHECK_MSG(k.all_threads.size() == 1, "reinit with live threads");
  k.in_kernel = 0;

  // Disarm the interval timer and keep signals blocked across the handler swap: a stray
  // SIGALRM landing while the saved (default) disposition is restored would kill the process.
  itimerval off{};
  hostos::Setitimer(ITIMER_REAL, &off, nullptr);
  sig::BlockAllOsSignals();
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
  // Every sigwait wakeup funnels through here — including the cancellation fake call, which
  // never returns control to SigwaitInternal — so this is the one place the sigwait-blocked
  // count (deadlock detection, O(1) ExternalWakeupPossible) can be maintained without leaks.
  if (t->state == ThreadState::kBlocked && t->block_reason == BlockReason::kSigwait) {
    FSUP_ASSERT(k.sigwait_blocked > 0);
    --k.sigwait_blocked;
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
  if (reason == BlockReason::kSigwait) {
    ++k.sigwait_blocked;  // paired with the decrement in MakeReady
  }
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
  KernelState& k = ks();
  FSUP_ASSERT(k.in_kernel != 0);
  // Exploration/replay gate before the perverted hook: a forced switch demotes the current
  // thread, which makes the perverted hook a no-op — identically in record and replay.
  if (debug::replay::g_exit_hook) {
    debug::replay::OnKernelExitGate();
  }
  if (k.perverted != PervertedPolicy::kNone) {
    sched::PervertedOnKernelExit();
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

void ReapZombies() {
  KernelState& k = ks();
  FSUP_ASSERT(k.in_kernel != 0);
  Tcb* z;
  while ((z = k.zombies.PopFront()) != nullptr) {
    FSUP_ASSERT(z != k.current);
    z->all_link.Unlink();
    sig::NoteThreadUnlinked(z);
    sig::ForgetThread(z);
    k.pool->Free(z);
  }
}

void TerminateCurrent() {
  KernelState& k = ks();
  FSUP_ASSERT(k.in_kernel != 0);
  // The caller emitted the kExit event before mutating the state.
  FSUP_ASSERT(k.current->state == ThreadState::kTerminated);
  FSUP_CHECK(k.live_threads > 0);
  --k.live_threads;
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
