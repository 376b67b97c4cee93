// The Pthreads kernel: a monolithic monitor (paper, "Pthreads Kernel").
//
// All library data structures are protected by a single kernel flag rather than fine-grained
// locks — the paper's choice for a uniprocessor, where the only source of concurrency is UNIX
// signal delivery. Entering the kernel is one store; signals that arrive while the flag is set
// are logged by the universal signal handler and replayed when the dispatcher runs (Figure 2).
// A second flag, the dispatcher flag, makes kernel exit cheap in the common case: if nothing
// was readied and no signal arrived, leaving the kernel is a single store too; otherwise the
// dispatcher is invoked and may switch threads.
//
// Threading model: the whole library lives on one OS thread (the uniprocessor assumption). The
// atomics below are for signal-handler reentrancy on that one thread, not cross-CPU publication.

#ifndef FSUP_SRC_KERNEL_KERNEL_HPP_
#define FSUP_SRC_KERNEL_KERNEL_HPP_

#include <atomic>
#include <csignal>
#include <cstdint>

#include "src/debug/replay.hpp"
#include "src/kernel/ready_queue.hpp"
#include "src/kernel/stack_pool.hpp"
#include "src/kernel/tcb.hpp"
#include "src/kernel/timer_heap.hpp"
#include "src/kernel/types.hpp"
#include "src/util/counters.hpp"
#include "src/util/intrusive_list.hpp"
#include "src/util/rng.hpp"

namespace fsup {

// Virtual per-signal disposition, the library-level analogue of struct sigaction. The library
// owns the process-level handlers; user handlers registered through pt_sigaction live here and
// are invoked per thread via fake calls.
struct VSigAction {
  void (*handler)(int) = nullptr;
  SigSet mask = 0;
  bool installed = false;
  bool ignore = false;
};

struct KernelState {
  // -- the monitor -----------------------------------------------------------------------
  volatile sig_atomic_t in_kernel = 0;
  volatile sig_atomic_t dispatch_pending = 0;
  // External signals caught while in_kernel was set, awaiting replay by the dispatcher.
  std::atomic<uint64_t> sigs_caught_in_kernel{0};

  // -- threads ---------------------------------------------------------------------------
  Tcb* current = nullptr;
  Tcb* main_tcb = nullptr;
  ReadyQueue ready;
  IntrusiveList<Tcb, &Tcb::all_link> all_threads;
  IntrusiveList<Tcb, &Tcb::link> zombies;  // terminated, awaiting reap off their own stack
  uint32_t next_id = 1;
  uint32_t live_threads = 0;

  StackPool* pool = nullptr;

  // -- scheduling ------------------------------------------------------------------------
  PervertedPolicy perverted = PervertedPolicy::kNone;
  Rng rng;
  bool slice_enabled = false;
  bool slice_armed = false;
  int64_t slice_us = kDefaultSliceUs;
  int64_t slice_deadline_ns = 0;

  // -- signals ---------------------------------------------------------------------------
  SigSet process_pending = 0;  // step 6 of the delivery model: pend at process level
  VSigAction actions[kMaxSignal + 1];
  bool os_handlers_installed = false;

  // -- timers ----------------------------------------------------------------------------
  TimerHeap timers;                 // armed per-thread timers, min-heap on deadline
  int64_t itimer_deadline_ns = -1;  // what the interval timer is set to

  // -- deadlock-detection counters (sig::ExternalWakeupPossible in O(1)) -------------------
  // Maintained at the sigwait block/wake funnel (Suspend/MakeReady) and at sigaction-install
  // time (SetAction), instead of scanning all_threads + actions[] on every idle pass.
  uint32_t sigwait_blocked = 0;     // threads currently suspended in sigwait
  uint32_t handlers_installed = 0;  // virtual dispositions with a user handler function

  // Linked threads whose sigmask blocks at least one signal. Maintained by the
  // sig::NoteSigmaskSet funnel (every sigmask write goes through it) and decremented when a
  // masked thread is unlinked from all_threads. Zero means every live thread takes any
  // signal, so recipient-selection step 5 picks the first live thread without probing a
  // million per-thread masks.
  uint32_t masked_threads = 0;

  bool initialized = false;

  // The kernel's statistics are the "kernel" group of the counter registry
  // (util/counters.hpp).
};

namespace kernel {

// The one kernel instance. An inline function-local static (C++17: one instance across all
// translation units) so the hot paths — the sync fast path calls ks() twice per operation —
// inline the access down to a predicted guard-byte test instead of paying a call.
inline KernelState& ks() {
  static KernelState state;
  return state;
}

// The cold half of EnsureInit: builds the main-thread TCB, pools, signal handlers. Runs once.
void InitRuntime();

// Initializes the runtime if needed. Every public API entry point calls this; inline so the
// already-initialized case is one load and one predicted branch.
inline void EnsureInit() {
  if (!ks().initialized) {
    InitRuntime();
  }
}

// Tears the runtime down and re-initializes. Requires that only the main thread is alive.
// Exists so a large test suite can run in one process; see DESIGN.md.
void ReinitForTesting();

inline bool InKernel() { return ks().in_kernel != 0; }

// Enters the monitor. Must not already be inside. Under replay, asynchronous log records
// (ticks, external signals) that the recorded run took *outside* the kernel are fired here,
// before this entry proceeds — the replay-side stand-in for the universal signal handler.
inline void Enter() {
  if (__builtin_expect((debug::replay::g_gate_pending & debug::replay::kGateEntry) != 0, 0)) {
    debug::replay::RunGate();
  }
  KernelState& k = ks();
  FSUP_ASSERT(k.in_kernel == 0);
  // Entering a never-initialized kernel means a public entry point forgot EnsureInit — the
  // monitor "works" until Exit dispatches over a null current thread.
  FSUP_ASSERT(k.initialized);
  k.in_kernel = 1;
  counters::Bump(counters::kKernelEntries);
}

// Leaves the monitor, invoking the dispatcher if the dispatcher flag was set, a signal was
// deferred, or a perverted policy forces a switch.
void Exit();

inline Tcb* Current() { return ks().current; }

// Makes t ready. If t's priority beats the running thread's, flags a dispatch (preemption).
// front=true queues at the head of t's priority level (used when a thread was preempted).
void MakeReady(Tcb* t, bool front = false);

// Marks the current thread blocked for `reason` and runs the dispatcher; returns when the
// thread is made ready and dispatched again. Call with the monitor entered; the thread must
// already be linked on whatever wait queue will wake it (or rely on signal wakeup).
void Suspend(BlockReason reason);

// Moves the current thread to the tail of its priority queue and dispatches (sched_yield).
void Yield();

// The dispatcher (paper Figure 2). Called with the monitor entered; returns with it exited.
void Dispatch();

// Dispatcher variant that returns with the monitor still entered — used by Suspend/Yield whose
// callers must re-examine protected state (predicate loops) after being resumed.
void DispatchKeepKernel();

// The tail half of Dispatch's exit protocol, exposed for the fake-call wrapper which starts
// life inside the monitor and must complete the kernel exit that the dispatcher began.
void ExitProtocol();

// Reaps zombie threads (returns TCBs + stacks to the pool). In-kernel only.
void ReapZombies();

// Queues the current thread for reaping and dispatches away forever.
[[noreturn]] void TerminateCurrent();

// Probe for the Table 2 metric "enter and exit Pthreads kernel": one Enter + cheap Exit.
void EnterExitProbe();

// Fatal: no thread is runnable and nothing can ever wake one. Dumps all threads and aborts.
[[noreturn]] void DeadlockAbort();

}  // namespace kernel
}  // namespace fsup

#endif  // FSUP_SRC_KERNEL_KERNEL_HPP_
