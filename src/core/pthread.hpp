// fsup — a library implementation of POSIX threads (draft 6) in the style of Mueller's FSU
// Pthreads (USENIX 1993), for modern Linux/x86-64.
//
// This is the complete public API. All threads of a process run on ONE operating-system
// thread; concurrency is provided by the library's own preemptive priority scheduler. Calls
// return 0 on success and an errno value on failure unless documented otherwise. None of these
// functions may be called from a second OS thread.
//
// Naming: the paper's library used the pthread_ prefix; this implementation uses pt_ to
// coexist with the host's libpthread in one process (benchmarks compare against it directly).

#ifndef FSUP_SRC_CORE_PTHREAD_HPP_
#define FSUP_SRC_CORE_PTHREAD_HPP_

#include <csetjmp>
#include <cstddef>
#include <cstdint>

#include "src/debug/metrics.hpp"
#include "src/kernel/tcb.hpp"
#include "src/kernel/types.hpp"
#include "src/sync/barrier.hpp"
#include "src/sync/cond.hpp"
#include "src/sync/mutex.hpp"
#include "src/sync/once.hpp"
#include "src/sync/rwlock.hpp"
#include "src/sync/semaphore.hpp"

namespace fsup {

// ---------------------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------------------

// Thread handle. Opaque; compare with pt_equal.
using pt_thread_t = Tcb*;

using pt_mutex_t = Mutex;
using pt_mutexattr_t = MutexAttr;
using pt_cond_t = Cond;
using pt_sem_t = Semaphore;
using pt_rwlock_t = Rwlock;
using pt_barrier_t = Barrier;
using pt_once_t = Once;
using pt_key_t = int;

// Thread creation attributes.
struct ThreadAttr {
  size_t stack_size = kDefaultStackSize;  // usable bytes; a guard page is always added
  int priority = -1;                      // kMinPrio..kMaxPrio, or -1 to inherit the creator's
  SchedPolicy policy = SchedPolicy::kFifo;
  bool inherit_policy = true;  // take policy (not priority) from the creator
  bool detached = false;
  // Lazy (deferred) thread creation — the paper's future-work feature: the TCB is created but
  // the stack allocation and first dispatch are postponed until the thread is first needed
  // (pt_activate, pt_join, pt_kill or pt_cancel on it).
  bool lazy = false;
  const char* name = nullptr;  // up to 15 chars, for thread dumps and traces
};

// Snapshot of scheduler statistics (see pt_stats).
struct RuntimeStats {
  uint64_t ctx_switches;
  uint64_t dispatches;
  uint64_t preemptions;
  uint64_t deferred_signals;   // signals logged while in the Pthreads kernel
  uint64_t forced_switches;    // context switches forced by a perverted policy
  uint64_t kernel_entries;
  uint32_t live_threads;
};

// ---------------------------------------------------------------------------------------
// Runtime control
// ---------------------------------------------------------------------------------------

// Initializes the runtime (idempotent). Called implicitly by every entry point; call it
// explicitly to control when the universal signal handlers are installed.
void pt_init();

// Tears the runtime down and re-initializes. Only legal from the main thread with every other
// thread joined or reaped. Exists for test suites; see DESIGN.md.
void pt_reinit();

// Statistics snapshot.
RuntimeStats pt_stats();

// Writes a table of threads to stderr (signal safe), followed by the counter block as a
// footer. max_threads caps the table (0 = all live threads; large-scale callers pass a small
// cap and get a "... and N more" line instead of a million rows).
void pt_dump_threads(uint32_t max_threads = 0);

// ---------------------------------------------------------------------------------------
// Observability: per-thread metrics and trace export (DESIGN.md "Observability")
// ---------------------------------------------------------------------------------------

// Turns metrics collection on or off at runtime. Enabling resets all counters and starts
// time-in-state accounting from "now". No-op (stays off) in the internal fsup_noobs build,
// where observation is compiled out. Also enabled at init by setting the FSUP_METRICS
// environment variable to a non-"0" value.
void pt_metrics_enable(bool on);
bool pt_metrics_enabled();

// Consistent snapshot of all counters, latency histograms and per-thread accounting. Always
// callable; with metrics disabled the kernel totals are still live, the gated counters and
// histograms are zero/empty (empty histograms report percentile 0).
debug::metrics::MetricsSnapshot pt_metrics_snapshot();

// Writes a human-readable metrics report to fd. Returns 0 or an errno value. max_threads
// caps the per-thread table, same contract as pt_dump_threads.
int pt_metrics_dump(int fd, uint32_t max_threads = 0);

// Writes the trace ring to `path` as Chrome trace_event JSON (loadable in Perfetto or
// chrome://tracing). Returns 0 or an errno value. Also triggered at process exit by setting
// the FSUP_TRACE_FILE environment variable.
int pt_trace_dump(const char* path);

// Logs a caller-defined event into the trace ring (trace::Event::kUser) — lets application
// milestones line up with scheduler events in an exported timeline.
void pt_trace_user(uint32_t a, uint32_t b);

// Statistical on-/off-CPU profiler (DESIGN.md "Profiling"). pt_profile_start arms a sampling
// session at `hz` samples/s (<= 0 picks the default, 997 Hz): on-CPU stacks via SIGPROF —
// or, under FSUP_RECORD/FSUP_REPLAY, deterministically from the timer tick — plus blocked-
// time attribution per (stack × wait object) from the dispatcher. Returns 0, EBUSY if a
// session is already active, or the errno of a failed host call. Also armed at init by the
// FSUP_PROFILE / FSUP_PROFILE_HZ / FSUP_PROFILE_FILE / FSUP_STATS_SHM environment variables.
int pt_profile_start(int hz);

// Ends the session (joins the collector thread); aggregates survive for pt_profile_dump.
// Returns 0 or EINVAL when no session is active.
int pt_profile_stop();

bool pt_profile_active();

// Writes folded-stack profiles: <path> (on-CPU, flamegraph.pl-compatible "0xPC;0xPC count"),
// <path>.offcpu (blocked microseconds, wait tag as leaf frame) and <path>.maps
// (/proc/self/maps copy for offline symbolization). Returns 0 or an errno value.
int pt_profile_dump(const char* path);

// Cumulative committed samples this session (on-CPU + off-CPU). Deterministic across a
// record→replay pair when tick sampling is in effect.
uint64_t pt_profile_samples();

// ---------------------------------------------------------------------------------------
// Thread management
// ---------------------------------------------------------------------------------------

// Creates a thread running fn(arg). attr == nullptr uses defaults. EAGAIN when resources are
// exhausted.
int pt_create(pt_thread_t* thread, const ThreadAttr* attr, void* (*fn)(void*), void* arg);

// Waits for `thread` to terminate; its return value (or kCanceled) lands in *retval.
// EDEADLK on self-join or join cycles, EINVAL for detached threads, ESRCH for unknown ones.
int pt_join(pt_thread_t thread, void** retval);

// Marks the thread detached: its resources are reclaimed on termination.
int pt_detach(pt_thread_t thread);

// Terminates the calling thread: cleanup handlers run newest-first, then TSD destructors;
// joiners are woken with `retval`. The process exits when the last thread terminates.
[[noreturn]] void pt_exit(void* retval);

// Activates a lazily created thread (no-op for active threads).
int pt_activate(pt_thread_t thread);

pt_thread_t pt_self();
bool pt_equal(pt_thread_t a, pt_thread_t b);
uint32_t pt_id(pt_thread_t t);  // stable small integer, for logs

// Yields the processor: the caller moves to the tail of its priority queue.
void pt_yield();

// ---------------------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------------------

int pt_setprio(pt_thread_t t, int prio);           // base priority, kMinPrio..kMaxPrio
int pt_getprio(pt_thread_t t, int* prio);          // current (possibly boosted) priority
int pt_setschedpolicy(pt_thread_t t, SchedPolicy p);
int pt_getschedpolicy(pt_thread_t t, SchedPolicy* p);

// Enables SCHED_RR time slicing with the given quantum (0 = default). FIFO threads are never
// sliced. Uses the interval timer; see the Table 2 bench for its cost.
void pt_enable_time_slicing(int64_t slice_us);
void pt_disable_time_slicing();

// Selects a perverted scheduling policy for debugging (paper §"Perverted Scheduling").
// The seed parameterizes the random-switch policy; re-running with the same seed reproduces
// the exact interleaving.
void pt_set_perverted(PervertedPolicy policy, uint64_t seed);

// ---------------------------------------------------------------------------------------
// Signals
// ---------------------------------------------------------------------------------------

enum class SigMaskHow { kBlock, kUnblock, kSetMask };

// Sends `signo` to a specific thread (delivery model step 1). Signals 1..63 except SIGKILL,
// SIGSTOP and the internal cancellation signal.
int pt_kill(pt_thread_t t, int signo);

// Adjusts the calling thread's signal mask; newly unmasked pending signals (thread- or
// process-level) are delivered before this returns.
int pt_sigmask(SigMaskHow how, SigSet set, SigSet* old_set);

// Registers a per-thread-deliverable handler for `signo`; it runs on whichever thread the
// delivery model selects, at that thread's priority, with `mask | SigBit(signo)` blocked.
// handler == nullptr restores the default disposition.
int pt_sigaction(int signo, void (*handler)(int), SigSet mask);

// Sets the disposition of `signo` to "ignore".
int pt_sigignore(int signo);

// Pending signals of the calling thread plus the process.
SigSet pt_sigpending();

// Waits for one of `set`; the taken signal number lands in *signo. On return the set is
// masked for the caller (draft-6 semantics). timeout_ns < 0 waits forever; otherwise EAGAIN
// after the (relative) timeout.
int pt_sigwait(SigSet set, int* signo, int64_t timeout_ns = -1);

// Arms a per-thread alarm: SIGALRM is directed at the *calling thread* after delay_ns
// (delivery model recipient rule 3). delay_ns == 0 cancels.
int pt_alarm(int64_t delay_ns);

// From inside a user signal handler: after the handler returns, control transfers to the
// sigsetjmp point `env` (with `val`) instead of the interruption point. This is the
// implementation-defined redirection hook the paper's Ada runtime uses to turn synchronous
// signals into exceptions.
void pt_handler_redirect(sigjmp_buf* env, int val);

// ---------------------------------------------------------------------------------------
// Cancellation (draft-6 interruptibility API)
// ---------------------------------------------------------------------------------------

// Requests cancellation of t; the action follows the paper's Table 1.
int pt_cancel(pt_thread_t t);

// Enables/disables interruptibility. Returns the previous state through *old if non-null.
int pt_setintr(bool enabled, Interruptibility* old = nullptr);

// Selects controlled (acted on at interruption points) vs asynchronous cancellation.
int pt_setintrtype(bool asynchronous, Interruptibility* old = nullptr);

// Explicit interruption point: acts on a pending enabled cancellation (does not return then).
void pt_testintr();

// Cleanup handlers — function-based, not macros (see the paper's language-independence
// argument). Push registers fn(arg) to run at cancellation/exit; Pop removes the newest and
// optionally runs it.
void pt_cleanup_push(void (*fn)(void*), void* arg);
int pt_cleanup_pop(bool execute);

// ---------------------------------------------------------------------------------------
// Thread-specific data
// ---------------------------------------------------------------------------------------

int pt_key_create(pt_key_t* key, void (*destructor)(void*));
int pt_key_delete(pt_key_t key);
int pt_setspecific(pt_key_t key, void* value);
void* pt_getspecific(pt_key_t key);

// ---------------------------------------------------------------------------------------
// Mutexes and condition variables
// ---------------------------------------------------------------------------------------

int pt_mutex_init(pt_mutex_t* m, const pt_mutexattr_t* attr = nullptr);
int pt_mutex_destroy(pt_mutex_t* m);
int pt_mutex_lock(pt_mutex_t* m);     // EDEADLK on relock by the owner
int pt_mutex_trylock(pt_mutex_t* m);  // EBUSY when held
int pt_mutex_unlock(pt_mutex_t* m);   // EPERM when not the owner
int pt_mutex_setceiling(pt_mutex_t* m, int ceiling, int* old_ceiling = nullptr);

int pt_cond_init(pt_cond_t* c);
int pt_cond_destroy(pt_cond_t* c);
// Atomically unlocks m and waits; m is re-held on EVERY return path: re-locked by this call
// for 0/ETIMEDOUT, re-acquired by the fake-call wrapper (before the handler ran) for EINTR —
// which reports that a user signal handler terminated the wait (draft-6 behaviour the paper
// implements; see cond.hpp).
int pt_cond_wait(pt_cond_t* c, pt_mutex_t* m);
int pt_cond_timedwait(pt_cond_t* c, pt_mutex_t* m, int64_t timeout_ns);  // relative timeout
int pt_cond_signal(pt_cond_t* c);
int pt_cond_broadcast(pt_cond_t* c);

// ---------------------------------------------------------------------------------------
// Semaphores, reader-writer locks, barriers, once
// ---------------------------------------------------------------------------------------

int pt_sem_init(pt_sem_t* s, int initial);
int pt_sem_destroy(pt_sem_t* s);
int pt_sem_wait(pt_sem_t* s);     // Dijkstra P
int pt_sem_trywait(pt_sem_t* s);  // EAGAIN instead of blocking
int pt_sem_post(pt_sem_t* s);     // Dijkstra V
int pt_sem_getvalue(pt_sem_t* s, int* value);

int pt_rwlock_init(pt_rwlock_t* rw);
int pt_rwlock_destroy(pt_rwlock_t* rw);
int pt_rwlock_rdlock(pt_rwlock_t* rw);
int pt_rwlock_tryrdlock(pt_rwlock_t* rw);
int pt_rwlock_wrlock(pt_rwlock_t* rw);
int pt_rwlock_trywrlock(pt_rwlock_t* rw);
int pt_rwlock_unlock(pt_rwlock_t* rw);

int pt_barrier_init(pt_barrier_t* b, int count);
int pt_barrier_destroy(pt_barrier_t* b);
int pt_barrier_wait(pt_barrier_t* b);  // kBarrierSerialThread for one waiter per cycle

int pt_once(pt_once_t* once, void (*fn)());

// ---------------------------------------------------------------------------------------
// Time and I/O
// ---------------------------------------------------------------------------------------

// Suspends the calling thread for duration_ns. Returns 0, or EINTR if a signal handler ran
// before the deadline (the remaining time is not slept).
int pt_delay(int64_t duration_ns);

// Thread-blocking (process-non-blocking) I/O: like read/write but only the calling thread
// suspends while the fd is not ready. Return counts or -1 with errno (EINTR included).
// Sockets use recv/send with MSG_DONTWAIT and keep their file flags untouched (a broken
// connection still raises SIGPIPE). Every other fd — pipe, FIFO, eventfd, tty, regular file —
// gets O_NONBLOCK set on its open file description, which other processes sharing that
// description also see.
long pt_read(int fd, void* buf, size_t count);
long pt_write(int fd, const void* buf, size_t count);

// Per-thread errno (swapped with the global errno at context switches, as in the paper).
int pt_errno();

}  // namespace fsup

#endif  // FSUP_SRC_CORE_PTHREAD_HPP_
