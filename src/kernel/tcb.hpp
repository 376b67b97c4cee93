// The thread control block (TCB).
//
// One TCB per thread, pooled together with its stack (the paper pre-caches both to cut the 70%
// of creation time SunOS spent in the allocator). All scheduler queues link through nodes
// embedded here; the kernel never allocates on scheduling paths.

#ifndef FSUP_SRC_KERNEL_TCB_HPP_
#define FSUP_SRC_KERNEL_TCB_HPP_

#include <cstddef>
#include <cstdint>

#include "src/arch/context.hpp"
#include "src/kernel/types.hpp"
#include "src/util/intrusive_list.hpp"

namespace fsup {

struct Mutex;
struct Cond;
struct Tcb;

// A pending or armed per-thread timer. Each thread embeds two: one for blocking timeouts
// (timedwait / delay / sigwait timeout) and one for pt_alarm. Armed entries live in the
// kernel's deadline min-heap (timer_heap.hpp); heap_idx is the entry's current heap slot so
// cancellation can remove it in O(log n) without a search.
struct TimerEntry {
  int32_t heap_idx = -1;  // slot in the kernel timer heap, -1 while disarmed
  Tcb* owner = nullptr;
  int64_t deadline_ns = 0;
  bool armed = false;

  enum class Kind : uint8_t { kBlockTimeout, kAlarm } kind = Kind::kBlockTimeout;
};

// Bookkeeping for one fake call in flight on a thread (paper Figure 3): which user handler to
// run, the mask to restore afterwards, and whether a conditional wait has to be terminated by
// re-acquiring its mutex first.
struct FakeRec {
  int signo = 0;
  SigSet saved_mask = 0;
  void (*handler)(int) = nullptr;
  Mutex* reacquire_mutex = nullptr;
  bool in_use = false;
  // The handler targets the *running* thread: no frame is pushed; the record is drained by
  // RunSelfHandlers() right after the kernel is exited (the live call frame plays the role of
  // the fake one). Counted in Tcb::self_direct_recs.
  bool self_direct = false;
};

// Cleanup handlers are a per-thread stack of real function registrations — deliberately not
// the lexical-scope macro pair the standard suggests (see the paper's language-independence
// discussion). `next` comes first: it also links the recycled-node list, whose push and pop
// are restartable atomic sequences over the first word (arch/ras.hpp).
struct CleanupNode {
  CleanupNode* next = nullptr;
  void (*fn)(void*) = nullptr;
  void* arg = nullptr;
};

// Per-thread metrics accumulators (debug/metrics.hpp). Always present so the TCB layout does
// not depend on the observer mask; with metrics disabled the fields simply stay zero. All
// mutation happens under the kernel monitor.
struct TcbMetrics {
  // Mutex holds the metrics consumer is timing (lock event -> matching unlock event), keyed by
  // mutex tag and tag generation: record/replay start rewinds the tag counter, so a mutex
  // created after that can share its tag with an older one, never its generation too. A hold
  // opened while all kHeldSlots slots are busy is not sampled (a lost hold sample, never a
  // lost wait sample or count).
  static constexpr int kHeldSlots = 4;
  struct Held {
    uint32_t tag = 0;    // mutex tag, 0 = free slot
    uint16_t gen = 0;    // the mutex's tag generation
    uint16_t depth = 0;  // recursive re-acquisitions on top of the first
    int64_t since_ns = 0;
  };

  uint64_t voluntary = 0;      // context switches away while blocking/yielding
  uint64_t preempted = 0;      // context switches away forced by preemption / the slice
  uint64_t fake_calls = 0;     // fake-call frames pushed for this thread
  uint64_t mutex_blocks = 0;   // contended mutex acquisitions (suspended at least once)
  int64_t mutex_wait_ns = 0;   // total contended-acquisition wait
  int64_t running_ns = 0;      // time-in-state accumulators...
  int64_t ready_ns = 0;
  int64_t blocked_ns = 0;
  int64_t state_since_ns = 0;  // ...clocked from this stamp (0 = not yet stamped)
  int64_t wait_since_ns = 0;   // first mutex block of the acquisition in progress (0 = none)
  Held held[kHeldSlots];
  uint8_t acct_state = 0;      // ThreadState the open interval belongs to
  // Lazy-reset generation: metrics::Enable bumps a global epoch instead of walking every
  // thread; an event that finds a stale epoch zeroes this struct first (O(1) enable at any
  // thread count).
  uint32_t epoch = 0;
};

// Per-thread off-CPU profiler capture (debug/profiler.hpp). When profiling is on, Suspend
// snapshots the blocking call stack here; MakeReady turns it into one weighted off-CPU sample
// (weight = blocked nanoseconds). `session` stamps which profiling session took the capture so
// a stop/start cycle can't attribute a stale pre-stop capture to the new session. Always
// present so the TCB layout is independent of profiler state; idle cost is zero stores.
struct TcbProfile {
  static constexpr int kMaxDepth = 8;
  int64_t block_since_ns = 0;
  uint32_t session = 0;
  uint32_t block_tag = 0;    // sync-object tag (mutex#/cond#) or 0
  uint8_t block_reason = 0;  // BlockReason raw value
  uint8_t depth = 0;         // 0 = no capture open
  uintptr_t pcs[kMaxDepth] = {};
};

struct Tcb {
  // -- queue membership ------------------------------------------------------------------
  ListNode link;      // ready queue or (exclusive) the wait queue of whatever blocks us
  ListNode all_link;  // kernel's list of every live thread

  uint32_t id = 0;
  uint32_t magic = 0;  // kTcbMagic while alive; scrubbed on destruction
  char name[16] = {};

  // -- execution state -------------------------------------------------------------------
  Context ctx;
  ThreadState state = ThreadState::kReady;
  BlockReason block_reason = BlockReason::kNone;
  bool detached = false;
  bool lazy = false;  // created with deferred activation; first reference activates it

  // True while the thread's saved frame has a UNIX signal frame pending on top of it (it was
  // preempted inside the universal signal handler). Dispatchers must block process signals
  // before resuming such a thread — the paper's defence against unbounded stack growth.
  bool interrupted_by_signal = false;

  int prio = kDefaultPrio;       // current, possibly boosted by a mutex protocol
  int base_prio = kDefaultPrio;  // as assigned by creation attributes / pt_setprio
  SchedPolicy policy = SchedPolicy::kFifo;

  // Ready-queue level this thread is queued on, or -1. Normally == prio, but the perverted
  // policies park threads on the lowest occupied level regardless of priority.
  int8_t queued_level = -1;

  // -- stack -----------------------------------------------------------------------------
  void* stack_base = nullptr;  // usable low address (guard page below)
  // Mapped usable bytes; while stack_base is null (a lazy thread not yet activated), the
  // requested size its activation will attach.
  size_t stack_size = 0;
  bool stack_pooled = false;

  ThreadEntry entry = nullptr;
  void* entry_arg = nullptr;
  void* retval = nullptr;

  // Per-thread UNIX error number; swapped with the global errno at context switch, exactly as
  // the paper swaps SPARC's global errno.
  int err_no = 0;

  // -- signals ---------------------------------------------------------------------------
  SigSet sigmask = 0;   // blocked signals
  SigSet pending = 0;   // signals pending on this thread
  SigSet sigwait_set = 0;
  int sigwait_received = 0;
  FakeRec fake_recs[kMaxFakeRecs];
  // fake_recs entries with self_direct set: every kernel exit asks whether this is nonzero.
  uint8_t self_direct_recs = 0;

  // Optional control redirection requested by a user handler (the Ada hook): applied by the
  // fake-call wrapper after the handler returns.
  void* redirect_env = nullptr;  // sigjmp_buf*
  int redirect_val = 0;

  // -- cancellation ----------------------------------------------------------------------
  bool intr_enabled = true;  // pt_setintr: ENABLE / DISABLE
  bool intr_async = false;   // pt_setintrtype: CONTROLLED / ASYNCHRONOUS

  Interruptibility interruptibility() const {
    if (!intr_enabled) {
      return Interruptibility::kDisabled;
    }
    return intr_async ? Interruptibility::kAsynchronous : Interruptibility::kControlled;
  }

  // -- cleanup & TSD ---------------------------------------------------------------------
  CleanupNode* cleanup_head = nullptr;
  // Bit i set once this thread stores a non-NULL tsd[i], cleared only by exit's destructor
  // pass: a superset of the non-NULL slots, so exit visits the keys the thread set, not all.
  uint64_t tsd_set = 0;
  void* tsd[kMaxTsdKeys] = {};

  // -- synchronization bookkeeping -------------------------------------------------------
  Mutex* waiting_on_mutex = nullptr;
  Cond* waiting_on_cond = nullptr;
  Mutex* cond_mutex = nullptr;   // mutex to re-acquire when the conditional wait ends
  bool cond_signalled = false;   // woken by pt_cond_signal/broadcast (vs timeout/interrupt)
  bool cond_interrupted = false; // conditional wait terminated by a user signal handler
  // Broadcast moved this waiter from the condition variable's queue onto cond_mutex's wait
  // queue without waking it (wake-one + requeue). The thread is suspended inside CondWait but
  // blocks with reason kMutex and waiting_on_mutex set, so the wait-for-graph detector and
  // priority repositioning see an ordinary mutex waiter; this flag tells interruption and
  // cancellation that the logical wait is still the conditional one.
  bool cond_requeued = false;
  bool timed_out = false;

  Mutex* owned_head = nullptr;  // singly linked list of held mutexes (inheritance search)

  int srp_stack[kMaxCeilDepth] = {};  // saved priorities for the ceiling (SRP) protocol
  int srp_depth = 0;

  // -- join ------------------------------------------------------------------------------
  IntrusiveList<Tcb, &Tcb::link> joiners;  // threads blocked joining on us
  Tcb* join_target = nullptr;
  bool join_satisfied = false;  // set by the target's exit, with join_result
  void* join_result = nullptr;

  // -- I/O -------------------------------------------------------------------------------
  bool io_ready = false;   // set when the awaited fd became ready (vs EINTR wakeup)
  short io_events = 0;     // poll(2) event mask this thread is waiting for
  void* io_wait_node = nullptr;  // io::FdState whose wait list holds us (via link), or null

  // -- timers ----------------------------------------------------------------------------
  TimerEntry block_timer;
  TimerEntry alarm_timer;

  // -- statistics ------------------------------------------------------------------------
  uint64_t switches_in = 0;        // times this thread was dispatched
  uint64_t signals_taken = 0;      // user handlers run on this thread
  TcbMetrics metrics;              // metrics consumer accumulators (debug/metrics.hpp)
  TcbProfile profile;              // off-CPU capture buffer (debug/profiler.hpp)

  bool terminated() const { return state == ThreadState::kTerminated; }
};

inline constexpr uint32_t kTcbMagic = 0x7c6b5a49;

// True if t looks like a live TCB created by this library (cheap validation on API entry).
inline bool TcbValid(const Tcb* t) { return t != nullptr && t->magic == kTcbMagic; }

}  // namespace fsup

#endif  // FSUP_SRC_KERNEL_TCB_HPP_
