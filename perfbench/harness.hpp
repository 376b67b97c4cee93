// Shared machinery of the end-to-end benchmark: the clock, the traced wrappers around every
// public fsup call a workload makes, the span ring, per-op bookkeeping and counter snapshots.
//
// Tracing lives entirely in this benchmark. It never turns on the library's own trace,
// metrics, perverted scheduling or profiler: the first three demote the sync fast path and
// the profiler adds SIGPROF sampling, so the traced run would measure a different program.
//
// All fsup threads run on one OS thread and switch only inside fsup calls, so the plain
// globals below need no atomics. The exceptions are the values signal handlers write.

#ifndef FSUP_PERFBENCH_HARNESS_HPP_
#define FSUP_PERFBENCH_HARNESS_HPP_

#include <x86intrin.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/pthread.hpp"
#include "src/hostos/unix_if.hpp"
#include "src/io/io.hpp"

namespace perfbench {

using namespace fsup;

inline uint64_t Tsc() { return __rdtsc(); }
int64_t MonoNs();

// splitmix64: the seeded generator behind every workload input and latency sample.
struct Rng {
  uint64_t s;
  uint64_t Next() {
    uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint32_t Below(uint32_t n) { return static_cast<uint32_t>(Next() % n); }
};

// Ticks per nanosecond, measured against CLOCK_MONOTONIC.
double TicksPerNs();
void CalibrateTicks(int64_t spin_ns);

// The host's current speed. A shared VM runs the same code up to ~1.5x slower for seconds to
// minutes at a time, as its neighbours load the machine. ReferenceTicks() times a fixed kernel
// that uses no fsup code (indirect calls, data-dependent branches, loads and stores over 32
// pages, like runtime code) and returns the median of five timings, ~0.1 ms in all.
// HostScale(ticks) is the factor that turns a duration measured at that speed into one at
// the nominal speed (the kernel taking kReferenceNs), so a slow host does not read as a slow
// program.
uint64_t ReferenceTicks();
constexpr double kReferenceNs = 20000;
inline double HostScale(uint64_t reference_ticks) {
  return kReferenceNs * TicksPerNs() / static_cast<double>(reference_ticks);
}

// ----- spans ----------------------------------------------------------------------------

enum class Layer : uint8_t { kSync, kKernel, kIo, kSignals, kTsd, kCancel, kApp, kCount };

enum class Name : uint8_t {
  kLock,
  kUnlock,
  kCondWait,
  kCondTimedwait,
  kCondSignal,
  kCondBroadcast,
  kCreate,
  kJoin,
  kRead,
  kWrite,
  kKill,     // kill(2) of the own process: an external signal
  kPtKill,   // pt_kill: an internal signal
  kSigwait,
  kSetspecific,
  kCleanupPush,
  kCleanupPop,
  kWork,     // the benchmark's own per-op computation
  kCount,
};

Layer LayerOf(Name n);
const char* LayerName(Layer l);
const char* SpanName(Name n);

inline constexpr uint32_t kPendingOp = 0xffffffffu;  // op id assigned after the span ended

struct Span {
  uint64_t start;
  uint64_t end;
  uint32_t id;
  uint32_t parent;
  uint32_t op;
  uint16_t thread;
  uint8_t name;
  uint8_t pad;
};
static_assert(sizeof(Span) == 32);

// Per-fsup-thread tracing context. C++ thread_local would be shared by every fsup thread.
struct ThreadCtx {
  uint16_t index = 0;
  uint32_t open = 0;  // id of the innermost open span
  uint64_t pending[32] = {};
  int npending = 0;
};

struct Open {
  uint64_t start;
  uint32_t id;
  uint32_t parent;
};

// A fixed-capacity ring: keeps the most recent `cap` values, counts all.
class Ring {
 public:
  void Reset(size_t cap) {
    v_.assign(cap, 0);
    n_ = 0;
  }
  void Add(uint64_t x) {
    if (!v_.empty()) {
      v_[n_ % v_.size()] = x;
    }
    ++n_;
  }
  std::vector<uint64_t> Values() const;

 private:
  std::vector<uint64_t> v_;
  uint64_t n_ = 0;
};

struct Trace {
  bool on = false;
  std::vector<Span> spans;  // ring, in end order
  uint64_t head = 0;
  uint32_t next_id = 0;

  struct OpRec {
    uint64_t start, end;
    uint32_t op;
  };
  std::vector<OpRec> ops;  // ring of completed ops
  uint64_t ops_head = 0;

  // Samples derived around calls (ticks), and the per-call counters.
  Ring handoff, exit_to_join, external, internal, sigwait, timedwait;
  uint64_t lock_calls = 0, lock_slow = 0;
  // Kernel entries of the lock calls that did not switch context: a blocked call would also
  // count the entries other threads made while it slept.
  uint64_t lock_unswitched = 0, lock_unswitched_entries = 0;
  uint64_t read_calls = 0, read_blocked = 0;
  uint32_t live_peak = 0;
};
extern Trace g_trace;

inline Open Begin(ThreadCtx& c) {
  Open o{Tsc(), ++g_trace.next_id, c.open};
  c.open = o.id;
  return o;
}

inline uint64_t End(ThreadCtx& c, const Open& o, Name n, uint32_t op) {
  const uint64_t end = Tsc();
  c.open = o.parent;
  Trace& t = g_trace;
  const uint64_t pos = t.head++;
  t.spans[pos % t.spans.size()] =
      Span{o.start, end, o.id, o.parent, op, c.index, static_cast<uint8_t>(n), 0};
  if (op == kPendingOp && c.npending < 32) {
    c.pending[c.npending++] = pos;
  }
  return end;
}

// Gives every span this thread ended with kPendingOp since the last call the op id `op`.
void AssignPending(ThreadCtx& c, uint32_t op);

// A span around benchmark code, for the app layer.
class WorkSpan {
 public:
  WorkSpan(ThreadCtx& c, uint32_t op) : c_(c), op_(op) {
    if (g_trace.on) {
      o_ = Begin(c);
    }
  }
  ~WorkSpan() {
    if (g_trace.on) {
      End(c_, o_, Name::kWork, op_);
    }
  }
  WorkSpan(const WorkSpan&) = delete;
  WorkSpan& operator=(const WorkSpan&) = delete;

 private:
  ThreadCtx& c_;
  uint32_t op_;
  Open o_{};
};

// ----- traced wrappers ------------------------------------------------------------------
// Untraced, each is the bare fsup call behind one predicted branch.

struct Mtx {
  pt_mutex_t m;
  uint64_t unlock_tsc = 0;  // start of the latest traced unlock (handoff origin)
};

struct Cv {
  pt_cond_t c;
  int waiters = 0;
  uint64_t sent[64] = {};  // FIFO of traced signal start times owed to waiters
  uint32_t head = 0, tail = 0;
};

int Lock(ThreadCtx& c, Mtx& m, uint32_t op);
int Unlock(ThreadCtx& c, Mtx& m, uint32_t op);
int CondWait(ThreadCtx& c, Cv& cv, Mtx& m, uint32_t op);
int CondTimedwait(ThreadCtx& c, Cv& cv, Mtx& m, int64_t timeout_ns, uint32_t op);
int CondSignal(ThreadCtx& c, Cv& cv, uint32_t op);
int CondBroadcast(ThreadCtx& c, Cv& cv, uint32_t op);
int Create(ThreadCtx& c, pt_thread_t* t, const ThreadAttr* a, void* (*fn)(void*), void* arg,
           uint32_t op);
int Join(ThreadCtx& c, pt_thread_t t, void** ret, uint32_t op);
long Read(ThreadCtx& c, int fd, void* buf, size_t n, uint32_t op);
long Write(ThreadCtx& c, int fd, const void* buf, size_t n, uint32_t op);
int KillSelf(ThreadCtx& c, int signo, uint32_t op);
int PtKill(ThreadCtx& c, pt_thread_t t, int signo, uint32_t op);
int Sigwait(ThreadCtx& c, SigSet set, int* signo, uint32_t op);
int SetSpecific(ThreadCtx& c, pt_key_t key, void* v, uint32_t op);
void CleanupPush(ThreadCtx& c, void (*fn)(void*), void* arg, uint32_t op);
int CleanupPop(ThreadCtx& c, bool execute, uint32_t op);

// ----- per-op bookkeeping ----------------------------------------------------------------

struct Counters {
  RuntimeStats rs{};
  uint64_t host[static_cast<int>(hostos::Call::kCount)] = {};
  uint64_t host_total = 0;
  io::IoStats io{};
  uint64_t pool_reuses = 0, pool_maps = 0, lazy_commits = 0, ras = 0;
};
Counters Sample();

// The timed window's op log. Warm-up ops run the same code with `recording` off.
struct OpLog {
  bool recording = false;
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t fixed_k = 0;  // op count at which `at_k` is taken (count-stability window)
  Counters at_k{};
  bool have_k = false;
  uint64_t start_tsc = 0, slice_ticks = 1;  // op end times slice the window
  std::vector<uint64_t> slice_ops;           // ops completed per slice
  // ReferenceTicks() at each slice's first op end (0: no op ended in it) and the ticks that
  // measurement took, which are not the program's.
  std::vector<uint64_t> slice_ref, slice_pause;
  uint64_t cur_slice = 0;
  std::vector<uint32_t> samples;  // latency (ticks, saturated), uniform sample (Algorithm R)
  std::vector<uint8_t> sample_slice;  // the slice each sample ended in
  Rng rng{0};
  uint32_t next_op = 0;
};
extern OpLog g_log;

inline uint32_t NewOp() { return ++g_log.next_op; }

// Records one finished op: its latency, whether its output checked out, and (traced) its
// interval for the layer breakdown.
void Complete(uint32_t op, uint64_t start, uint64_t end, bool ok);

// Counts a failure that belongs to no single op (an end-of-run check).
inline void Fail() { ++g_log.failed; }

// Ends the run without a result when set-up cannot build the workload (rc is 0 or an errno).
void Must(int rc, const char* what);

}  // namespace perfbench

#endif  // FSUP_PERFBENCH_HARNESS_HPP_
