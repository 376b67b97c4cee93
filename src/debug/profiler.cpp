#include "src/debug/profiler.hpp"

#include <fcntl.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "src/core/pthread.hpp"
#include "src/debug/metrics.hpp"
#include "src/debug/obs.hpp"
#include "src/debug/replay.hpp"
#include "src/debug/stats_shm.hpp"
#include "src/hostos/unix_if.hpp"
#include "src/kernel/kernel.hpp"
#include "src/kernel/stack_pool.hpp"
#include "src/util/assert.hpp"
#include "src/util/dual_loop_timer.hpp"
#include "src/util/log.hpp"

// glibc records the main thread's stack top here at startup; it is the only reliable upper
// walk bound for the main stack (the kernel grows it downward, /proc parsing is not
// signal-safe). Library stacks carry their own bounds in the TCB.
extern "C" void* __libc_stack_end;

namespace fsup::debug::profiler {

volatile bool g_signal_sampling = false;

namespace {

static_assert(kStatsShmMaxDepth == TcbProfile::kMaxDepth,
              "shm layout and TCB capture disagree on the off-CPU depth");

// ---------------------------------------------------------------------------------------------
// The sample ring. Writers are the SIGPROF sampler (signal context, may interrupt anything),
// and the in-kernel emitters (tick sampling, off-CPU wakes). A writer reserves a slot with a
// bounded CAS (dropping when the ring is full), fills it, and commits. The collector drains
// in-kernel under the g_draining flag: the SIGPROF sampler — the only writer that could run
// concurrently with a drain on this single OS thread — sees the flag and skips, and any
// in-kernel writer's frame has necessarily unwound by the time the collector runs, so at drain
// time reserved == committed and every slot below the cursor is fully written.
// ---------------------------------------------------------------------------------------------

constexpr int kMaxDepth = 24;   // on-CPU frames kept per sample
constexpr int kRingCap = 4096;  // samples buffered between collector drains

struct Sample {
  uint64_t weight;  // on-CPU: 1; off-CPU: blocked nanoseconds
  uint32_t tid;
  uint32_t tag;     // wait-object tag (off-CPU), 0 otherwise
  uint8_t kind;     // 0 = on-CPU, 1 = off-CPU
  uint8_t reason;   // BlockReason raw value (off-CPU)
  uint8_t depth;
  uintptr_t pcs[kMaxDepth];  // leaf first
};

Sample g_ring[kRingCap];
std::atomic<uint64_t> g_reserved{0};
std::atomic<uint64_t> g_committed{0};
std::atomic<uint64_t> g_read{0};     // drain cursor; sampler reads it to bound reservation
std::atomic<uint64_t> g_dropped{0};  // ring-full + drain-window + agg-cap drops
volatile bool g_draining = false;

// Returns false when the sample was dropped.
bool EmitSample(const Sample& s) {
  uint64_t seq = g_reserved.load(std::memory_order_relaxed);
  for (int tries = 0;; ++tries) {
    if (seq - g_read.load(std::memory_order_relaxed) >= kRingCap || tries >= 8) {
      g_dropped.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (g_reserved.compare_exchange_weak(seq, seq + 1, std::memory_order_relaxed)) {
      break;
    }
  }
  g_ring[seq % kRingCap] = s;
  g_committed.fetch_add(1, std::memory_order_release);
  return true;
}

uint64_t g_offcpu_emitted = 0;  // off-CPU samples committed to the ring (in-kernel writer)

// ---------------------------------------------------------------------------------------------
// Frame-pointer stack walking. The library builds with -fno-omit-frame-pointer, so a frame is
// [rbp] = caller's rbp, [rbp+8] = return address. Every dereference is bounds-checked against
// the thread's stack interval [stack_base, top), so the walker can never touch the guard page.
// A walk that immediately fails the bounds check degrades to a leaf-only sample — a counted,
// attributable outcome, never a crash.
// ---------------------------------------------------------------------------------------------

struct WalkBounds {
  uintptr_t lo = 0;
  uintptr_t hi = 0;
};

// Bounds for walking t's stack starting at stack pointer sp. t == nullptr or a TCB without a
// library stack means the main thread, whose top glibc recorded in __libc_stack_end.
WalkBounds BoundsFor(const Tcb* t, uintptr_t sp) {
  WalkBounds b;
  if (t != nullptr && t->stack_base != nullptr) {
    b.lo = reinterpret_cast<uintptr_t>(t->stack_base);
    b.hi = reinterpret_cast<uintptr_t>(t->stack_base) + t->stack_size;
    if (sp > b.lo && sp <= b.hi) {
      b.lo = sp;  // nothing below the live SP is a frame
    }
    if (sp < b.lo || sp > b.hi) {
      return {};  // SP outside the stack (mid-switch): leaf-only sample
    }
  } else {
    b.lo = sp;
    b.hi = reinterpret_cast<uintptr_t>(__libc_stack_end);
    if (b.hi <= b.lo) {
      return {};
    }
  }
  return b;
}

int WalkFrames(uintptr_t pc, uintptr_t fp, const WalkBounds& b, uintptr_t* out, int max) {
  int n = 0;
  if (pc != 0) {
    out[n++] = pc;
  }
  if (b.hi == 0) {
    return n;
  }
  uintptr_t prev = 0;
  while (n < max) {
    if ((fp & 7) != 0 || fp < b.lo || fp + 16 > b.hi || fp <= prev) {
      break;
    }
    const uintptr_t ret = reinterpret_cast<const uintptr_t*>(fp)[1];
    const uintptr_t next = reinterpret_cast<const uintptr_t*>(fp)[0];
    if (ret < 4096) {
      break;  // not a code address: past the outermost frame
    }
    out[n++] = ret;
    prev = fp;
    fp = next;
  }
  return n;
}

// ---------------------------------------------------------------------------------------------
// Aggregation (collector-side, in-kernel). Samples fold into (stack hash → weight/count); the
// entry cap bounds memory on adversarial stack diversity, overflow counts as drops.
// ---------------------------------------------------------------------------------------------

struct Agg {
  uint64_t weight = 0;
  uint64_t count = 0;
  uint32_t tag = 0;
  uint8_t reason = 0;
  uint8_t depth = 0;
  uintptr_t pcs[kMaxDepth] = {};
};

constexpr size_t kMaxAggEntries = 65536;

std::unordered_map<uint64_t, Agg>* g_oncpu_agg = nullptr;
std::unordered_map<uint64_t, Agg>* g_offcpu_agg = nullptr;

uint64_t HashSample(const Sample& s) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(s.kind);
  mix(s.tag);
  mix(s.reason);
  mix(s.depth);
  for (int i = 0; i < s.depth; ++i) {
    mix(s.pcs[i]);
  }
  return h;
}

void Fold(const Sample& s) {
  auto* agg = s.kind == 0 ? g_oncpu_agg : g_offcpu_agg;
  const uint64_t h = HashSample(s);
  auto it = agg->find(h);
  if (it == agg->end()) {
    if (agg->size() >= kMaxAggEntries) {
      g_dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Agg a;
    a.tag = s.tag;
    a.reason = s.reason;
    a.depth = s.depth;
    std::memcpy(a.pcs, s.pcs, sizeof(uintptr_t) * s.depth);
    it = agg->emplace(h, a).first;
  }
  it->second.weight += s.weight;
  it->second.count += 1;
  if (s.kind != 0) {
    counters::Bump(counters::kProfilerOffcpuSamples);
    counters::g_block[counters::kProfilerOffcpuBlockedNs] += s.weight;
  }
}

// Drains [g_read, reserved) into the aggregates. In-kernel only; see the ring comment for why
// reserved == committed holds here.
void DrainRing() {
  g_draining = true;
  std::atomic_signal_fence(std::memory_order_seq_cst);
  const uint64_t reserved = g_reserved.load(std::memory_order_relaxed);
  FSUP_ASSERT(reserved == g_committed.load(std::memory_order_acquire));
  for (uint64_t i = g_read.load(std::memory_order_relaxed); i != reserved; ++i) {
    Fold(g_ring[i % kRingCap]);
  }
  g_read.store(reserved, std::memory_order_relaxed);
  std::atomic_signal_fence(std::memory_order_seq_cst);
  g_draining = false;
}

// ---------------------------------------------------------------------------------------------
// Session state
// ---------------------------------------------------------------------------------------------

bool g_active = false;
bool g_itimer_armed = false;  // live mode: ITIMER_PROF owns the sampling cadence
int g_hz = kDefaultHz;
uint32_t g_session = 0;  // stamps off-CPU captures; stale captures are ignored
bool g_collector_stop = false;
pt_thread_t g_collector = nullptr;

StatsShm* g_shm = nullptr;

// Perfetto counter tracks: one point per collection period, fixed overwrite ring.
constexpr int kCounterCap = 256;
CounterPoint g_counter_ring[kCounterCap];
uint64_t g_counter_total = 0;

constexpr int64_t kCollectPeriodNs = 20 * 1000 * 1000;

void TopStacks(const std::unordered_map<uint64_t, Agg>& agg, StatsShmStack* out, int n) {
  for (int i = 0; i < n; ++i) {
    out[i] = StatsShmStack{};
  }
  for (const auto& [h, a] : agg) {
    // Insertion sort into the fixed top-N array, descending by weight.
    int slot = n;
    while (slot > 0 && a.weight > out[slot - 1].weight) {
      --slot;
    }
    if (slot >= n) {
      continue;
    }
    for (int j = n - 1; j > slot; --j) {
      out[j] = out[j - 1];
    }
    StatsShmStack& s = out[slot];
    s.weight = a.weight;
    s.count = a.count;
    s.tag = a.tag;
    s.reason = a.reason;
    s.depth = a.depth < kStatsShmMaxDepth ? a.depth : kStatsShmMaxDepth;
    for (int j = 0; j < s.depth; ++j) {
      s.pcs[j] = a.pcs[j];
    }
  }
}

// Publishes one seqlock-versioned frame into the shared segment. In-kernel (single writer).
void PublishShm() {
  if (g_shm == nullptr) {
    return;
  }
  StatsShm* s = g_shm;
  const uint32_t seq = __atomic_load_n(&s->seq, __ATOMIC_RELAXED);
  __atomic_store_n(&s->seq, seq + 1, __ATOMIC_RELAXED);  // odd: update in progress
  __atomic_thread_fence(__ATOMIC_RELEASE);

  s->updated_ns = NowNs();
  metrics::CaptureCounters(&s->block);
  TopStacks(*g_oncpu_agg, s->top_oncpu, kStatsShmTopStacks);
  TopStacks(*g_offcpu_agg, s->top_offcpu, kStatsShmTopStacks);

  __atomic_thread_fence(__ATOMIC_RELEASE);
  __atomic_store_n(&s->seq, seq + 2, __ATOMIC_RELEASE);  // even: frame consistent
}

// One collection period: drain, stamp a counter point, republish the shm frame. In-kernel.
void CollectOnce() {
  DrainRing();
  KernelState& k = kernel::ks();
  CounterPoint p;
  p.t_ns = NowNs();
  p.live_threads = k.live_threads;
  p.ready_depth = static_cast<uint32_t>(k.ready.size());
  p.pool_mapped_bytes = k.pool != nullptr ? k.pool->mapped_bytes() : 0;
  p.samples = g_committed.load(std::memory_order_relaxed);
  g_counter_ring[g_counter_total % kCounterCap] = p;
  ++g_counter_total;
  PublishShm();
}

void* CollectorMain(void*) {
  while (!g_collector_stop) {
    pt_delay(kCollectPeriodNs);
    kernel::Enter();
    CollectOnce();
    kernel::Exit();
  }
  return nullptr;
}

int ArmItimer(int hz) {
  int64_t usec = 1000000 / (hz > 0 ? hz : 1);
  if (usec < 1) {
    usec = 1;
  }
  itimerval v = {};
  v.it_interval.tv_sec = usec / 1000000;
  v.it_interval.tv_usec = usec % 1000000;
  v.it_value = v.it_interval;
  return hostos::Setitimer(ITIMER_PROF, &v, nullptr);
}

void DisarmItimer() {
  itimerval off = {};
  hostos::Setitimer(ITIMER_PROF, &off, nullptr);
}

void ResetSession() {
  const uint64_t reserved = g_reserved.load(std::memory_order_relaxed);
  g_read.store(reserved, std::memory_order_relaxed);  // discard unconsumed samples
  g_dropped.store(0, std::memory_order_relaxed);
  if (g_oncpu_agg == nullptr) {
    g_oncpu_agg = new std::unordered_map<uint64_t, Agg>();
    g_offcpu_agg = new std::unordered_map<uint64_t, Agg>();
  }
  g_oncpu_agg->clear();
  g_offcpu_agg->clear();
  counters::ResetGroup("profiler");
  g_counter_total = 0;
  ++g_session;
}

// ---------------------------------------------------------------------------------------------
// Folded-stacks output
// ---------------------------------------------------------------------------------------------

void WriteFolded(FILE* f, const Agg& a, bool offcpu) {
  // Root first, leaf last — the orientation flamegraph.pl expects. PCs are raw hex frame
  // names; the .maps sidecar lets an offline script rewrite them into symbols.
  for (int i = a.depth - 1; i >= 0; --i) {
    std::fprintf(f, "%s0x%zx", i == a.depth - 1 ? "" : ";", a.pcs[i]);
  }
  if (a.depth == 0) {
    std::fputs("[unknown]", f);
  }
  uint64_t value = a.weight;
  if (offcpu) {
    // Leaf frame names the wait object; the value column is blocked microseconds.
    const char* reason = ToString(static_cast<BlockReason>(a.reason));
    if (a.tag != 0) {
      std::fprintf(f, ";%s#%u", reason, a.tag);
    } else {
      std::fprintf(f, ";%s", reason);
    }
    value = a.weight / 1000;
    if (value == 0) {
      value = 1;
    }
  }
  std::fprintf(f, " %llu\n", static_cast<unsigned long long>(value));
}

int CopyMapsSidecar(const char* path) {
  const int in = ::open("/proc/self/maps", O_RDONLY | O_CLOEXEC);
  if (in < 0) {
    return errno;
  }
  const int out = ::open(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (out < 0) {
    const int err = errno;
    ::close(in);
    return err;
  }
  char buf[4096];
  long n;
  while ((n = ::read(in, buf, sizeof buf)) > 0) {
    long off = 0;
    while (off < n) {
      const long w = ::write(out, buf + off, static_cast<size_t>(n - off));
      if (w < 0) {
        break;
      }
      off += w;
    }
  }
  ::close(in);
  ::close(out);
  return 0;
}

// FSUP_PROFILE_FILE: dump at process exit, same pattern as FSUP_TRACE_FILE.
char g_atexit_path[512] = {};

void AtExitDump() {
  if (g_atexit_path[0] != '\0') {
    Dump(g_atexit_path);
  }
}

}  // namespace

// ---------------------------------------------------------------------------------------------
// Hot-path hooks
// ---------------------------------------------------------------------------------------------

void CaptureBlock(Tcb* t, BlockReason reason, int64_t now, void* fp, void* pc) {
  TcbProfile& p = t->profile;
  p.session = g_session;
  p.block_since_ns = now;
  p.block_reason = static_cast<uint8_t>(reason);
  p.block_tag = 0;
  if (reason == BlockReason::kMutex && t->waiting_on_mutex != nullptr) {
    p.block_tag = t->waiting_on_mutex->tag;
  } else if (reason == BlockReason::kCond && t->waiting_on_cond != nullptr) {
    p.block_tag = t->waiting_on_cond->tag;
  }
  // Walk our own live stack: the chain through Suspend and the sync layer up into user code.
  const auto f = reinterpret_cast<uintptr_t>(fp);
  const WalkBounds b = BoundsFor(t, f);
  uintptr_t pcs[TcbProfile::kMaxDepth];
  const int depth =
      WalkFrames(reinterpret_cast<uintptr_t>(pc), f, b, pcs, TcbProfile::kMaxDepth);
  p.depth = static_cast<uint8_t>(depth);
  std::memcpy(p.pcs, pcs, sizeof(uintptr_t) * depth);
}

void CloseBlock(Tcb* t, int64_t now) {
  TcbProfile& p = t->profile;
  if (p.depth == 0 || p.session != g_session) {
    return;
  }
  Sample s;
  s.weight = now > p.block_since_ns ? static_cast<uint64_t>(now - p.block_since_ns) : 0;
  s.tid = t->id;
  s.tag = p.block_tag;
  s.kind = 1;
  s.reason = p.block_reason;
  s.depth = p.depth;
  std::memcpy(s.pcs, p.pcs, sizeof(uintptr_t) * p.depth);
  p.depth = 0;  // capture consumed
  // A broadcast at N=4096 produces thousands of wake records inside one kernel entry — far
  // faster than the collector's 20ms drain. This emitter is in-kernel (DrainRing's only
  // precondition), so fold eagerly instead of dropping when the ring runs ahead.
  if (g_reserved.load(std::memory_order_relaxed) - g_read.load(std::memory_order_relaxed) >=
      kRingCap - kRingCap / 4) {
    DrainRing();
  }
  if (EmitSample(s)) {
    ++g_offcpu_emitted;
  }
}

void TickSample(void* fp, void* pc) {
  // Deterministic-mode on-CPU sample: ticks are recorded/replayed decisions, so sampling here
  // (instead of from an unsynchronized ITIMER_PROF) makes the sample sequence reproducible.
  // The tick runs in-kernel on the interrupted thread's behalf; we sample the live kernel
  // call stack, which chains back into the interrupted user frames on the same stack.
  Tcb* t = kernel::ks().current;
  const auto f = reinterpret_cast<uintptr_t>(fp);
  const WalkBounds b = BoundsFor(t, f);
  Sample s;
  s.weight = 1;
  s.tid = t != nullptr ? t->id : 0;
  s.tag = 0;
  s.kind = 0;
  s.reason = 0;
  s.depth = static_cast<uint8_t>(WalkFrames(reinterpret_cast<uintptr_t>(pc), f, b, s.pcs,
                                            kMaxDepth));
  // In-kernel emitter, same overflow discipline as the off-CPU path: with no collector
  // running in deterministic mode, the ring's only consumers are these eager folds and the
  // final Stop/Dump drain.
  if (g_reserved.load(std::memory_order_relaxed) - g_read.load(std::memory_order_relaxed) >=
      kRingCap - kRingCap / 4) {
    DrainRing();
  }
  EmitSample(s);
}

void OnSigprof(void* ucontext) {
  // Signal context, possibly mid-kernel or mid-anything: touch only the ring, the drain flag
  // and the interrupted thread's stack bounds; preserve errno; never enter the kernel.
  const int saved_errno = errno;
  if (g_draining) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  const auto* uc = static_cast<const ucontext_t*>(ucontext);
  const auto pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  const auto fp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  const auto sp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
  Tcb* t = kernel::ks().current;
  const WalkBounds b = BoundsFor(t, sp);
  Sample s;
  s.weight = 1;
  s.tid = t != nullptr ? t->id : 0;
  s.tag = 0;
  s.kind = 0;
  s.reason = 0;
  s.depth = static_cast<uint8_t>(WalkFrames(pc, fp, b, s.pcs, kMaxDepth));
  EmitSample(s);
  errno = saved_errno;
}

// ---------------------------------------------------------------------------------------------
// Control
// ---------------------------------------------------------------------------------------------

namespace {

// reset=false is the pt_reinit continuation path: benches tear the runtime down between
// cases, which stops the session; the env-driven restart must not wipe what the previous
// segments accumulated or an atexit dump would only cover the tail segment.
int StartImpl(int hz, bool reset) {
  kernel::EnsureInit();
  kernel::Enter();
  if (g_active) {
    kernel::Exit();
    return EBUSY;
  }
  if (reset || g_oncpu_agg == nullptr) {
    ResetSession();
  }
  g_hz = hz > 0 ? hz : kDefaultHz;
  g_collector_stop = false;

  if (replay::CurrentMode() == replay::Mode::kOff) {
    // Live sampling: the profiling interval timer ticks on consumed CPU time and SIGPROF is
    // already claimed by the universal handler. Fault-injectable; failure unwinds cleanly.
    if (ArmItimer(g_hz) != 0) {
      const int err = errno;
      kernel::Exit();
      return err;
    }
    g_itimer_armed = true;
    g_signal_sampling = true;
  } else {
    // Record or replay: an unsynchronized itimer would make the two runs sample differently.
    // Piggyback on the timer tick — a recorded decision — so both runs take identical samples.
    obs::Set(obs::kTickSample, true);
  }
  obs::Set(obs::kOffCpu, true);

  if (const char* shm_path = std::getenv("FSUP_STATS_SHM");
      shm_path != nullptr && shm_path[0] != '\0') {
    void* mem = hostos::ShmMapStats(shm_path, kStatsShmSize);
    if (mem == nullptr) {
      // The profile itself is still viable without the live monitor: degrade, don't fail.
      log::Write("profiler: FSUP_STATS_SHM map failed, live monitor disabled");
    } else {
      g_shm = static_cast<StatsShm*>(mem);
      *g_shm = StatsShm{};  // fresh file contents are zero already; a reused file is not
      g_shm->version = kStatsShmVersion;
      g_shm->pid = hostos::RawGetpid();
      __atomic_store_n(&g_shm->magic, kStatsShmMagic, __ATOMIC_RELEASE);
    }
  }
  g_active = true;
  // First frame immediately: a monitor attaching between now and the collector's first period
  // (or a process that exits before one elapses) sees real counters, not the zeroed segment.
  CollectOnce();
  kernel::Exit();

  // No collector thread under record/replay: its periodic pt_delay would sit in the timer
  // heap next to the workload's own timers, and replay expires timers by recorded COUNT in
  // deadline order — the collector's 20ms deadline vs a workload's 1ms deadlines can order
  // differently between the (real-time) recording and the (fast-forwarded) replay, so its
  // mere presence would make otherwise-deterministic workloads diverge. Tick sampling does
  // not need it: ticks emit straight into the ring, the in-kernel emitters fold eagerly
  // when the ring runs hot, and Stop/Dump drain the remainder.
  if (replay::CurrentMode() != replay::Mode::kOff) {
    return 0;
  }
  ThreadAttr attr;
  attr.name = "fsup-prof";
  attr.priority = kMaxPrio;  // wake promptly over busy user threads; runs for microseconds
  const int rc = pt_create(&g_collector, &attr, CollectorMain, nullptr);
  if (rc != 0) {
    Stop();
    return rc;
  }
  return 0;
}

}  // namespace

int Start(int hz) { return StartImpl(hz, /*reset=*/true); }

int Stop() {
  kernel::EnsureInit();
  kernel::Enter();
  if (!g_active) {
    kernel::Exit();
    return EINVAL;
  }
  g_signal_sampling = false;
  obs::Set(obs::kTickSample | obs::kOffCpu, false);
  if (g_itimer_armed) {
    DisarmItimer();
    g_itimer_armed = false;
  }
  g_collector_stop = true;
  kernel::Exit();

  if (g_collector != nullptr) {
    pt_join(g_collector, nullptr);
    g_collector = nullptr;
  }

  kernel::Enter();
  CollectOnce();  // final drain + shm frame so a monitor sees the session's last word
  if (g_shm != nullptr) {
    hostos::ShmUnmapStats(g_shm, kStatsShmSize);
    g_shm = nullptr;
  }
  g_active = false;
  kernel::Exit();
  return 0;
}

bool Active() { return g_active; }

uint64_t SampleCount() { return g_committed.load(std::memory_order_acquire); }

uint64_t OffCpuSampleCount() { return g_offcpu_emitted; }

uint64_t DroppedCount() { return g_dropped.load(std::memory_order_relaxed); }

uint64_t SampleHz() { return g_active ? static_cast<uint64_t>(g_hz) : 0; }

void Collect() {
  kernel::EnsureInit();
  kernel::Enter();
  if (g_active) {
    CollectOnce();
  }
  kernel::Exit();
}

int Dump(const char* path) {
  if (path == nullptr || path[0] == '\0') {
    return EINVAL;
  }
  kernel::EnsureInit();
  kernel::Enter();
  if (g_oncpu_agg == nullptr) {
    kernel::Exit();
    return EINVAL;  // never started
  }
  DrainRing();
  PublishShm();  // post-mortem monitors see the frame the dump is about to describe
  // Copy the aggregates out so file I/O runs outside the monitor.
  std::vector<Agg> oncpu;
  std::vector<Agg> offcpu;
  oncpu.reserve(g_oncpu_agg->size());
  offcpu.reserve(g_offcpu_agg->size());
  for (const auto& [h, a] : *g_oncpu_agg) {
    oncpu.push_back(a);
  }
  for (const auto& [h, a] : *g_offcpu_agg) {
    offcpu.push_back(a);
  }
  kernel::Exit();

  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    return errno;
  }
  for (const Agg& a : oncpu) {
    WriteFolded(f, a, /*offcpu=*/false);
  }
  std::fclose(f);

  char side[sizeof(g_atexit_path) + 16];
  std::snprintf(side, sizeof side, "%s.offcpu", path);
  f = std::fopen(side, "w");
  if (f == nullptr) {
    return errno;
  }
  for (const Agg& a : offcpu) {
    WriteFolded(f, a, /*offcpu=*/true);
  }
  std::fclose(f);

  std::snprintf(side, sizeof side, "%s.maps", path);
  return CopyMapsSidecar(side);
}

int CounterSnapshot(CounterPoint* out, int max) {
  kernel::Enter();
  const uint64_t total = g_counter_total;
  uint64_t first = total > static_cast<uint64_t>(kCounterCap) ? total - kCounterCap : 0;
  int n = 0;
  for (uint64_t i = first; i != total && n < max; ++i) {
    out[n++] = g_counter_ring[i % kCounterCap];
  }
  kernel::Exit();
  return n;
}

void InitFromEnv() {
  static bool atexit_registered = false;
  const char* file = std::getenv("FSUP_PROFILE_FILE");
  if (file != nullptr && file[0] != '\0') {
    std::snprintf(g_atexit_path, sizeof g_atexit_path, "%s", file);
    if (!atexit_registered) {
      atexit_registered = true;
      std::atexit(AtExitDump);
    }
  } else {
    g_atexit_path[0] = '\0';
  }
  const char* prof = std::getenv("FSUP_PROFILE");
  const bool want = (prof != nullptr && prof[0] != '\0' && prof[0] != '0') ||
                    (file != nullptr && file[0] != '\0');
  if (want && !g_active) {
    int hz = 0;
    if (const char* hz_s = std::getenv("FSUP_PROFILE_HZ"); hz_s != nullptr) {
      hz = std::atoi(hz_s);
    }
    StartImpl(hz, /*reset=*/false);  // continuation across pt_reinit keeps prior aggregates
  }
}

void ShutdownForReinit() {
  if (g_active) {
    Stop();
  }
  // A reinitialized kernel re-reads FSUP_PROFILE from EnsureInit; stale atexit paths are
  // refreshed there too.
}

}  // namespace fsup::debug::profiler
