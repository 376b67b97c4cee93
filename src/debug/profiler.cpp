#include "src/debug/profiler.hpp"

#include <fcntl.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/debug/metrics.hpp"
#include "src/debug/obs.hpp"
#include "src/debug/replay.hpp"
#include "src/debug/stats_shm.hpp"
#include "src/hostos/unix_if.hpp"
#include "src/kernel/kernel.hpp"
#include "src/sync/cond.hpp"
#include "src/sync/mutex.hpp"
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

constexpr int kMaxDepth = 24;  // on-CPU frames kept per sample

// One sample, and one table entry: the entry sums the weights of the samples that share its
// stack and wait object.
struct Stack {
  uint64_t hash = 0;    // table entries only
  uint64_t weight = 0;  // on-CPU: 1 per sample; off-CPU: blocked nanoseconds
  uint64_t count = 0;   // samples folded into the entry
  uint32_t tag = 0;     // wait-object tag (off-CPU), 0 otherwise
  uint8_t reason = 0;   // BlockReason raw value (off-CPU)
  uint8_t depth = 0;
  uintptr_t pcs[kMaxDepth];  // leaf first
};

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
// The profile tables, one on-CPU and one off-CPU: open addressing on the FNV-1a stack hash
// over a dense entry array, calloc'd at the first session start so untouched pages cost no
// RSS. Every sampler folds in place; a sample that needs an entry past the cap is a drop.
//
// The SIGPROF sampler can interrupt anything on this one OS thread, the kernel included, so
// in-kernel code touches a table only inside a busy section marked by g_busy. A SIGPROF that
// lands in one parks its sample in the pending slot, folded when the section ends — the way
// the kernel handles a signal it logged — and a second one is dropped. Every profiler.*
// counter is thus bumped either by the sampler or in a busy section, never both at once.
// ---------------------------------------------------------------------------------------------

constexpr uint32_t kMaxAggEntries = 65536;
constexpr uint32_t kSlotMask = 2 * kMaxAggEntries - 1;  // load factor <= 1/2

struct Table {
  Stack* entries = nullptr;  // [0, size) in use
  uint32_t* slots = nullptr;   // entry index + 1; 0 = empty
  uint32_t size = 0;
};

Table g_oncpu;
Table g_offcpu;

volatile bool g_busy = false;
Stack g_pending;  // a SIGPROF sample parked while g_busy was set
volatile bool g_pending_full = false;
volatile uint64_t g_busy_drops = 0;  // SIGPROF samples dropped in busy sections (handler-only)
uint64_t g_busy_drops_counted = 0;   // of those, already added to profiler.dropped

uint64_t HashStack(const Stack& s) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(s.tag);
  mix(s.reason);
  mix(s.depth);
  for (int i = 0; i < s.depth; ++i) {
    mix(s.pcs[i]);
  }
  return h;
}

// Adds s to its entry in t; false when t is full and s needed a new entry.
bool Fold(Table& t, const Stack& s) {
  const uint64_t h = HashStack(s);
  uint32_t i = static_cast<uint32_t>(h) & kSlotMask;
  while (t.slots[i] != 0 && t.entries[t.slots[i] - 1].hash != h) {
    i = (i + 1) & kSlotMask;
  }
  if (t.slots[i] == 0) {
    if (t.size == kMaxAggEntries) {
      counters::Bump(counters::kProfilerDropped);
      return false;
    }
    Stack& e = t.entries[t.size];
    e = s;
    e.hash = h;
    e.weight = 0;
    e.count = 0;
    t.slots[i] = ++t.size;
  }
  Stack& e = t.entries[t.slots[i] - 1];
  e.weight += s.weight;
  ++e.count;
  counters::Bump(counters::kProfilerSamples);
  return true;
}

void BeginBusy() {
  g_busy = true;
  std::atomic_signal_fence(std::memory_order_seq_cst);
}

// Leaves a busy section the way kernel::ExitProtocol leaves the kernel: fold the parked
// sample, clear the byte, and look again, since a SIGPROF can park between the two.
void EndBusy() {
  for (;;) {
    if (g_pending_full) {
      std::atomic_signal_fence(std::memory_order_seq_cst);
      Fold(g_oncpu, g_pending);
      std::atomic_signal_fence(std::memory_order_seq_cst);
      g_pending_full = false;
    }
    const uint64_t drops = g_busy_drops;
    counters::g_block[counters::kProfilerDropped] += drops - g_busy_drops_counted;
    g_busy_drops_counted = drops;
    std::atomic_signal_fence(std::memory_order_seq_cst);
    g_busy = false;
    if (!g_pending_full) {
      return;
    }
    BeginBusy();
  }
}

// ---------------------------------------------------------------------------------------------
// Session state
// ---------------------------------------------------------------------------------------------

bool g_active = false;
int g_hz = kDefaultHz;
uint32_t g_session = 0;  // stamps off-CPU captures; stale captures are ignored

StatsShm* g_shm = nullptr;

// Perfetto counter tracks: one point per collection period, fixed overwrite ring.
constexpr int kCounterPoints = 256;
CounterPoint g_counter_ring[kCounterPoints];
uint64_t g_counter_total = 0;

constexpr int64_t kCollectPeriodNs = 20 * 1000 * 1000;
int64_t g_last_collect_ns = 0;

// The n heaviest entries of t, descending by weight. Inside a busy section.
void TopStacks(const Table& t, StatsShmStack* out, int n) {
  std::fill(out, out + n, StatsShmStack{});
  for (uint32_t e = 0; e < t.size; ++e) {
    const Stack& a = t.entries[e];
    // Insertion sort into the fixed top-N array.
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
    std::copy(a.pcs, a.pcs + s.depth, s.pcs);
  }
}

// Publishes one seqlock-versioned frame into the shared segment. One writer at a time: code
// in the kernel, or the SIGPROF sampler when it interrupted code outside it.
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
  BeginBusy();
  TopStacks(g_oncpu, s->top_oncpu, kStatsShmTopStacks);
  TopStacks(g_offcpu, s->top_offcpu, kStatsShmTopStacks);
  EndBusy();

  __atomic_thread_fence(__ATOMIC_RELEASE);
  __atomic_store_n(&s->seq, seq + 2, __ATOMIC_RELEASE);  // even: frame consistent
}

// One collection period: stamp a counter point, republish the shm frame. Same writers as
// PublishShm.
void CollectOnce(int64_t now) {
  CounterPoint& p = g_counter_ring[g_counter_total % kCounterPoints];
  p.t_ns = now;
  metrics::CaptureCounters(&p.block);
  ++g_counter_total;
  g_last_collect_ns = now;
  PublishShm();
}

int ArmItimer(int hz) {
  const int64_t usec = std::max<int64_t>(1, 1000000 / hz);
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
  BeginBusy();
  for (Table* t : {&g_oncpu, &g_offcpu}) {
    if (t->entries == nullptr) {
      t->entries = static_cast<Stack*>(std::calloc(kMaxAggEntries, sizeof(Stack)));
      t->slots = static_cast<uint32_t*>(std::calloc(kSlotMask + 1, sizeof(uint32_t)));
      FSUP_CHECK_MSG(t->entries != nullptr && t->slots != nullptr, "profiler: out of memory");
    } else if (t->size != 0) {
      std::memset(t->slots, 0, (kSlotMask + 1) * sizeof(uint32_t));
    }
    t->size = 0;
  }
  counters::ResetGroup("profiler");
  EndBusy();
  g_counter_total = 0;
  ++g_session;
}

// ---------------------------------------------------------------------------------------------
// Folded-stacks output
// ---------------------------------------------------------------------------------------------

void WriteFolded(FILE* f, const Stack& a, bool offcpu) {
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

// FSUP_PROFILE_FILE: dump at process exit, same pattern as FSUP_TRACE_FILE. Function-local,
// so init running from another file's static constructors finds it built.
std::string& AtExitPath() {
  static std::string path;
  return path;
}

void AtExitDump() {
  if (!AtExitPath().empty()) {
    Dump(AtExitPath().c_str());
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
  Stack s;
  s.weight = now > p.block_since_ns ? static_cast<uint64_t>(now - p.block_since_ns) : 0;
  s.tag = p.block_tag;
  s.reason = p.block_reason;
  s.depth = p.depth;
  std::memcpy(s.pcs, p.pcs, sizeof(uintptr_t) * p.depth);
  p.depth = 0;  // capture consumed
  BeginBusy();
  if (Fold(g_offcpu, s)) {
    counters::Bump(counters::kProfilerOffcpuSamples);
    counters::g_block[counters::kProfilerOffcpuBlockedNs] += s.weight;
  }
  EndBusy();
}

void MaybeCollect(int64_t now) {
  if (now - g_last_collect_ns >= kCollectPeriodNs) {
    CollectOnce(now);
  }
}

void TickSample(int64_t now, void* fp, void* pc) {
  // Deterministic-mode on-CPU sample: ticks are recorded/replayed decisions, so sampling here
  // (instead of from an unsynchronized ITIMER_PROF) makes the sample sequence reproducible.
  // The tick runs in-kernel on the interrupted thread's behalf; we sample the live kernel
  // call stack, which chains back into the interrupted user frames on the same stack.
  const auto f = reinterpret_cast<uintptr_t>(fp);
  const WalkBounds b = BoundsFor(kernel::ks().current, f);
  Stack s;
  s.weight = 1;
  s.depth = static_cast<uint8_t>(WalkFrames(reinterpret_cast<uintptr_t>(pc), f, b, s.pcs,
                                            kMaxDepth));
  BeginBusy();
  Fold(g_oncpu, s);
  EndBusy();
  MaybeCollect(now);
}

void OnSigprof(void* ucontext) {
  // Signal context, possibly mid-kernel or mid-anything: touch only the profile tables (or
  // the pending slot), the interrupted thread's stack bounds and, outside the kernel, the
  // collection state; preserve errno; never enter the kernel.
  const int saved_errno = errno;
  const auto* uc = static_cast<const ucontext_t*>(ucontext);
  const auto pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  const auto fp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  const auto sp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
  const WalkBounds b = BoundsFor(kernel::ks().current, sp);
  Stack s;
  s.weight = 1;
  s.depth = static_cast<uint8_t>(WalkFrames(pc, fp, b, s.pcs, kMaxDepth));
  if (!g_busy) {
    Fold(g_oncpu, s);  // every signal is blocked in this handler: nothing can interleave
    // Outside the kernel its state is as consistent as code inside it sees it, and no other
    // collector can be mid-frame: this is the live mode's collection point.
    if (kernel::ks().in_kernel == 0) {
      MaybeCollect(NowNs());
    }
  } else if (!g_pending_full) {
    g_pending = s;
    std::atomic_signal_fence(std::memory_order_seq_cst);
    g_pending_full = true;
  } else {
    g_busy_drops = g_busy_drops + 1;
  }
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
  if (reset || g_oncpu.entries == nullptr) {
    ResetSession();
  }
  g_hz = hz > 0 ? hz : kDefaultHz;

  if (replay::CurrentMode() == replay::Mode::kOff) {
    // Live sampling: the profiling interval timer ticks on consumed CPU time and SIGPROF is
    // already claimed by the universal handler. Fault-injectable; failure unwinds cleanly.
    if (ArmItimer(g_hz) != 0) {
      const int err = errno;
      kernel::Exit();
      return err;
    }
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
      log::RawWriteCstr("fsup: FSUP_STATS_SHM: cannot map the stats segment, live monitor "
                        "disabled\n");
    } else {
      g_shm = static_cast<StatsShm*>(mem);
      *g_shm = StatsShm{};  // fresh file contents are zero already; a reused file is not
      g_shm->version = kStatsShmVersion;
      g_shm->pid = hostos::RawGetpid();
      __atomic_store_n(&g_shm->magic, kStatsShmMagic, __ATOMIC_RELEASE);
    }
  }
  g_active = true;
  // First frame immediately: a monitor attaching before the first collection point (or a
  // process that exits before one) sees real counters, not the zeroed segment.
  CollectOnce(NowNs());
  kernel::Exit();
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
  obs::Set(obs::kTickSample | obs::kOffCpu, false);
  if (g_signal_sampling) {
    g_signal_sampling = false;
    DisarmItimer();
  }
  CollectOnce(NowNs());  // final shm frame so a monitor sees the session's last word
  if (g_shm != nullptr) {
    hostos::ShmUnmapStats(g_shm, kStatsShmSize);
    g_shm = nullptr;
  }
  g_active = false;
  kernel::Exit();
  return 0;
}

bool Active() { return g_active; }

uint64_t SampleHz() { return g_active ? static_cast<uint64_t>(g_hz) : 0; }

void Collect() {
  kernel::EnsureInit();
  kernel::Enter();
  if (g_active) {
    CollectOnce(NowNs());
  }
  kernel::Exit();
}

int Dump(const char* path) {
  if (path == nullptr || path[0] == '\0') {
    return EINVAL;
  }
  kernel::EnsureInit();
  kernel::Enter();
  if (g_oncpu.entries == nullptr) {
    kernel::Exit();
    return EINVAL;  // never started
  }
  PublishShm();  // post-mortem monitors see the frame the dump is about to describe
  // Copy the tables out so file I/O runs outside the monitor.
  BeginBusy();
  const std::vector<Stack> oncpu(g_oncpu.entries, g_oncpu.entries + g_oncpu.size);
  const std::vector<Stack> offcpu(g_offcpu.entries, g_offcpu.entries + g_offcpu.size);
  EndBusy();
  kernel::Exit();

  const auto write = [](const std::string& name, const std::vector<Stack>& rows, bool off) {
    FILE* f = std::fopen(name.c_str(), "w");
    if (f == nullptr) {
      return errno;
    }
    for (const Stack& a : rows) {
      WriteFolded(f, a, off);
    }
    std::fclose(f);
    return 0;
  };
  const std::string base(path);
  int rc = write(base, oncpu, /*off=*/false);
  if (rc == 0) {
    rc = write(base + ".offcpu", offcpu, /*off=*/true);
  }
  return rc != 0 ? rc : CopyMapsSidecar((base + ".maps").c_str());
}

std::vector<CounterPoint> CounterSnapshot() {
  kernel::Enter();
  const uint64_t total = g_counter_total;
  std::vector<CounterPoint> out;
  for (uint64_t i = total > kCounterPoints ? total - kCounterPoints : 0; i != total; ++i) {
    out.push_back(g_counter_ring[i % kCounterPoints]);
  }
  kernel::Exit();
  return out;
}

void InitFromEnv() {
  static bool atexit_registered = false;
  const char* file = std::getenv("FSUP_PROFILE_FILE");
  if (file != nullptr && file[0] != '\0') {
    AtExitPath() = file;
    if (!atexit_registered) {
      atexit_registered = true;
      std::atexit(AtExitDump);
    }
  } else {
    AtExitPath().clear();
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
