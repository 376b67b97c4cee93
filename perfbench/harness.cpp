#include "perfbench/harness.hpp"

#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "src/core/bench_probes.hpp"

namespace perfbench {

Trace g_trace;
OpLog g_log;

namespace {

double g_ticks_per_ns = 1.0;
uint64_t g_origin_tsc = 0;
int64_t g_origin_ns = 0;

// Counts the lock call and, when it blocked, the handoff from the releasing unlock.
void NoteLock(const Mtx& m, const RuntimeStats& before, const RuntimeStats& after,
              uint64_t start, uint64_t end) {
  Trace& t = g_trace;
  ++t.lock_calls;
  const uint64_t entries = after.kernel_entries - before.kernel_entries;
  t.lock_slow += entries != 0 ? 1 : 0;
  if (after.ctx_switches == before.ctx_switches) {
    ++t.lock_unswitched;
    t.lock_unswitched_entries += entries;
  } else if (m.unlock_tsc > start) {
    t.handoff.Add(end - m.unlock_tsc);
  }
  t.live_peak = std::max(t.live_peak, after.live_threads);
}

// A waiter woken by a signal/broadcast takes the oldest owed send time as its handoff origin.
void NoteWake(Cv& cv, int rc, uint64_t end) {
  --cv.waiters;
  if (rc == 0 && cv.head != cv.tail) {
    g_trace.handoff.Add(end - cv.sent[cv.head++ % 64]);
  }
}

void OweWake(Cv& cv, uint64_t start, bool all) {
  do {
    if (cv.waiters <= static_cast<int>(cv.tail - cv.head) || cv.tail - cv.head >= 64) {
      return;
    }
    cv.sent[cv.tail++ % 64] = start;
  } while (all);
}

// ----- the reference kernel ----------------------------------------------------------------

constexpr int kRefPages = 32;
alignas(4096) uint64_t g_ref_mem[kRefPages][512];
volatile uint64_t g_ref_sink;

template <int N>
__attribute__((noinline)) uint64_t RefStep(uint64_t* p, uint64_t h) {
  p[(h >> 3) & 63] += h;
  return (h ^ p[(h >> 9) & 63]) * (2 * N + 1) + (h >> 17);
}

using RefFn = uint64_t (*)(uint64_t*, uint64_t);
constexpr RefFn kRefSteps[8] = {RefStep<0>, RefStep<1>, RefStep<2>, RefStep<3>,
                                RefStep<4>, RefStep<5>, RefStep<6>, RefStep<7>};

uint64_t RefKernel(uint32_t n) {
  uint64_t h = 0x243f6a8885a308d3ull, acc = 0;
  for (uint32_t k = 0; k < n; ++k) {
    h = (h ^ (h >> 29)) * 0xbf58476d1ce4e5b9ull + k;
    acc += kRefSteps[(h >> 52) & 7](g_ref_mem[(h >> 40) & (kRefPages - 1)], h);
    if ((acc & 0x40) != 0) {
      acc ^= h >> 5;
    }
  }
  return acc;
}

}  // namespace

uint64_t ReferenceTicks() {
  uint64_t t[5];
  for (uint64_t& x : t) {
    const uint64_t t0 = Tsc();
    g_ref_sink = RefKernel(1500);
    x = Tsc() - t0;
  }
  std::sort(t, t + 5);
  return t[2];
}

int64_t MonoNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void CalibrateTicks(int64_t spin_ns) {
  g_origin_tsc = Tsc();
  g_origin_ns = MonoNs();
  while (MonoNs() - g_origin_ns < spin_ns) {
  }
  g_ticks_per_ns = static_cast<double>(Tsc() - g_origin_tsc) /
                   static_cast<double>(MonoNs() - g_origin_ns);
}

double TicksPerNs() {
  // Refined over everything since calibration: by the end of a run that is many seconds.
  const int64_t ns = MonoNs() - g_origin_ns;
  if (ns > 1000000000) {
    g_ticks_per_ns = static_cast<double>(Tsc() - g_origin_tsc) / static_cast<double>(ns);
  }
  return g_ticks_per_ns;
}

Layer LayerOf(Name n) {
  switch (n) {
    case Name::kLock:
    case Name::kUnlock:
    case Name::kCondWait:
    case Name::kCondTimedwait:
    case Name::kCondSignal:
    case Name::kCondBroadcast:
      return Layer::kSync;
    case Name::kCreate:
    case Name::kJoin:
      return Layer::kKernel;
    case Name::kRead:
    case Name::kWrite:
      return Layer::kIo;
    case Name::kKill:
    case Name::kPtKill:
    case Name::kSigwait:
      return Layer::kSignals;
    case Name::kSetspecific:
      return Layer::kTsd;
    case Name::kCleanupPush:
    case Name::kCleanupPop:
      return Layer::kCancel;
    default:
      return Layer::kApp;
  }
}

const char* LayerName(Layer l) {
  static const char* const kNames[] = {"sync", "kernel", "io", "signals", "tsd", "cancel", "app"};
  return kNames[static_cast<int>(l)];
}

const char* SpanName(Name n) {
  static const char* const kNames[] = {
      "pt_mutex_lock", "pt_mutex_unlock", "pt_cond_wait",   "pt_cond_timedwait",
      "pt_cond_signal", "pt_cond_broadcast", "pt_create",     "pt_join",
      "pt_read",       "pt_write",        "kill",           "pt_kill",
      "pt_sigwait",    "pt_setspecific",  "pt_cleanup_push", "pt_cleanup_pop",
      "work"};
  return kNames[static_cast<int>(n)];
}

std::vector<uint64_t> Ring::Values() const {
  const size_t n = std::min<uint64_t>(n_, v_.size());
  return std::vector<uint64_t>(v_.begin(), v_.begin() + static_cast<ptrdiff_t>(n));
}

void AssignPending(ThreadCtx& c, uint32_t op) {
  Trace& t = g_trace;
  for (int i = 0; i < c.npending; ++i) {
    const uint64_t pos = c.pending[i];
    if (pos + t.spans.size() > t.head) {
      Span& s = t.spans[pos % t.spans.size()];
      if (s.op == kPendingOp) {
        s.op = op;
      }
    }
  }
  c.npending = 0;
}

int Lock(ThreadCtx& c, Mtx& m, uint32_t op) {
  if (!g_trace.on) {
    return pt_mutex_lock(&m.m);
  }
  const RuntimeStats before = pt_stats();
  const Open o = Begin(c);
  const int rc = pt_mutex_lock(&m.m);
  const uint64_t end = End(c, o, Name::kLock, op);
  NoteLock(m, before, pt_stats(), o.start, end);
  return rc;
}

int Unlock(ThreadCtx& c, Mtx& m, uint32_t op) {
  if (!g_trace.on) {
    return pt_mutex_unlock(&m.m);
  }
  const Open o = Begin(c);
  m.unlock_tsc = o.start;
  const int rc = pt_mutex_unlock(&m.m);
  End(c, o, Name::kUnlock, op);
  return rc;
}

int CondWait(ThreadCtx& c, Cv& cv, Mtx& m, uint32_t op) {
  if (!g_trace.on) {
    return pt_cond_wait(&cv.c, &m.m);
  }
  ++cv.waiters;
  const Open o = Begin(c);
  const int rc = pt_cond_wait(&cv.c, &m.m);
  NoteWake(cv, rc, End(c, o, Name::kCondWait, op));
  return rc;
}

int CondTimedwait(ThreadCtx& c, Cv& cv, Mtx& m, int64_t timeout_ns, uint32_t op) {
  if (!g_trace.on) {
    return pt_cond_timedwait(&cv.c, &m.m, timeout_ns);
  }
  ++cv.waiters;
  const Open o = Begin(c);
  const int rc = pt_cond_timedwait(&cv.c, &m.m, timeout_ns);
  NoteWake(cv, rc, End(c, o, Name::kCondTimedwait, op));
  return rc;
}

int CondSignal(ThreadCtx& c, Cv& cv, uint32_t op) {
  if (!g_trace.on) {
    return pt_cond_signal(&cv.c);
  }
  const Open o = Begin(c);
  OweWake(cv, o.start, false);
  const int rc = pt_cond_signal(&cv.c);
  End(c, o, Name::kCondSignal, op);
  return rc;
}

int CondBroadcast(ThreadCtx& c, Cv& cv, uint32_t op) {
  if (!g_trace.on) {
    return pt_cond_broadcast(&cv.c);
  }
  const Open o = Begin(c);
  OweWake(cv, o.start, true);
  const int rc = pt_cond_broadcast(&cv.c);
  End(c, o, Name::kCondBroadcast, op);
  return rc;
}

int Create(ThreadCtx& c, pt_thread_t* t, const ThreadAttr* a, void* (*fn)(void*), void* arg,
           uint32_t op) {
  if (!g_trace.on) {
    return pt_create(t, a, fn, arg);
  }
  const Open o = Begin(c);
  const int rc = pt_create(t, a, fn, arg);
  End(c, o, Name::kCreate, op);
  g_trace.live_peak = std::max(g_trace.live_peak, pt_stats().live_threads);
  return rc;
}

int Join(ThreadCtx& c, pt_thread_t t, void** ret, uint32_t op) {
  if (!g_trace.on) {
    return pt_join(t, ret);
  }
  const Open o = Begin(c);
  const int rc = pt_join(t, ret);
  End(c, o, Name::kJoin, op);
  return rc;
}

long Read(ThreadCtx& c, int fd, void* buf, size_t n, uint32_t op) {
  if (!g_trace.on) {
    return pt_read(fd, buf, n);
  }
  const uint64_t waits = io::GetStats().waits;
  const Open o = Begin(c);
  const long rc = pt_read(fd, buf, n);
  End(c, o, Name::kRead, op);
  ++g_trace.read_calls;
  g_trace.read_blocked += io::GetStats().waits != waits ? 1 : 0;
  return rc;
}

long Write(ThreadCtx& c, int fd, const void* buf, size_t n, uint32_t op) {
  if (!g_trace.on) {
    return pt_write(fd, buf, n);
  }
  const Open o = Begin(c);
  const long rc = pt_write(fd, buf, n);
  End(c, o, Name::kWrite, op);
  return rc;
}

int KillSelf(ThreadCtx& c, int signo, uint32_t op) {
  static const pid_t pid = ::getpid();
  if (!g_trace.on) {
    return ::kill(pid, signo);
  }
  const Open o = Begin(c);
  const int rc = ::kill(pid, signo);
  End(c, o, Name::kKill, op);
  return rc;
}

int PtKill(ThreadCtx& c, pt_thread_t t, int signo, uint32_t op) {
  if (!g_trace.on) {
    return pt_kill(t, signo);
  }
  const Open o = Begin(c);
  const int rc = pt_kill(t, signo);
  End(c, o, Name::kPtKill, op);
  return rc;
}

int Sigwait(ThreadCtx& c, SigSet set, int* signo, uint32_t op) {
  if (!g_trace.on) {
    return pt_sigwait(set, signo);
  }
  const Open o = Begin(c);
  const int rc = pt_sigwait(set, signo);
  End(c, o, Name::kSigwait, op);
  return rc;
}

int SetSpecific(ThreadCtx& c, pt_key_t key, void* v, uint32_t op) {
  if (!g_trace.on) {
    return pt_setspecific(key, v);
  }
  const Open o = Begin(c);
  const int rc = pt_setspecific(key, v);
  End(c, o, Name::kSetspecific, op);
  return rc;
}

void CleanupPush(ThreadCtx& c, void (*fn)(void*), void* arg, uint32_t op) {
  if (!g_trace.on) {
    pt_cleanup_push(fn, arg);
    return;
  }
  const Open o = Begin(c);
  pt_cleanup_push(fn, arg);
  End(c, o, Name::kCleanupPush, op);
}

int CleanupPop(ThreadCtx& c, bool execute, uint32_t op) {
  if (!g_trace.on) {
    return pt_cleanup_pop(execute);
  }
  const Open o = Begin(c);
  const int rc = pt_cleanup_pop(execute);
  End(c, o, Name::kCleanupPop, op);
  return rc;
}

Counters Sample() {
  Counters s;
  s.rs = pt_stats();
  for (int i = 0; i < static_cast<int>(hostos::Call::kCount); ++i) {
    s.host[i] = hostos::CallCount(static_cast<hostos::Call>(i));
  }
  s.host_total = hostos::TotalCallCount();
  s.io = io::GetStats();
  s.pool_reuses = probe::StackPoolReuses();
  s.pool_maps = probe::StackPoolMaps();
  s.lazy_commits = probe::StackPoolLazyCommits();
  s.ras = probe::RasRestarts();
  return s;
}

void Must(int rc, const char* what) {
  if (rc != 0) {
    std::fprintf(stderr, "fsup_perfbench: %s failed: %s\n", what, std::strerror(rc));
    std::exit(2);
  }
}

void Complete(uint32_t op, uint64_t start, uint64_t end, bool ok) {
  OpLog& l = g_log;
  if (!l.recording) {
    l.failed += ok ? 0 : 1;  // a wrong warm-up op still fails the run
    return;
  }
  ++l.ops;
  l.failed += ok ? 0 : 1;
  const uint32_t lat = static_cast<uint32_t>(
      std::min<uint64_t>(end - start, std::numeric_limits<uint32_t>::max()));
  // Ops that finish after the deadline count in the last slice.
  const uint64_t idx =
      std::min<uint64_t>((end - l.start_tsc) / l.slice_ticks, l.slice_ops.size() - 1);
  ++l.slice_ops[idx];
  if (idx != l.cur_slice) {
    const uint64_t t0 = Tsc();
    l.cur_slice = idx;
    l.slice_ref[idx] = ReferenceTicks();
    l.slice_pause[idx] = Tsc() - t0;
  }
  if (l.samples.size() < l.samples.capacity()) {
    l.samples.push_back(lat);
    l.sample_slice.push_back(static_cast<uint8_t>(idx));
  } else {
    const uint64_t j = l.rng.Next() % l.ops;
    if (j < l.samples.size()) {
      l.samples[j] = lat;
      l.sample_slice[j] = static_cast<uint8_t>(idx);
    }
  }
  if (g_trace.on) {
    Trace& t = g_trace;
    t.ops[t.ops_head++ % t.ops.size()] = Trace::OpRec{start, end, op};
  }
  if (!l.have_k && l.ops == l.fixed_k) {
    l.at_k = Sample();
    l.have_k = true;
  }
}

}  // namespace perfbench
