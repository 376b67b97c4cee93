#include "src/debug/metrics.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/debug/profiler.hpp"
#include "src/io/io.hpp"
#include "src/kernel/kernel.hpp"
#include "src/kernel/stack_pool.hpp"
#include "src/sync/fastpath.hpp"
#include "src/util/dual_loop_timer.hpp"

namespace fsup::debug::metrics {
namespace {

// Metrics-gated global accumulators; the gated totals are the registry's "metrics" group.
// All mutation happens inside the kernel monitor or from the universal handler while it
// holds the kernel flag, so plain fields suffice — the same discipline as every other kernel
// statistic.
struct Globals {
  int64_t enabled_since_ns = 0;
  bool next_switch_preempted = false;
  LatencyHist sched_latency;
  LatencyHist mutex_wait;
  LatencyHist mutex_hold;
};

Globals g_state;

// Generation counter for the lazy per-thread reset. Enable(true) bumps it; a TCB whose
// metrics.epoch is stale has not been touched since enable and its accumulators are garbage
// from a previous enable span (or from a recycled TCB slot). Lives outside Globals so the
// accumulator reset in Enable cannot clobber it.
uint32_t g_epoch = 0;

// Brings t's accumulators into the current epoch. A stale thread has seen no event since
// enable time, and events fire on every state transition — so it has been sitting in its
// current state since the clock started. Consume calls this before reading or mutating any
// per-thread field; state-transition events therefore fire BEFORE t->state mutates.
void Touch(Tcb* t) {
  TcbMetrics& m = t->metrics;
  if (m.epoch == g_epoch) {
    return;
  }
  m = TcbMetrics{};
  m.epoch = g_epoch;
  m.acct_state = static_cast<uint8_t>(t->state);
  m.state_since_ns = g_state.enabled_since_ns;
}

// Folds the time since t's last state stamp into the bucket for the state it was in, and
// restamps. Returns the folded duration (used for the scheduling-latency histogram).
int64_t FoldStateTime(Tcb* t, int64_t now) {
  TcbMetrics& m = t->metrics;
  int64_t d = 0;
  if (m.state_since_ns != 0) {
    d = now - m.state_since_ns;
    switch (static_cast<ThreadState>(m.acct_state)) {
      case ThreadState::kRunning:
        m.running_ns += d;
        break;
      case ThreadState::kReady:
        m.ready_ns += d;
        break;
      case ThreadState::kBlocked:
        m.blocked_ns += d;
        break;
      case ThreadState::kTerminated:
        break;
    }
  }
  m.state_since_ns = now;
  return d;
}

void ChangeState(Tcb* t, ThreadState new_state, int64_t now) {
  FoldStateTime(t, now);
  t->metrics.acct_state = static_cast<uint8_t>(new_state);
}

void OnSwitch(Tcb* from, Tcb* to, int64_t now) {
  Touch(from);
  if (g_state.next_switch_preempted) {
    g_state.next_switch_preempted = false;
    counters::Bump(counters::kMetricsPreemptedSwitches);
    ++from->metrics.preempted;
  } else {
    counters::Bump(counters::kMetricsVoluntarySwitches);
    ++from->metrics.voluntary;
  }
  // `to` goes ready -> running: the time it just spent in ready is its scheduling latency.
  const int64_t ready_time = FoldStateTime(to, now);
  if (to->metrics.acct_state == static_cast<uint8_t>(ThreadState::kReady)) {
    g_state.sched_latency.Add(ready_time);
  }
  to->metrics.acct_state = static_cast<uint8_t>(ThreadState::kRunning);
}

// A lock event closes the wait a block event opened (if any) and opens a hold; a recursive
// re-acquisition only deepens the hold already open.
void OnLock(Tcb* t, uint32_t tag, uint16_t gen, int64_t now) {
  TcbMetrics& m = t->metrics;
  if (m.wait_since_ns != 0) {
    const int64_t wait = now - m.wait_since_ns;
    m.wait_since_ns = 0;
    ++m.mutex_blocks;
    m.mutex_wait_ns += wait;
    g_state.mutex_wait.Add(wait);
  }
  TcbMetrics::Held* free_slot = nullptr;
  for (TcbMetrics::Held& h : m.held) {
    if (h.tag == tag && h.gen == gen) {
      ++h.depth;
      return;
    }
    if (h.tag == 0 && free_slot == nullptr) {
      free_slot = &h;
    }
  }
  if (free_slot != nullptr) {
    *free_slot = TcbMetrics::Held{tag, gen, 0, now};
  }
}

// An unlock event closes the matching hold (holds opened before metrics were enabled have no
// slot and are not sampled).
void OnUnlock(Tcb* t, uint32_t tag, uint16_t gen, int64_t now) {
  for (TcbMetrics::Held& h : t->metrics.held) {
    if (h.tag != tag || h.gen != gen) {
      continue;
    }
    if (h.depth > 0) {
      --h.depth;
    } else {
      g_state.mutex_hold.Add(now - h.since_ns);
      h = TcbMetrics::Held{};
    }
    return;
  }
}

void FillThreadSnap(const Tcb* t, ThreadSnap* out) {
  out->id = t->id;
  std::memcpy(out->name, t->name, sizeof(out->name));
  out->state = static_cast<uint8_t>(t->state);
  out->switches_in = t->switches_in;
  out->signals_taken = t->signals_taken;
  out->voluntary = t->metrics.voluntary;
  out->preempted = t->metrics.preempted;
  out->fake_calls = t->metrics.fake_calls;
  out->mutex_blocks = t->metrics.mutex_blocks;
  out->running_ns = t->metrics.running_ns;
  out->ready_ns = t->metrics.ready_ns;
  out->blocked_ns = t->metrics.blocked_ns;
  out->mutex_wait_ns = t->metrics.mutex_wait_ns;
}

}  // namespace

void Enable(bool on) {
  kernel::EnsureInit();
  kernel::Enter();
  if (on && !obs::On(obs::kMetrics)) {
    g_state = Globals{};
    counters::ResetGroup("metrics");
    g_state.enabled_since_ns = NowNs();
    // O(1) regardless of thread count: invalidate instead of walking a million TCBs. Each
    // thread's accumulators reset lazily (Touch) the first time an event sees it.
    ++g_epoch;
  }
  obs::Set(obs::kMetrics, on);
  // Metrics time holds on the kernel path: demote (or restore) the kernel-bypassing sync
  // fast paths so every acquisition is observed.
  sync::fastpath::Recompute();
  kernel::Exit();
}

void Consume(obs::Event e, Tcb* t, uint32_t b, uint16_t gen, int64_t now) {
  using obs::Event;
  switch (e) {
    case Event::kCreate:
      // A thread born after enable starts its clock now, not at enable time — and its
      // recycled TCB slot may carry a stale-but-matching epoch from a previous tenant, so
      // the reset is unconditional.
      t->metrics = TcbMetrics{};
      t->metrics.epoch = g_epoch;
      t->metrics.acct_state = static_cast<uint8_t>(t->state);
      t->metrics.state_since_ns = now;
      return;
    case Event::kTimerTick:
      counters::Bump(counters::kMetricsTimerTicks);
      return;
    case Event::kIdlePoll:
      counters::Bump(counters::kMetricsIdlePolls);
      return;
    case Event::kSignal:
      counters::Bump(counters::kMetricsSignalsDelivered);
      return;
    default:
      break;
  }
  Touch(t);
  switch (e) {
    case Event::kSwitch:
      OnSwitch(kernel::ks().current, t, now);  // the switch has not mutated current yet
      break;
    case Event::kSuspend:
      ChangeState(t, ThreadState::kBlocked, now);
      break;
    case Event::kPreempt:
      g_state.next_switch_preempted = true;
      [[fallthrough]];
    case Event::kWake:
    case Event::kYield:
      ChangeState(t, ThreadState::kReady, now);
      break;
    case Event::kResume:
      ChangeState(t, ThreadState::kRunning, now);
      break;
    case Event::kExit:
      ChangeState(t, ThreadState::kTerminated, now);
      break;
    case Event::kMutexBlock:
      if (t->metrics.wait_since_ns == 0) {
        t->metrics.wait_since_ns = now;
      }
      break;
    case Event::kDeadlock:
    case Event::kLockFailed:
      t->metrics.wait_since_ns = 0;  // the acquisition was abandoned (EDEADLK, EINVAL)
      break;
    case Event::kMutexLock:
      OnLock(t, b, gen, now);
      break;
    case Event::kMutexUnlock:
      OnUnlock(t, b, gen, now);
      break;
    case Event::kFakeCall:
      ++t->metrics.fake_calls;
      counters::Bump(counters::kMetricsFakeCalls);
      break;
    default:
      break;
  }
}

void CaptureCounters(counters::Block* out) {
  using namespace counters;
  for (int c = 0; c < kCount; ++c) {
    out->counters[c] = g_block[c];
  }
  const KernelState& k = kernel::ks();
  uint64_t* g = out->gauges;
  g[kThreadsLive] = k.live_threads;
  g[kThreadsReady] = k.ready.size();
  g[kThreadsBlocked] = k.live_threads > g[kThreadsReady] ? k.live_threads - g[kThreadsReady] - 1
                                                         : 0;
  if (const StackPool* pool = k.pool; pool != nullptr) {
    g[kPoolMappedBytes] = pool->mapped_bytes();
    g[kPoolMappedHwBytes] = pool->mapped_hw_bytes();
    g[kPoolFreeBytes] = pool->pooled_bytes();
    g[kPoolFreeStacks] = pool->pooled_stacks();
    g[kPoolBudgetBytes] = pool->pool_budget_bytes();
  }
  const io::IoStats ios = io::GetStats();
  g[kIoActiveWaiters] = static_cast<uint64_t>(ios.active_waiters);
  g[kIoCachedFds] = static_cast<uint64_t>(ios.cached_fds);
  g[kIoEpoll] = ios.epoll_backend ? 1 : 0;
  g[kProfilerHz] = profiler::SampleHz();
  g[kProfilerSamples] = profiler::SampleCount();
  g[kProfilerDropped] = profiler::DroppedCount();
}

void Capture(MetricsSnapshot* out) {
  *out = MetricsSnapshot{};
  kernel::EnsureInit();
  const bool enter = !kernel::InKernel();
  if (enter) {
    kernel::Enter();
  }
  KernelState& k = kernel::ks();

  out->enabled = obs::On(obs::kMetrics);
  out->enabled_since_ns = g_state.enabled_since_ns;
  CaptureCounters(&out->block);
  out->sched_latency = g_state.sched_latency;
  out->mutex_wait = g_state.mutex_wait;
  out->mutex_hold = g_state.mutex_hold;

  // Bring the snapshotted threads' time-in-state current so a snapshot taken mid-run does
  // not hide the open interval of the running thread. Only the threads being copied out are
  // folded — a capture must stay O(kMaxSnapshotThreads) even with a million threads live.
  const bool enabled = obs::On(obs::kMetrics);
  const int64_t now = enabled ? NowNs() : 0;
  uint32_t n = 0;
  for (Tcb* t : k.all_threads) {
    if (n >= kMaxSnapshotThreads) {
      break;
    }
    if (enabled) {
      Touch(t);
      FoldStateTime(t, now);
    }
    FillThreadSnap(t, &out->threads[n]);
    ++n;
  }
  out->thread_count = n;

  if (enter) {
    kernel::Exit();
  }
}

int DumpText(int fd, uint32_t max_threads) {
  MetricsSnapshot s;
  Capture(&s);

  char buf[16384];
  int off = 0;
  auto emit = [&](const char* fmt, auto... args) {
    if (off < static_cast<int>(sizeof(buf))) {
      const int n = std::snprintf(buf + off, sizeof(buf) - static_cast<size_t>(off), fmt,
                                  args...);
      if (n > 0) {
        off += n;
      }
    }
  };

  emit("fsup metrics (%s)\n", s.enabled ? "enabled" : "disabled");
  counters::Render(s.block, [&](const char* text) { emit("%s", text); });

  auto hist = [&](const char* label, const LatencyHist& h) {
    emit("  %-13s n=%-8llu mean=%-10.0f p50=%-8lld p95=%-8lld p99=%-8lld max=%lld (ns)\n",
         label, static_cast<unsigned long long>(h.count), h.MeanNs(),
         static_cast<long long>(h.PercentileNs(50)),
         static_cast<long long>(h.PercentileNs(95)),
         static_cast<long long>(h.PercentileNs(99)), static_cast<long long>(h.max_ns));
  };
  hist("sched_latency", s.sched_latency);
  hist("mutex_wait", s.mutex_wait);
  hist("mutex_hold", s.mutex_hold);

  uint32_t rows = s.thread_count;
  if (max_threads != 0 && max_threads < rows) {
    rows = max_threads;
  }
  emit("  %-4s %-15s %-10s %-9s %-9s %-9s %-10s %-10s %-10s\n", "id", "name", "switches",
       "voluntary", "preempted", "mblocks", "run_us", "ready_us", "blocked_us");
  for (uint32_t i = 0; i < rows; ++i) {
    const ThreadSnap& t = s.threads[i];
    emit("  %-4u %-15s %-10llu %-9llu %-9llu %-9llu %-10lld %-10lld %-10lld\n", t.id,
         t.name[0] != '\0' ? t.name : "-", static_cast<unsigned long long>(t.switches_in),
         static_cast<unsigned long long>(t.voluntary),
         static_cast<unsigned long long>(t.preempted),
         static_cast<unsigned long long>(t.mutex_blocks),
         static_cast<long long>(t.running_ns / 1000),
         static_cast<long long>(t.ready_ns / 1000),
         static_cast<long long>(t.blocked_ns / 1000));
  }
  if (s.block[counters::kThreadsLive] > rows) {
    emit("  ... and %llu more threads\n",
         static_cast<unsigned long long>(s.block[counters::kThreadsLive] - rows));
  }

  const char* p = buf;
  int remaining = off;
  while (remaining > 0) {
    const ssize_t w = ::write(fd, p, static_cast<size_t>(remaining));
    if (w <= 0) {
      return errno != 0 ? errno : EIO;
    }
    p += w;
    remaining -= static_cast<int>(w);
  }
  return 0;
}

}  // namespace fsup::debug::metrics
