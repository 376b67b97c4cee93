// Per-thread metrics: counters, time-in-state accounting, latency histograms, the snapshot
// and dump APIs, the trace-ring snapshot consistency guarantees, and DumpThreads under load.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/pthread.hpp"
#include "src/debug/profiler.hpp"
#include "src/debug/replay.hpp"
#include "src/debug/stats_shm.hpp"
#include "src/debug/trace.hpp"

namespace fsup {
namespace {

using debug::metrics::LatencyHist;
using debug::metrics::MetricsSnapshot;
using debug::metrics::ThreadSnap;

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pt_reinit();
    pt_metrics_enable(false);
    debug::trace::Clear();
    debug::trace::Enable(false);
  }
  void TearDown() override {
    pt_metrics_enable(false);
    debug::trace::Enable(false);
  }
};

const ThreadSnap* FindSnap(const MetricsSnapshot& s, uint32_t id) {
  for (uint32_t i = 0; i < s.thread_count; ++i) {
    if (s.threads[i].id == id) {
      return &s.threads[i];
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------------------
// Histogram unit behaviour
// ---------------------------------------------------------------------------------------

TEST(LatencyHistTest, EmptyReportsZero) {
  LatencyHist h;
  EXPECT_EQ(0, h.PercentileNs(50));
  EXPECT_EQ(0, h.PercentileNs(99));
  EXPECT_EQ(0.0, h.MeanNs());
  EXPECT_EQ(0u, h.count);
}

TEST(LatencyHistTest, PercentilesBracketSamples) {
  LatencyHist h;
  for (int i = 0; i < 90; ++i) {
    h.Add(1000);  // bucket for ~1us
  }
  for (int i = 0; i < 10; ++i) {
    h.Add(1000000);  // ~1ms tail
  }
  EXPECT_EQ(100u, h.count);
  const int64_t p50 = h.PercentileNs(50);
  const int64_t p99 = h.PercentileNs(99);
  EXPECT_GE(p50, 1000);
  EXPECT_LT(p50, 1000000);
  EXPECT_GE(p99, 1000000);
  EXPECT_GE(h.max_ns, 1000000);
  EXPECT_GT(h.MeanNs(), 0.0);
  EXPECT_LE(p50, p99);
}

TEST(LatencyHistTest, NegativeAndHugeSamplesAreClamped) {
  LatencyHist h;
  h.Add(-5);                    // clamps to 0
  h.Add(int64_t{1} << 62);      // lands in (and is reported from) the top bucket
  EXPECT_EQ(2u, h.count);
  EXPECT_EQ(h.max_ns, h.PercentileNs(99));
}

// ---------------------------------------------------------------------------------------
// Enable/disable and the snapshot surface
// ---------------------------------------------------------------------------------------

TEST_F(MetricsTest, DisabledByDefaultAndKernelTotalsStillLive) {
  EXPECT_FALSE(pt_metrics_enabled());
  pt_yield();
  const MetricsSnapshot s = pt_metrics_snapshot();
  EXPECT_FALSE(s.enabled);
  EXPECT_GT(s.block[counters::kKernelEntries], 0u);
  EXPECT_EQ(0u, s.mutex_wait.count);
  EXPECT_EQ(0, s.mutex_wait.PercentileNs(50));
}

TEST_F(MetricsTest, EnableResetsAndStartsAccounting) {
  pt_metrics_enable(true);
  EXPECT_TRUE(pt_metrics_enabled());
  // Burn a little CPU so the main thread accumulates running time.
  volatile unsigned sink = 0;
  for (unsigned i = 0; i < 2000000; ++i) {
    sink = sink + i;
  }
  const MetricsSnapshot s = pt_metrics_snapshot();
  EXPECT_TRUE(s.enabled);
  ASSERT_GE(s.thread_count, 1u);
  const ThreadSnap* main_snap = FindSnap(s, pt_id(pt_self()));
  ASSERT_NE(nullptr, main_snap);
  EXPECT_GT(main_snap->running_ns, 0);

  // Disabling freezes the gated counters; re-enabling resets them.
  pt_metrics_enable(false);
  EXPECT_FALSE(pt_metrics_enabled());
  pt_metrics_enable(true);
  const MetricsSnapshot s2 = pt_metrics_snapshot();
  const ThreadSnap* again = FindSnap(s2, pt_id(pt_self()));
  ASSERT_NE(nullptr, again);
  EXPECT_LT(again->running_ns, main_snap->running_ns + 1000000000);
}

TEST_F(MetricsTest, VoluntarySwitchesCountedOnYield) {
  pt_metrics_enable(true);
  pt_thread_t t;
  auto body = +[](void*) -> void* {
    for (int i = 0; i < 50; ++i) {
      pt_yield();
    }
    return nullptr;
  };
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  for (int i = 0; i < 50; ++i) {
    pt_yield();
  }
  ASSERT_EQ(0, pt_join(t, nullptr));
  const MetricsSnapshot s = pt_metrics_snapshot();
  EXPECT_GT(s.block[counters::kMetricsVoluntarySwitches], 0u);
  const ThreadSnap* main_snap = FindSnap(s, pt_id(pt_self()));
  ASSERT_NE(nullptr, main_snap);
  EXPECT_GT(main_snap->voluntary, 0u);
  // A yielding thread spends time both running and ready.
  EXPECT_GT(main_snap->ready_ns + main_snap->running_ns, 0);
}

// ---------------------------------------------------------------------------------------
// Mutex wait/hold histograms (the contended/uncontended acceptance criterion)
// ---------------------------------------------------------------------------------------

TEST_F(MetricsTest, UncontendedMutexShowsZeroWaitPercentiles) {
  pt_metrics_enable(true);
  pt_mutex_t m;
  ASSERT_EQ(0, pt_mutex_init(&m));
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(0, pt_mutex_lock(&m));
    ASSERT_EQ(0, pt_mutex_unlock(&m));
  }
  pt_mutex_destroy(&m);
  const MetricsSnapshot s = pt_metrics_snapshot();
  EXPECT_EQ(0u, s.mutex_wait.count);
  EXPECT_EQ(0, s.mutex_wait.PercentileNs(50));
  EXPECT_EQ(0, s.mutex_wait.PercentileNs(99));
  // Holds WERE observed (metrics force the kernel path).
  EXPECT_GT(s.mutex_hold.count, 0u);
}

struct ContendArgs {
  pt_mutex_t m;
  int rounds;
};

TEST_F(MetricsTest, ContendedMutexShowsNonZeroWaitPercentiles) {
  pt_metrics_enable(true);
  static ContendArgs args;
  ASSERT_EQ(0, pt_mutex_init(&args.m));
  args.rounds = 200;
  auto body = +[](void* p) -> void* {
    auto* a = static_cast<ContendArgs*>(p);
    for (int i = 0; i < a->rounds; ++i) {
      pt_mutex_lock(&a->m);
      pt_mutex_unlock(&a->m);
      pt_yield();
    }
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, &args));
  for (int i = 0; i < args.rounds; ++i) {
    pt_mutex_lock(&args.m);
    pt_yield();  // let the partner block on the held mutex
    pt_mutex_unlock(&args.m);
    pt_yield();
  }
  ASSERT_EQ(0, pt_join(t, nullptr));
  pt_mutex_destroy(&args.m);

  const MetricsSnapshot s = pt_metrics_snapshot();
  EXPECT_GT(s.mutex_wait.count, 0u);
  EXPECT_GT(s.mutex_wait.PercentileNs(50), 0);
  EXPECT_GT(s.mutex_wait.PercentileNs(95), 0);
  EXPECT_GT(s.mutex_wait.PercentileNs(99), 0);
  EXPECT_GE(s.mutex_wait.PercentileNs(99), s.mutex_wait.PercentileNs(50));
  EXPECT_GT(s.sched_latency.count, 0u);  // the blocked thread went ready -> running
}

TEST_F(MetricsTest, MutexBlocksAttributedToTheBlockedThread) {
  pt_metrics_enable(true);
  static ContendArgs args;
  ASSERT_EQ(0, pt_mutex_init(&args.m));
  args.rounds = 10;
  auto body = +[](void* p) -> void* {
    auto* a = static_cast<ContendArgs*>(p);
    for (int i = 0; i < a->rounds; ++i) {
      pt_mutex_lock(&a->m);
      pt_mutex_unlock(&a->m);
      pt_yield();
    }
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, &args));
  const uint32_t partner_id = pt_id(t);
  for (int i = 0; i < args.rounds; ++i) {
    pt_mutex_lock(&args.m);
    pt_yield();
    pt_mutex_unlock(&args.m);
    pt_yield();
  }
  // Snapshot while the partner is still alive (it may already be done; both fine — join
  // after so the TCB is certainly live at capture time only in the pre-join snapshot).
  const MetricsSnapshot s = pt_metrics_snapshot();
  ASSERT_EQ(0, pt_join(t, nullptr));
  pt_mutex_destroy(&args.m);
  const ThreadSnap* partner = FindSnap(s, partner_id);
  ASSERT_NE(nullptr, partner);
  EXPECT_GT(partner->mutex_blocks, 0u);
  EXPECT_GT(partner->mutex_wait_ns, 0);
}

// Holds are derived from lock/unlock events, one sample per outermost hold.

TEST_F(MetricsTest, RecursiveHoldIsOneSample) {
  pt_mutexattr_t attr;
  attr.type = MutexType::kRecursive;
  pt_mutex_t m;
  ASSERT_EQ(0, pt_mutex_init(&m, &attr));
  pt_metrics_enable(true);
  ASSERT_EQ(0, pt_mutex_lock(&m));
  ASSERT_EQ(0, pt_mutex_lock(&m));
  ASSERT_EQ(0, pt_mutex_trylock(&m));
  ASSERT_EQ(0, pt_mutex_unlock(&m));
  ASSERT_EQ(0, pt_mutex_unlock(&m));
  EXPECT_EQ(0u, pt_metrics_snapshot().mutex_hold.count);  // still held
  ASSERT_EQ(0, pt_mutex_unlock(&m));
  const MetricsSnapshot s = pt_metrics_snapshot();
  EXPECT_EQ(1u, s.mutex_hold.count);
  EXPECT_EQ(0u, s.mutex_wait.count);
  pt_mutex_destroy(&m);
}

// A replay-session start rewinds the tag counter, so a mutex created after it can share its
// tag with an older one. Holding both is two holds, not one recursive hold.
TEST_F(MetricsTest, MutexesSharingATagAcrossATagRewindAreTwoHolds) {
  pt_mutex_t old_m;
  pt_mutex_t new_m;
  debug::replay::StartRecording();  // rewinds the tags
  ASSERT_EQ(0, pt_mutex_init(&old_m));
  debug::replay::StopRecording();
  debug::replay::StartRecording();  // rewinds them again
  ASSERT_EQ(0, pt_mutex_init(&new_m));
  debug::replay::StopRecording();
  ASSERT_EQ(old_m.tag, new_m.tag);

  pt_metrics_enable(true);
  ASSERT_EQ(0, pt_mutex_lock(&old_m));
  ASSERT_EQ(0, pt_mutex_lock(&new_m));
  ASSERT_EQ(0, pt_mutex_unlock(&new_m));
  ASSERT_EQ(0, pt_mutex_unlock(&old_m));
  EXPECT_EQ(2u, pt_metrics_snapshot().mutex_hold.count);
  pt_mutex_destroy(&old_m);
  pt_mutex_destroy(&new_m);
}

TEST_F(MetricsTest, NestedHoldsEachSampledUpToTheSlotCap) {
  constexpr int kSlots = TcbMetrics::kHeldSlots;
  pt_mutex_t m[kSlots + 1];
  for (pt_mutex_t& x : m) {
    ASSERT_EQ(0, pt_mutex_init(&x));
  }
  pt_metrics_enable(true);
  // Released out of acquisition order: each unlock closes its own mutex's hold.
  ASSERT_EQ(0, pt_mutex_lock(&m[0]));
  ASSERT_EQ(0, pt_mutex_lock(&m[1]));
  ASSERT_EQ(0, pt_mutex_unlock(&m[0]));
  ASSERT_EQ(0, pt_mutex_lock(&m[2]));
  ASSERT_EQ(0, pt_mutex_unlock(&m[2]));
  ASSERT_EQ(0, pt_mutex_unlock(&m[1]));
  EXPECT_EQ(3u, pt_metrics_snapshot().mutex_hold.count);
  // One more nested hold than there are slots: the innermost is not sampled.
  for (pt_mutex_t& x : m) {
    ASSERT_EQ(0, pt_mutex_lock(&x));
  }
  for (int i = kSlots; i >= 0; --i) {
    ASSERT_EQ(0, pt_mutex_unlock(&m[i]));
  }
  EXPECT_EQ(3u + kSlots, pt_metrics_snapshot().mutex_hold.count);
  for (pt_mutex_t& x : m) {
    pt_mutex_destroy(&x);
  }
}

TEST_F(MetricsTest, CondWaitSplitsTheHoldAroundTheWait) {
  pt_mutex_t m;
  pt_cond_t c;
  ASSERT_EQ(0, pt_mutex_init(&m));
  ASSERT_EQ(0, pt_cond_init(&c));
  pt_metrics_enable(true);
  ASSERT_EQ(0, pt_mutex_lock(&m));
  // The wait unlocks (closing the first hold) and relocks on timeout (opening a second).
  ASSERT_EQ(ETIMEDOUT, pt_cond_timedwait(&c, &m, 1'000'000));
  EXPECT_EQ(1u, pt_metrics_snapshot().mutex_hold.count);
  ASSERT_EQ(0, pt_mutex_unlock(&m));
  const MetricsSnapshot s = pt_metrics_snapshot();
  EXPECT_EQ(2u, s.mutex_hold.count);
  EXPECT_EQ(0u, s.mutex_wait.count);  // the relock was uncontended
  pt_cond_destroy(&c);
  pt_mutex_destroy(&m);
}

// A locker that blocks and then fails the ceiling check (EINVAL) abandons its wait; the
// thread's next, unrelated lock must not be charged for it.
TEST_F(MetricsTest, FailedCeilingAcquisitionEndsTheWait) {
  static pt_mutex_t ceiling_m;
  static pt_mutex_t other;
  static int lock_rc;
  pt_mutexattr_t attr;
  attr.protocol = MutexProtocol::kProtect;
  attr.ceiling = kDefaultPrio;
  ASSERT_EQ(0, pt_mutex_init(&ceiling_m, &attr));
  ASSERT_EQ(0, pt_mutex_init(&other));
  pt_metrics_enable(true);
  ASSERT_EQ(0, pt_mutex_lock(&ceiling_m));
  auto body = +[](void*) -> void* {
    lock_rc = pt_mutex_lock(&ceiling_m);  // blocks, then fails: priority above the ceiling
    pt_mutex_lock(&other);
    pt_mutex_unlock(&other);
    return nullptr;
  };
  ThreadAttr ta;
  ta.priority = kDefaultPrio + 1;  // runs at once and blocks on the held ceiling mutex
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, &ta, body, nullptr));
  ASSERT_EQ(0, pt_mutex_unlock(&ceiling_m));  // hands the mutex to the blocked locker
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(EINVAL, lock_rc);
  const MetricsSnapshot s = pt_metrics_snapshot();
  EXPECT_EQ(0u, s.mutex_wait.count);
  EXPECT_EQ(2u, s.mutex_hold.count);  // main's ceiling hold and the thread's `other` hold
  pt_mutex_destroy(&other);
}

// ---------------------------------------------------------------------------------------
// Text dump
// ---------------------------------------------------------------------------------------

TEST_F(MetricsTest, DumpTextWritesReport) {
  pt_metrics_enable(true);
  pt_yield();
  int fds[2];
  ASSERT_EQ(0, ::pipe(fds));
  EXPECT_EQ(0, pt_metrics_dump(fds[1]));
  ::close(fds[1]);
  char buf[16384];
  std::string out;
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  EXPECT_NE(std::string::npos, out.find("fsup metrics"));
  EXPECT_NE(std::string::npos, out.find("kernel.kernel_entries="));
  EXPECT_NE(std::string::npos, out.find("p50"));
  EXPECT_NE(std::string::npos, out.find("main"));  // the main thread's row
}

TEST_F(MetricsTest, DumpTextRejectsBadFd) { EXPECT_NE(0, pt_metrics_dump(-1)); }

// ---------------------------------------------------------------------------------------
// Trace ring: user events, totals, and the snapshot wrap-boundary guarantee
// ---------------------------------------------------------------------------------------

TEST_F(MetricsTest, TraceUserEventLogged) {
  debug::trace::Enable(true);
  pt_trace_user(7, 9);
  debug::trace::Enable(false);
  const std::vector<debug::trace::Record> recs = debug::trace::SnapshotAll();
  ASSERT_GE(recs.size(), 1u);
  bool found = false;
  for (const debug::trace::Record& r : recs) {
    if (r.event == debug::trace::Event::kUser && r.a == 7 && r.b == 9) {
      found = true;
      EXPECT_GT(r.t_ns, 0);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(MetricsTest, SnapshotConsistentAcrossWrap) {
  debug::trace::Enable(true);
  const size_t cap = debug::trace::Capacity();
  constexpr uint32_t kOverflow = 257;  // push this many records past a full ring
  for (uint32_t i = 0; i < cap + kOverflow; ++i) {
    pt_trace_user(i, 0);
  }
  debug::trace::Enable(false);

  EXPECT_EQ(static_cast<uint64_t>(cap) + kOverflow, debug::trace::TotalLogged());
  std::vector<debug::trace::Record> out(cap);
  const size_t n = debug::trace::Snapshot(out.data(), out.size());
  ASSERT_EQ(cap, n);
  // The ring kept the newest `cap` records: kOverflow .. cap+kOverflow-1, oldest first,
  // with no slot from before the wrap leaking in (the torn-view bug this API fixes).
  EXPECT_EQ(kOverflow, out.front().a);
  EXPECT_EQ(cap + kOverflow - 1, out.back().a);
  for (size_t i = 1; i < n; ++i) {
    EXPECT_EQ(out[i - 1].a + 1, out[i].a) << "gap at " << i;
  }
}

TEST_F(MetricsTest, SnapshotTruncatesToNewestWhenBufferSmall) {
  debug::trace::Enable(true);
  for (uint32_t i = 0; i < 100; ++i) {
    pt_trace_user(i, 0);
  }
  debug::trace::Enable(false);
  debug::trace::Record out[10];
  const size_t n = debug::trace::Snapshot(out, 10);
  ASSERT_EQ(10u, n);
  EXPECT_EQ(90u, out[0].a);  // newest 10, oldest first
  EXPECT_EQ(99u, out[9].a);
}

// ---------------------------------------------------------------------------------------
// DumpThreads under load (satellite: every live thread appears with sane fields)
// ---------------------------------------------------------------------------------------

struct DumpLoadArgs {
  pt_sem_t gate;
};

TEST_F(MetricsTest, DumpThreadsUnderLoadShowsEveryLiveThread) {
  pt_metrics_enable(true);
  static DumpLoadArgs args;
  ASSERT_EQ(0, pt_sem_init(&args.gate, 0));
  auto body = +[](void* p) -> void* {
    auto* a = static_cast<DumpLoadArgs*>(p);
    pt_sem_wait(&a->gate);
    return nullptr;
  };
  constexpr int kThreads = 4;
  pt_thread_t ts[kThreads];
  uint32_t ids[kThreads];
  const char* names[kThreads] = {"dump-a", "dump-b", "dump-c", "dump-d"};
  for (int i = 0; i < kThreads; ++i) {
    ThreadAttr attr;
    attr.name = names[i];
    ASSERT_EQ(0, pt_create(&ts[i], &attr, body, &args));
    ids[i] = pt_id(ts[i]);
  }
  pt_yield();  // let them all reach the semaphore

  ::testing::internal::CaptureStderr();
  pt_dump_threads();
  const std::string out = ::testing::internal::GetCapturedStderr();

  for (int i = 0; i < kThreads; ++i) {
    ASSERT_EQ(0, pt_sem_post(&args.gate));
  }
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_EQ(0, pt_join(ts[i], nullptr));
  }
  pt_sem_destroy(&args.gate);

  EXPECT_NE(std::string::npos, out.find("fsup threads:"));
  // Every live thread appears, by id and by name, with a valid state and metrics columns.
  EXPECT_NE(std::string::npos, out.find("[current]"));
  for (int i = 0; i < kThreads; ++i) {
    const std::string tag = "#" + std::to_string(ids[i]) + " " + names[i];
    EXPECT_NE(std::string::npos, out.find(tag)) << "missing: " << tag << "\n" << out;
  }
  EXPECT_NE(std::string::npos, out.find("blocked"));
  EXPECT_NE(std::string::npos, out.find("switches="));
  EXPECT_NE(std::string::npos, out.find("vol="));  // metrics columns present when enabled
  EXPECT_NE(std::string::npos, out.find("run_us="));
  // No garbage: every run_us= field parses as a non-negative integer.
  size_t pos = 0;
  while ((pos = out.find("run_us=", pos)) != std::string::npos) {
    pos += 7;
    ASSERT_LT(pos, out.size());
    EXPECT_TRUE(out[pos] == '-' ? false : std::isdigit(static_cast<unsigned char>(out[pos])))
        << "garbage after run_us= at " << pos;
    long long v = 0;
    EXPECT_EQ(1, std::sscanf(out.c_str() + pos, "%lld", &v));
    EXPECT_GE(v, 0);
  }
}

// ---------------------------------------------------------------------------------------
// Signal delivery accounting
// ---------------------------------------------------------------------------------------

volatile sig_atomic_t g_handler_hits = 0;
void CountingHandler(int) { g_handler_hits = g_handler_hits + 1; }

TEST_F(MetricsTest, SignalDeliveriesCounted) {
  pt_metrics_enable(true);
  g_handler_hits = 0;
  ASSERT_EQ(0, pt_sigaction(SIGUSR1, &CountingHandler, 0));
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(0, pt_kill(pt_self(), SIGUSR1));
  }
  ASSERT_EQ(0, pt_sigaction(SIGUSR1, nullptr, 0));
  EXPECT_EQ(5, g_handler_hits);
  const MetricsSnapshot s = pt_metrics_snapshot();
  EXPECT_GE(s.block[counters::kMetricsSignalsDelivered], 5u);
  const ThreadSnap* main_snap = FindSnap(s, pt_id(pt_self()));
  ASSERT_NE(nullptr, main_snap);
  EXPECT_GE(main_snap->signals_taken, 5u);
}

// ---------------------------------------------------------------------------------------
// Cross-observer consistency: trace, metrics, off-CPU profiler and KernelState see one event
// stream, so over one run they must agree exactly
// ---------------------------------------------------------------------------------------

struct Workload {
  pt_mutex_t contended;  // held across a yield: the other contender blocks on it
  pt_mutex_t q_lock;     // bounded buffer of 2 on mutex + two conds
  pt_cond_t not_full;
  pt_cond_t not_empty;
  int queued = 0;
  pt_sem_t ping;  // semaphore ping-pong
  pt_sem_t pong;
  pt_sem_t done;     // each worker posts once its work is finished...
  pt_sem_t release;  // ...then parks here until the cut has been taken
};

constexpr int kRounds = 100;

void Finish(Workload* w) {
  pt_sem_post(&w->done);
  pt_sem_wait(&w->release);
}

void* Contender(void* arg) {
  auto* w = static_cast<Workload*>(arg);
  for (int i = 0; i < kRounds; ++i) {
    pt_mutex_lock(&w->contended);
    pt_yield();
    pt_mutex_unlock(&w->contended);
  }
  Finish(w);
  return nullptr;
}

void* Producer(void* arg) {
  auto* w = static_cast<Workload*>(arg);
  for (int i = 0; i < kRounds; ++i) {
    pt_mutex_lock(&w->q_lock);
    while (w->queued == 2) {
      pt_cond_wait(&w->not_full, &w->q_lock);
    }
    ++w->queued;
    pt_cond_signal(&w->not_empty);
    pt_mutex_unlock(&w->q_lock);
  }
  Finish(w);
  return nullptr;
}

void* Consumer(void* arg) {
  auto* w = static_cast<Workload*>(arg);
  for (int i = 0; i < kRounds; ++i) {
    pt_mutex_lock(&w->q_lock);
    while (w->queued == 0) {
      pt_cond_wait(&w->not_empty, &w->q_lock);
    }
    --w->queued;
    pt_cond_signal(&w->not_full);
    pt_mutex_unlock(&w->q_lock);
  }
  Finish(w);
  return nullptr;
}

void* Pinger(void* arg) {
  auto* w = static_cast<Workload*>(arg);
  for (int i = 0; i < kRounds; ++i) {
    pt_sem_post(&w->ping);
    pt_sem_wait(&w->pong);
  }
  Finish(w);
  return nullptr;
}

void* Ponger(void* arg) {
  auto* w = static_cast<Workload*>(arg);
  for (int i = 0; i < kRounds; ++i) {
    pt_sem_wait(&w->ping);
    pt_sem_post(&w->pong);
  }
  Finish(w);
  return nullptr;
}

TEST_F(MetricsTest, ObserversAgreeOverOneRun) {
  Workload w;
  ASSERT_EQ(0, pt_mutex_init(&w.contended));
  ASSERT_EQ(0, pt_mutex_init(&w.q_lock));
  ASSERT_EQ(0, pt_cond_init(&w.not_full));
  ASSERT_EQ(0, pt_cond_init(&w.not_empty));
  ASSERT_EQ(0, pt_sem_init(&w.ping, 0));
  ASSERT_EQ(0, pt_sem_init(&w.pong, 0));
  ASSERT_EQ(0, pt_sem_init(&w.done, 0));
  ASSERT_EQ(0, pt_sem_init(&w.release, 0));

  // Everything on while main is the only thread, so no event falls between the enables.
  // Under a recording session the profiler samples from the timer tick: the run has no
  // asynchronous events at all, and the stats segment is published only at ticks, idle
  // polls and when the test asks, none of which falls inside the cut below.
  // A session already running (FSUP_PROFILE=1 starts one at init) would make the start below
  // fail with EBUSY: stop it, so the run is sampled by this test's own recording session.
  if (pt_profile_active()) {
    ASSERT_EQ(0, pt_profile_stop());
  }
  const std::string shm = ::testing::TempDir() + "observers_agree.shm";
  ASSERT_EQ(0, ::setenv("FSUP_STATS_SHM", shm.c_str(), 1));
  const MetricsSnapshot before = pt_metrics_snapshot();
  debug::trace::Enable(true);
  pt_metrics_enable(true);
  debug::replay::StartRecording();
  ASSERT_EQ(0, pt_profile_start(0));

  void* (*const bodies[])(void*) = {Contender, Contender, Producer, Consumer, Pinger, Ponger};
  constexpr int kWorkers = sizeof(bodies) / sizeof(bodies[0]);
  pt_thread_t workers[kWorkers];
  for (int i = 0; i < kWorkers; ++i) {
    ASSERT_EQ(0, pt_create(&workers[i], nullptr, bodies[i], &w));
  }
  for (int i = 0; i < kWorkers; ++i) {
    ASSERT_EQ(0, pt_sem_wait(&w.done));
  }

  // The cut: every worker is parked on `release` (a cond wait — no thread is blocked on a
  // mutex) and main reads each observer without blocking, so all of them describe the same
  // prefix of the event stream. The stats segment is published first.
  debug::profiler::Collect();
  const MetricsSnapshot s = pt_metrics_snapshot();
  debug::StatsShm frame{};
  const int shm_fd = ::open(shm.c_str(), O_RDONLY);
  ASSERT_GE(shm_fd, 0);
  ASSERT_EQ(static_cast<ssize_t>(sizeof(frame)), ::read(shm_fd, &frame, sizeof(frame)));
  ::close(shm_fd);
  const std::vector<debug::trace::Record> recs = debug::trace::SnapshotAll();

  for (int i = 0; i < kWorkers; ++i) {
    ASSERT_EQ(0, pt_sem_post(&w.release));
  }
  for (int i = 0; i < kWorkers; ++i) {
    ASSERT_EQ(0, pt_join(workers[i], nullptr));
  }
  pt_profile_stop();
  debug::replay::StopRecording();
  pt_metrics_enable(false);
  debug::trace::Enable(false);
  ::unsetenv("FSUP_STATS_SHM");
  std::remove(shm.c_str());

  ASSERT_LT(recs.size(), debug::trace::Capacity()) << "ring wrapped: counts incomplete";
  uint64_t switches = 0, mutex_blocks = 0, wakes = 0;
  for (const debug::trace::Record& r : recs) {
    if (r.event == debug::trace::Event::kSwitch) {
      EXPECT_EQ(r.b, r.tid) << "a switch record belongs to the incoming thread";
    }
    switches += r.event == debug::trace::Event::kSwitch ? 1 : 0;
    mutex_blocks += r.event == debug::trace::Event::kMutexBlock ? 1 : 0;
    wakes += r.event == debug::trace::Event::kWake ? 1 : 0;
  }
  uint64_t thread_blocks = 0;
  int64_t thread_wait_ns = 0;
  ASSERT_EQ(static_cast<uint64_t>(s.thread_count), s.block[counters::kThreadsLive]);
  for (uint32_t i = 0; i < s.thread_count; ++i) {
    thread_blocks += s.threads[i].mutex_blocks;
    thread_wait_ns += s.threads[i].mutex_wait_ns;
  }

  ASSERT_GT(switches, 0u);
  ASSERT_GT(mutex_blocks, 0u);
  ASSERT_GT(wakes, 0u);
  EXPECT_EQ(switches, s.block[counters::kMetricsVoluntarySwitches] +
                          s.block[counters::kMetricsPreemptedSwitches]);
  EXPECT_EQ(switches,
            s.block[counters::kKernelCtxSwitches] - before.block[counters::kKernelCtxSwitches]);
  EXPECT_EQ(mutex_blocks, s.mutex_wait.count);
  EXPECT_EQ(mutex_blocks, thread_blocks);
  EXPECT_EQ(wakes, s.block[counters::kProfilerOffcpuSamples]);  // the session's own count
  EXPECT_EQ(thread_wait_ns, s.mutex_wait.sum_ns);

  // fsup_top's frame and the snapshot carry the same block: they differ only by the kernel
  // entry the snapshot made itself.
  for (int c = 0; c < counters::kCount; ++c) {
    const uint64_t own = c == counters::kKernelEntries ? 1 : 0;
    EXPECT_EQ(frame.block.counters[c] + own, s.block.counters[c]) << counters::kNames[c];
  }
  for (int g = 0; g < counters::kGaugeCount; ++g) {
    EXPECT_EQ(frame.block.gauges[g], s.block.gauges[g]) << counters::kGaugeNames[g];
  }
}

// Every slot has one unique dotted name, and the stats segment carries the whole block.
TEST(CounterRegistryTest, EverySlotHasOneUniqueDottedName) {
  std::vector<std::string> names;
  for (int c = 0; c < counters::kCount; ++c) {
    names.emplace_back(counters::kNames[c]);
  }
  for (int g = 0; g < counters::kGaugeCount; ++g) {
    names.emplace_back(counters::kGaugeNames[g]);
  }
  for (size_t i = 0; i < names.size(); ++i) {
    const std::string& n = names[i];
    const size_t dot = n.find('.');
    EXPECT_TRUE(dot != std::string::npos && dot > 0 && dot + 1 < n.size()) << n;
    for (size_t j = 0; j < i; ++j) {
      EXPECT_NE(names[j], n);
    }
  }
  const debug::StatsShm layout{};
  EXPECT_EQ(static_cast<size_t>(counters::kCount),
            sizeof(layout.block.counters) / sizeof(layout.block.counters[0]));
  EXPECT_EQ(static_cast<size_t>(counters::kGaugeCount),
            sizeof(layout.block.gauges) / sizeof(layout.block.gauges[0]));
}

}  // namespace
}  // namespace fsup
