// Soak test: a few seconds of everything at once — RR slicing, priority churn, signal storms,
// cancellation, I/O, thread churn — with exact invariants checked at the end. This is the
// "run the Ada validation suite overnight" equivalent for this repository.

#include <gtest/gtest.h>

#include <unistd.h>

#include <csignal>
#include <cstring>
#include <new>
#include <vector>

#include "src/core/attr.hpp"
#include "src/core/pthread.hpp"
#include "src/util/dual_loop_timer.hpp"

namespace fsup {
namespace {

class SoakTest : public ::testing::Test {
 protected:
  void SetUp() override { pt_reinit(); }
  void TearDown() override {
    pt_disable_time_slicing();
    pt_set_perverted(PervertedPolicy::kNone, 0);
  }
};

struct SoakWorld {
  pt_mutex_t counter_mutex;
  pt_sem_t tokens;
  pt_cond_t phase_cv;
  pt_mutex_t phase_mutex;
  int pipe_fds[2];
  volatile bool stop = false;

  long counted = 0;
  long produced = 0;
  long consumed = 0;
  int handled_signals = 0;
};

SoakWorld* g_world = nullptr;

void SoakHandler(int) { ++g_world->handled_signals; }

// Counter thread: exact increments under a mutex.
void* CounterBody(void*) {
  while (!g_world->stop) {
    pt_mutex_lock(&g_world->counter_mutex);
    ++g_world->counted;
    pt_mutex_unlock(&g_world->counter_mutex);
  }
  return nullptr;
}

// Producer/consumer pair over a semaphore.
void* ProducerBody(void*) {
  while (!g_world->stop) {
    pt_sem_post(&g_world->tokens);
    ++g_world->produced;
    if (g_world->produced % 64 == 0) {
      pt_yield();
    }
  }
  return nullptr;
}

void* ConsumerBody(void*) {
  for (;;) {
    if (pt_sem_trywait(&g_world->tokens) == 0) {
      ++g_world->consumed;
    } else if (g_world->stop) {
      break;
    } else {
      pt_yield();
    }
  }
  return nullptr;
}

// Pipe echo pair: bytes written must all arrive.
void* PipeReaderBody(void* total_p) {
  auto* total = static_cast<long*>(total_p);
  char buf[256];
  for (;;) {
    const long n = pt_read(g_world->pipe_fds[0], buf, sizeof(buf));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      break;  // EOF: writer closed
    }
    *total += n;
  }
  return nullptr;
}

// Sleeper: repeatedly naps; must survive signals and slicing.
void* SleeperBody(void*) {
  while (!g_world->stop) {
    pt_delay(2 * 1000 * 1000);  // 2ms
  }
  return nullptr;
}

TEST_F(SoakTest, EverythingAtOnceForASecond) {
  static SoakWorld w;
  new (&w) SoakWorld();
  g_world = &w;
  ASSERT_EQ(0, pt_mutex_init(&w.counter_mutex));
  ASSERT_EQ(0, pt_sem_init(&w.tokens, 0));
  ASSERT_EQ(0, pt_cond_init(&w.phase_cv));
  ASSERT_EQ(0, pt_mutex_init(&w.phase_mutex));
  ASSERT_EQ(0, ::pipe(w.pipe_fds));
  ASSERT_EQ(0, pt_sigaction(SIGUSR1, &SoakHandler, 0));

  pt_enable_time_slicing(1000);  // 1ms quantum
  ThreadAttr rr;
  rr.inherit_policy = false;
  rr.policy = SchedPolicy::kRr;

  std::vector<pt_thread_t> workers;
  pt_thread_t t;
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(0, pt_create(&t, &rr, &CounterBody, nullptr));
    workers.push_back(t);
  }
  ASSERT_EQ(0, pt_create(&t, &rr, &ProducerBody, nullptr));
  workers.push_back(t);
  ASSERT_EQ(0, pt_create(&t, &rr, &ConsumerBody, nullptr));
  workers.push_back(t);
  ASSERT_EQ(0, pt_create(&t, &rr, &SleeperBody, nullptr));
  workers.push_back(t);

  static long pipe_received = 0;
  pipe_received = 0;
  pt_thread_t reader;
  ASSERT_EQ(0, pt_create(&reader, nullptr, &PipeReaderBody, &pipe_received));

  // Main thread: drive signals, pipe writes, priority churn, and thread churn for ~2s.
  long pipe_sent = 0;
  const int64_t until = NowNs() + 1LL * 1000 * 1000 * 1000;
  int round = 0;
  auto churn_body = +[](void* p) -> void* { return p; };
  while (NowNs() < until) {
    // Signal one of the workers.
    pt_kill(workers[static_cast<size_t>(round) % workers.size()], SIGUSR1);
    // Push bytes through the pipe.
    char chunk[64];
    std::memset(chunk, 'z', sizeof(chunk));
    const long n = pt_write(w.pipe_fds[1], chunk, sizeof(chunk));
    if (n > 0) {
      pipe_sent += n;
    }
    // Churn a short-lived thread.
    pt_thread_t tmp;
    ASSERT_EQ(0, pt_create(&tmp, nullptr, churn_body, &w));
    void* ret = nullptr;
    ASSERT_EQ(0, pt_join(tmp, &ret));
    ASSERT_EQ(&w, ret);
    // Wobble a worker's priority — never above the driver, or a spinning RR worker alone
    // at the higher level would starve this loop forever.
    pt_setprio(workers[static_cast<size_t>(round) % workers.size()],
               kDefaultPrio - (round % 2));
    ++round;
    pt_delay(1 * 1000 * 1000);  // 1ms breather: let the RR crowd run
  }

  w.stop = true;
  ::close(w.pipe_fds[1]);  // EOF for the reader
  for (pt_thread_t worker : workers) {
    ASSERT_EQ(0, pt_join(worker, nullptr));
  }
  ASSERT_EQ(0, pt_join(reader, nullptr));
  pt_disable_time_slicing();

  // Invariants.
  EXPECT_GT(w.counted, 0);
  EXPECT_GT(w.produced, 0);
  EXPECT_LE(w.consumed, w.produced);
  EXPECT_EQ(pipe_sent, pipe_received);
  EXPECT_GT(w.handled_signals, 0);
  EXPECT_GT(round, 100);  // the driver itself made progress
  // All workload threads joined. Profiling adds no thread, so this holds under
  // FSUP_PROFILE=1 (soak_test_profile) too.
  EXPECT_EQ(1u, pt_stats().live_threads);

  ::close(w.pipe_fds[0]);
  pt_mutex_destroy(&w.counter_mutex);
  pt_sem_destroy(&w.tokens);
  pt_cond_destroy(&w.phase_cv);
  pt_mutex_destroy(&w.phase_mutex);
}

TEST_F(SoakTest, PervertedRandomSoak) {
  // A correctly synchronized workload survives a long random-switch run bit-exactly.
  static SoakWorld w;
  new (&w) SoakWorld();
  g_world = &w;
  ASSERT_EQ(0, pt_mutex_init(&w.counter_mutex));
  pt_set_perverted(PervertedPolicy::kRandom, 0xf00dull);
  constexpr int kThreads = 6;
  constexpr int kIters = 300;
  auto body = +[](void*) -> void* {
    for (int i = 0; i < kIters; ++i) {
      pt_mutex_lock(&g_world->counter_mutex);
      const long c = g_world->counted;
      g_world->counted = c + 1;
      pt_mutex_unlock(&g_world->counter_mutex);
    }
    return nullptr;
  };
  std::vector<pt_thread_t> ts(kThreads);
  for (auto& th : ts) {
    ASSERT_EQ(0, pt_create(&th, nullptr, body, nullptr));
  }
  for (auto& th : ts) {
    ASSERT_EQ(0, pt_join(th, nullptr));
  }
  pt_set_perverted(PervertedPolicy::kNone, 0);
  EXPECT_EQ(static_cast<long>(kThreads) * kIters, w.counted);
  pt_mutex_destroy(&w.counter_mutex);
}

}  // namespace
}  // namespace fsup
