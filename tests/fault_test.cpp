// Fault-injection tests: deterministic host-call failures at the hostos boundary and the
// hardened error paths they exercise — resource exhaustion degrading to EAGAIN with no leaked
// pool entries, benign EINTR absorbed by the retry loops, failed mask calls losing no signal,
// wait-for-graph deadlock detection returning EDEADLK instead of hanging, and byte-for-byte
// replayable failure schedules.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <vector>

#include "src/core/attr.hpp"
#include "src/core/bench_probes.hpp"
#include "src/core/pthread.hpp"
#include "src/debug/trace.hpp"
#include "src/hostos/fault.hpp"
#include "src/kernel/kernel.hpp"
#include "src/util/counters.hpp"
#include "src/util/dual_loop_timer.hpp"
#include "src/util/hash.hpp"

namespace fsup {
namespace {

using hostos::Call;
namespace fault = hostos::fault;

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Clear();
    pt_reinit();
  }
  void TearDown() override {
    fault::Clear();
    debug::trace::Enable(false);
    pt_reinit();
  }
};

TEST_F(FaultTest, SpecParsingAcceptsTheDocumentedSyntax) {
  EXPECT_TRUE(fault::ParseSpec("mmap:n=1:ENOMEM"));
  EXPECT_TRUE(fault::ParseSpec("setitimer:k=13:EINTR;poll:k=7:EINTR"));
  EXPECT_TRUE(fault::ParseSpec("sigaction:p=250@42:EINVAL"));
  EXPECT_TRUE(fault::ParseSpec("kill:n=2:11"));  // numeric errno
  EXPECT_TRUE(fault::ParseSpec("epoll_wait:n=1:raise=SIGUSR1;poll:k=3:raise=12"));
  fault::Clear();

  EXPECT_FALSE(fault::ParseSpec(""));
  EXPECT_FALSE(fault::ParseSpec("bogus:n=1:ENOMEM"));      // unknown call
  EXPECT_FALSE(fault::ParseSpec("mmap:n=0:ENOMEM"));       // zero ordinal
  EXPECT_FALSE(fault::ParseSpec("mmap:n=1:EWHATEVER"));    // unknown errno
  EXPECT_FALSE(fault::ParseSpec("mmap:x=1:ENOMEM"));       // unknown mode
  EXPECT_FALSE(fault::ParseSpec("mmap:p=50:EINTR"));       // random without seed
  EXPECT_FALSE(fault::ParseSpec("mmap:n=1"));              // missing errno
  EXPECT_FALSE(fault::ParseSpec("poll:n=1:raise=SIGFOO")); // unknown signal
  EXPECT_FALSE(fault::ParseSpec("poll:n=1:raise=999"));    // no such signal
  // A bad clause must not half-arm the good one before it.
  EXPECT_FALSE(fault::ParseSpec("mmap:n=1:ENOMEM;junk"));
  EXPECT_FALSE(fault::AnyArmed());
}

TEST_F(FaultTest, MmapExhaustionDegradesCreateToEagainWithoutLeaks) {
  // Warm up: one create/join so every lazy-init path has run.
  pt_thread_t t;
  auto body = +[](void*) -> void* { return nullptr; };
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));

  const uint64_t maps_before = probe::StackPoolMaps();
  const uint64_t free_before = probe::StackPoolFree();

  // An over-default stack size bypasses the pool, so the first mmap after arming is the
  // thread's stack map — exactly the acceptance scenario.
  ASSERT_TRUE(fault::ParseSpec("mmap:n=1:ENOMEM"));
  ThreadAttr big;
  big.stack_size = kDefaultStackSize * 2;
  EXPECT_EQ(EAGAIN, pt_create(&t, &big, body, nullptr));
  EXPECT_EQ(1u, fault::InjectedCount(Call::kMmap));
  EXPECT_EQ(1u, counters::Get(counters::kPoolAllocFailures));

  // No pool entry leaked: same mapped-stack count, same freelist population, no thread born.
  EXPECT_EQ(maps_before, probe::StackPoolMaps());
  EXPECT_EQ(free_before, probe::StackPoolFree());
  EXPECT_EQ(1u, pt_stats().live_threads);

  // The process carries on: the same request succeeds once the injected exhaustion clears.
  fault::Clear();
  ASSERT_EQ(0, pt_create(&t, &big, body, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
}

TEST_F(FaultTest, MprotectGuardFailureIsContainedToo) {
  pt_thread_t t;
  auto body = +[](void*) -> void* { return nullptr; };
  const uint64_t free_before = probe::StackPoolFree();

  fault::FailNth(Call::kMprotect, 1, EACCES);
  ThreadAttr big;
  big.stack_size = kDefaultStackSize * 2;
  EXPECT_EQ(EAGAIN, pt_create(&t, &big, body, nullptr));
  EXPECT_EQ(free_before, probe::StackPoolFree());
  EXPECT_EQ(1u, pt_stats().live_threads);

  fault::Clear();
  ASSERT_EQ(0, pt_create(&t, &big, body, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
}

// Runs a fixed workload under "fail the first mmap" and snapshots the per-call trajectory.
void RunReplayScenario(uint64_t counts[static_cast<int>(Call::kCount)]) {
  fault::Clear();
  pt_reinit();
  hostos::ResetCallCounts();
  ASSERT_TRUE(fault::ParseSpec("mmap:n=1:ENOMEM"));

  pt_thread_t t;
  auto body = +[](void*) -> void* { return nullptr; };
  ThreadAttr big;
  big.stack_size = kDefaultStackSize * 2;
  EXPECT_EQ(EAGAIN, pt_create(&t, &big, body, nullptr));  // injected exhaustion
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));    // pooled stack: unaffected
  ASSERT_EQ(0, pt_join(t, nullptr));
  fault::Clear();
  ASSERT_EQ(0, pt_create(&t, &big, body, nullptr));       // fresh map: succeeds again
  ASSERT_EQ(0, pt_join(t, nullptr));

  for (int c = 0; c < static_cast<int>(Call::kCount); ++c) {
    counts[c] = hostos::CallCount(static_cast<Call>(c));
  }
}

TEST_F(FaultTest, SameSpecReplaysTheIdenticalCallCountTrajectory) {
  uint64_t first[static_cast<int>(Call::kCount)] = {};
  uint64_t second[static_cast<int>(Call::kCount)] = {};
  RunReplayScenario(first);
  RunReplayScenario(second);
  for (int c = 0; c < static_cast<int>(Call::kCount); ++c) {
    EXPECT_EQ(first[c], second[c]) << "call " << fault::CallName(static_cast<Call>(c));
  }
  EXPECT_GT(first[static_cast<int>(Call::kMmap)], 0u);
}

// The seeded random rule fires invocation i (0-based since arming) exactly when
// Hash(seed, i) % 1000 < P, and re-arming the same seed repeats the same ordinals.
TEST_F(FaultTest, SeededRandomRuleFiresTheHashedOrdinalsAndRepeats) {
  constexpr int kCalls = 1000;
  std::vector<int> want;
  for (int i = 0; i < kCalls; ++i) {
    if (Hash(42, static_cast<uint64_t>(i)) % 1000 < 250) {
      want.push_back(i);
    }
  }
  ASSERT_FALSE(want.empty());
  auto fired = [] {
    std::vector<int> out;
    for (int i = 0; i < kCalls; ++i) {
      const int err = fault::ShouldFail(Call::kSigaction);
      if (err != 0) {
        EXPECT_EQ(EINVAL, err);
        out.push_back(i);
      }
    }
    return out;
  };
  ASSERT_TRUE(fault::ParseSpec("sigaction:p=250@42:EINVAL"));
  const std::vector<int> first = fired();
  EXPECT_EQ(want, first);
  EXPECT_EQ(want.size(), fault::InjectedCount(Call::kSigaction));
  ASSERT_TRUE(fault::ParseSpec("sigaction:p=250@42:EINVAL"));
  EXPECT_EQ(first, fired());
}

TEST_F(FaultTest, InjectedSetitimerEintrIsRetriedInsideTheWrapper) {
  // One injected EINTR on the next setitimer; the wrapper's retry loop absorbs it, so the
  // timed sleep behaves exactly as without injection.
  fault::FailNth(Call::kSetitimer, 1, EINTR);
  const int64_t start = NowNs();
  EXPECT_EQ(0, pt_delay(2 * 1000 * 1000));  // 2ms
  EXPECT_GE(NowNs() - start, 2 * 1000 * 1000);
  EXPECT_EQ(1u, fault::InjectedCount(Call::kSetitimer));
}

TEST_F(FaultTest, PersistentSetitimerFailureDoesNotStrandSleepers) {
  // Worst case: EVERY setitimer attempt fails, exhausting even the wrapper's retry budget.
  // The idle loop's poll timeout is derived from the same deadline list, so sleepers still
  // wake on time — the interval timer is an optimization, not a correctness dependency.
  fault::FailEveryKth(Call::kSetitimer, 1, EINTR);
  const int64_t start = NowNs();
  EXPECT_EQ(0, pt_delay(2 * 1000 * 1000));  // 2ms
  EXPECT_GE(NowNs() - start, 2 * 1000 * 1000);
  EXPECT_GT(fault::InjectedCount(Call::kSetitimer), 0u);
}

TEST_F(FaultTest, FailingMaskCallsLoseNoSignal) {
  // Every sigprocmask fails, with EINTR past the wrapper's retry budget or with a hard errno,
  // while a user handler running in main's universal-handler frame yields to a worker: the
  // one mask call left on a delivery path, made when a thread leaves a handler frame by a
  // switch. The worker then runs with the frame's signal still blocked and sends it again.
  // The host holds that signal, it is not lost: it lands when main's frame returns, and the
  // frame's sigreturn leaves nothing blocked. (soak_test_fault's sigprocmask rule covered
  // mask calls while every delivery made one; a delivery makes none now.)
  for (const int err : {EINTR, EINVAL}) {
    SCOPED_TRACE(err);
    fault::Clear();
    pt_reinit();
    static int handled = 0;
    handled = 0;
    ASSERT_EQ(0, pt_sigaction(SIGUSR1, +[](int) {
      ++handled;
      pt_yield();  // to the worker, from inside the frame
    }, 0));
    auto worker = +[](void*) -> void* {
      while (handled == 0) {
        pt_yield();
      }
      ::kill(::getpid(), SIGUSR1);
      return nullptr;
    };
    pt_thread_t t;
    ASSERT_EQ(0, pt_create(&t, nullptr, worker, nullptr));
    fault::FailEveryKth(Call::kSigprocmask, 1, err);
    ::kill(::getpid(), SIGUSR1);
    ASSERT_EQ(0, pt_join(t, nullptr));
    EXPECT_EQ(2, handled);
    EXPECT_GT(fault::InjectedCount(Call::kSigprocmask), 0u);
    sigset_t cur;
    ::pthread_sigmask(SIG_BLOCK, nullptr, &cur);
    EXPECT_TRUE(::sigisemptyset(&cur));
    fault::Clear();
  }
}

struct PipeWorld {
  int fds[2];
  long received = 0;
};

TEST_F(FaultTest, InjectedPollEintrLosesNoIoWaiters) {
  static PipeWorld w;
  w = PipeWorld{};
  ASSERT_EQ(0, ::pipe(w.fds));

  // Every other readiness probe fails with a spurious EINTR; the idle loop's retry must keep
  // the reader's waiter registered so the write still wakes it. Arm both probe calls so the
  // test covers whichever backend FSUP_IO_BACKEND selected.
  fault::FailEveryKth(Call::kPoll, 2, EINTR);
  fault::FailEveryKth(Call::kEpollWait, 2, EINTR);

  pt_thread_t reader;
  auto reader_body = +[](void* wp) -> void* {
    auto* world = static_cast<PipeWorld*>(wp);
    char buf[64];
    for (;;) {
      const long n = pt_read(world->fds[0], buf, sizeof(buf));
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        break;
      }
      world->received += n;
    }
    return nullptr;
  };
  ASSERT_EQ(0, pt_create(&reader, nullptr, reader_body, &w));

  pt_delay(2 * 1000 * 1000);  // let the reader block in poll under injection
  char chunk[32];
  std::memset(chunk, 'x', sizeof(chunk));
  EXPECT_EQ(static_cast<long>(sizeof(chunk)), pt_write(w.fds[1], chunk, sizeof(chunk)));
  ::close(w.fds[1]);  // EOF terminates the reader
  ASSERT_EQ(0, pt_join(reader, nullptr));
  EXPECT_EQ(static_cast<long>(sizeof(chunk)), w.received);
  EXPECT_GT(fault::InjectedCount(Call::kPoll) + fault::InjectedCount(Call::kEpollWait), 0u);
  ::close(w.fds[0]);
}

struct CycleWorld {
  pt_mutex_t m1;
  pt_mutex_t m2;
  pt_mutex_t m3;
};

TEST_F(FaultTest, TwoThreadLockCycleReturnsEdeadlkImmediately) {
  static CycleWorld w;
  ASSERT_EQ(0, pt_mutex_init(&w.m1, nullptr));
  ASSERT_EQ(0, pt_mutex_init(&w.m2, nullptr));

  ASSERT_EQ(0, pt_mutex_lock(&w.m1));
  pt_thread_t b;
  auto b_body = +[](void*) -> void* {
    pt_mutex_lock(&w.m2);
    pt_mutex_lock(&w.m1);  // blocks: main holds m1
    pt_mutex_unlock(&w.m1);
    pt_mutex_unlock(&w.m2);
    return nullptr;
  };
  ASSERT_EQ(0, pt_create(&b, nullptr, b_body, nullptr));
  pt_yield();  // B runs until it blocks on m1

  // Closing the cycle fails fast instead of wedging both threads.
  EXPECT_EQ(EDEADLK, pt_mutex_lock(&w.m2));

  ASSERT_EQ(0, pt_mutex_unlock(&w.m1));  // hand m1 to B; the system unwinds
  ASSERT_EQ(0, pt_join(b, nullptr));
  ASSERT_EQ(0, pt_mutex_destroy(&w.m1));
  ASSERT_EQ(0, pt_mutex_destroy(&w.m2));
}

TEST_F(FaultTest, ThreeThreadCycleIsFoundByTheGraphWalk) {
  static CycleWorld w;
  ASSERT_EQ(0, pt_mutex_init(&w.m1, nullptr));  // held by A
  ASSERT_EQ(0, pt_mutex_init(&w.m2, nullptr));  // held by B
  ASSERT_EQ(0, pt_mutex_init(&w.m3, nullptr));  // held by main

  ASSERT_EQ(0, pt_mutex_lock(&w.m3));

  pt_thread_t tb;
  auto b_body = +[](void*) -> void* {
    pt_mutex_lock(&w.m2);
    pt_mutex_lock(&w.m3);  // blocks on main
    pt_mutex_unlock(&w.m3);
    pt_mutex_unlock(&w.m2);
    return nullptr;
  };
  ASSERT_EQ(0, pt_create(&tb, nullptr, b_body, nullptr));
  pt_yield();  // B: holds m2, blocked on m3

  pt_thread_t ta;
  auto a_body = +[](void*) -> void* {
    pt_mutex_lock(&w.m1);
    pt_mutex_lock(&w.m2);  // blocks on B
    pt_mutex_unlock(&w.m2);
    pt_mutex_unlock(&w.m1);
    return nullptr;
  };
  ASSERT_EQ(0, pt_create(&ta, nullptr, a_body, nullptr));
  pt_yield();  // A: holds m1, blocked on m2

  // main → m1 → A → m2 → B → m3 → main: a three-hop cycle, caught before blocking.
  EXPECT_EQ(EDEADLK, pt_mutex_lock(&w.m1));

  ASSERT_EQ(0, pt_mutex_unlock(&w.m3));
  ASSERT_EQ(0, pt_join(tb, nullptr));
  ASSERT_EQ(0, pt_join(ta, nullptr));
  ASSERT_EQ(0, pt_mutex_destroy(&w.m1));
  ASSERT_EQ(0, pt_mutex_destroy(&w.m2));
  ASSERT_EQ(0, pt_mutex_destroy(&w.m3));
}

TEST_F(FaultTest, InjectionIsRecordedInTheTraceRing) {
  debug::trace::Enable(true);
  debug::trace::Clear();

  pt_thread_t t;
  auto body = +[](void*) -> void* { return nullptr; };
  fault::FailNth(Call::kMmap, 1, ENOMEM);
  ThreadAttr big;
  big.stack_size = kDefaultStackSize * 2;
  EXPECT_EQ(EAGAIN, pt_create(&t, &big, body, nullptr));

  bool saw_fault = false;
  for (const debug::trace::Record& r : debug::trace::SnapshotAll()) {
    if (r.event == debug::trace::Event::kFault &&
        r.a == static_cast<uint32_t>(Call::kMmap) && r.b == ENOMEM) {
      saw_fault = true;
    }
  }
  EXPECT_TRUE(saw_fault);
  debug::trace::Enable(false);
}

// Drains the pre-cached stack pool: parks enough threads on a semaphore that every pooled
// stack is in use, so the next activation must go to mmap. Release undoes it.
struct LazyWorld {
  pt_sem_t gate;
  pt_thread_t parked[12];
  int parked_count = 0;

  void Drain() {
    ASSERT_EQ(0, pt_sem_init(&gate, 0));
    auto park = +[](void* g) -> void* {
      pt_sem_wait(static_cast<pt_sem_t*>(g));
      return nullptr;
    };
    parked_count = 0;
    while (probe::StackPoolFree() > 0 && parked_count < 12) {
      ASSERT_EQ(0, pt_create(&parked[parked_count], nullptr, park, &gate));
      ++parked_count;
    }
  }
  void Release() {
    for (int i = 0; i < parked_count; ++i) {
      ASSERT_EQ(0, pt_sem_post(&gate));
    }
    for (int i = 0; i < parked_count; ++i) {
      ASSERT_EQ(0, pt_join(parked[i], nullptr));
    }
    ASSERT_EQ(0, pt_sem_destroy(&gate));
  }
};

void* ReturnNull(void*) { return nullptr; }

TEST_F(FaultTest, LazyActivationUnderExhaustionReturnsEagainAndRetries) {
  static LazyWorld w;
  w.Drain();

  ThreadAttr lazy = MakeLazyAttr(-1, "lazy");
  pt_thread_t lz;
  ASSERT_EQ(0, pt_create(&lz, &lazy, &ReturnNull, nullptr));  // no stack yet: cannot fail

  fault::FailEveryKth(Call::kMmap, 1, ENOMEM);
  EXPECT_EQ(EAGAIN, pt_activate(lz));

  // The thread stayed lazy; once the exhaustion clears, activation (via join) succeeds.
  fault::Clear();
  EXPECT_EQ(0, pt_join(lz, nullptr));
  w.Release();
}

// A lazy thread cancelled while no stack can be mapped never runs: it ends where it stands,
// and a detached one is reclaimed like any other detached thread.
TEST_F(FaultTest, DetachedLazyThreadCancelledUnderExhaustionIsReclaimed) {
  static LazyWorld w;
  w.Drain();

  ThreadAttr lazy = MakeLazyAttr(-1, "lazy");
  lazy.detached = true;
  pt_thread_t lz;
  ASSERT_EQ(0, pt_create(&lz, &lazy, &ReturnNull, nullptr));
  fault::FailEveryKth(Call::kMmap, 1, ENOMEM);
  ASSERT_EQ(0, pt_cancel(lz));
  fault::Clear();
  w.Release();

  EXPECT_EQ(1u, pt_stats().live_threads);
  EXPECT_EQ(1u, kernel::ks().all_threads.size()) << "the cancelled TCB was never reaped";
  pt_reinit();  // aborts on a TCB left on the all-threads list
}

TEST_F(FaultTest, JoinableLazyThreadCancelledUnderExhaustionJoinsCanceled) {
  static LazyWorld w;
  w.Drain();

  ThreadAttr lazy = MakeLazyAttr(-1, "lazy");
  pt_thread_t lz;
  ASSERT_EQ(0, pt_create(&lz, &lazy, &ReturnNull, nullptr));
  fault::FailEveryKth(Call::kMmap, 1, ENOMEM);
  ASSERT_EQ(0, pt_cancel(lz));
  // Still exhausted: the join collects the terminated thread, it does not try to start it.
  void* ret = nullptr;
  EXPECT_EQ(0, pt_join(lz, &ret));
  EXPECT_EQ(kCanceled, ret);
  fault::Clear();
  w.Release();
  EXPECT_EQ(1u, kernel::ks().all_threads.size());
}

}  // namespace
}  // namespace fsup
