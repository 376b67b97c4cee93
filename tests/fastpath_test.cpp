// Uncontended fast paths (ISSUE 9): the kernel-bypass claim is tested literally — the
// kernel-entry counter must not move across uncontended operations — together with the
// error-check/recursive semantics that have to survive on (or be excluded from) the fast
// path, the on/off switch and its observability demotions, and the owner word as the
// deadlock detector's and introspector's source of truth.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/core/attr.hpp"
#include "src/core/pthread.hpp"
#include "src/debug/replay.hpp"
#include "src/debug/trace.hpp"
#include "src/kernel/kernel.hpp"
#include "src/sync/fastpath.hpp"
#include "src/sync/mutex.hpp"
#include "src/util/dual_loop_timer.hpp"

namespace fsup {
namespace {

class FastpathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pt_reinit();  // EnsureInit re-applies FSUP_FASTPATH; tests below override explicitly
    sync::fastpath::SetRequested(true);
  }

  void TearDown() override {
    debug::trace::Enable(false);
    pt_metrics_enable(false);
    sync::fastpath::InitFromEnv();  // back to whatever the environment asked for
  }

  static uint64_t KernelEntries() { return counters::Get(counters::kKernelEntries); }
};

// -- the zero-kernel-entry claims --------------------------------------------------------

TEST_F(FastpathTest, UncontendedLockUnlockNeverEntersKernel) {
  pt_mutex_t m;
  ASSERT_EQ(0, pt_mutex_init(&m));
  const uint64_t before = KernelEntries();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(0, pt_mutex_lock(&m));
    ASSERT_EQ(0, pt_mutex_unlock(&m));
  }
  EXPECT_EQ(before, KernelEntries());
  pt_mutex_destroy(&m);
}

TEST_F(FastpathTest, TrylockFastPathAcquiresAndReportsEbusy) {
  pt_mutex_t m;
  ASSERT_EQ(0, pt_mutex_init(&m));
  const uint64_t before = KernelEntries();
  EXPECT_EQ(0, pt_mutex_trylock(&m));
  EXPECT_EQ(kernel::Current(), m.holder());  // owner published by the same committing store
  EXPECT_EQ(0, pt_mutex_unlock(&m));
  EXPECT_EQ(before, KernelEntries());
  pt_mutex_destroy(&m);
}

TEST_F(FastpathTest, SignalAndBroadcastWithNoWaitersNeverEnterKernel) {
  pt_cond_t c;
  ASSERT_EQ(0, pt_cond_init(&c));
  const uint64_t before = KernelEntries();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(0, pt_cond_signal(&c));
    EXPECT_EQ(0, pt_cond_broadcast(&c));
  }
  EXPECT_EQ(before, KernelEntries());
  pt_cond_destroy(&c);
}

TEST_F(FastpathTest, SemaphoreAndRwlockInheritTheFastPath) {
  // Both are layered on mutex + cond, so uncontended P/V and rd/wr cycles compose out of
  // fast-path operations only.
  pt_sem_t s;
  ASSERT_EQ(0, pt_sem_init(&s, 1));
  pt_rwlock_t rw;
  ASSERT_EQ(0, pt_rwlock_init(&rw));
  const uint64_t before = KernelEntries();
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(0, pt_sem_wait(&s));
    ASSERT_EQ(0, pt_sem_post(&s));
    ASSERT_EQ(0, pt_rwlock_rdlock(&rw));
    ASSERT_EQ(0, pt_rwlock_unlock(&rw));
    ASSERT_EQ(0, pt_rwlock_wrlock(&rw));
    ASSERT_EQ(0, pt_rwlock_unlock(&rw));
  }
  EXPECT_EQ(before, KernelEntries());
  pt_sem_destroy(&s);
  pt_rwlock_destroy(&rw);
}

// -- error semantics on the fast path ----------------------------------------------------

TEST_F(FastpathTest, RelockOnFastPathHeldMutexIsEdeadlk) {
  pt_mutex_t m;
  ASSERT_EQ(0, pt_mutex_init(&m));
  ASSERT_EQ(0, pt_mutex_lock(&m));
  const uint64_t before = KernelEntries();
  EXPECT_EQ(EDEADLK, pt_mutex_lock(&m));  // caught in user context: owner == self
  EXPECT_EQ(before, KernelEntries());
  EXPECT_EQ(0, pt_mutex_unlock(&m));
  pt_mutex_destroy(&m);
}

TEST_F(FastpathTest, UnlockWhenNotOwnerIsEperm) {
  pt_mutex_t m;
  ASSERT_EQ(0, pt_mutex_init(&m));
  EXPECT_EQ(EPERM, pt_mutex_unlock(&m));  // not locked at all
  static pt_mutex_t* mp;
  mp = &m;
  pt_thread_t t;
  auto body = +[](void*) -> void* {
    // Holds across a yield so main sees a fast-path-held mutex it does not own.
    if (pt_mutex_lock(mp) != 0) {
      return nullptr;
    }
    pt_yield();
    pt_mutex_unlock(mp);
    return nullptr;
  };
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  pt_yield();  // the holder runs, acquires, yields back
  EXPECT_EQ(EPERM, pt_mutex_unlock(&m));
  ASSERT_EQ(0, pt_join(t, nullptr));
  pt_mutex_destroy(&m);
}

TEST_F(FastpathTest, ErrorCheckTypeAlwaysTakesTheKernelPath) {
  pt_mutex_t m;
  MutexAttr a = MakeErrorCheckMutexAttr();
  ASSERT_EQ(0, pt_mutex_init(&m, &a));
  const uint64_t before = KernelEntries();
  EXPECT_EQ(0, pt_mutex_lock(&m));
  EXPECT_GT(KernelEntries(), before);  // bookkept under the monitor even uncontended
  EXPECT_EQ(EDEADLK, pt_mutex_lock(&m));
  EXPECT_EQ(0, pt_mutex_unlock(&m));
  EXPECT_EQ(EPERM, pt_mutex_unlock(&m));
  pt_mutex_destroy(&m);
}

TEST_F(FastpathTest, RecursiveTypeCountsAndBalances) {
  pt_mutex_t m;
  MutexAttr a = MakeRecursiveMutexAttr();
  ASSERT_EQ(0, pt_mutex_init(&m, &a));
  EXPECT_EQ(0, pt_mutex_lock(&m));
  EXPECT_EQ(0, pt_mutex_lock(&m));     // relock allowed
  EXPECT_EQ(0, pt_mutex_trylock(&m));  // trylock re-entry counts too
  EXPECT_EQ(2u, m.recursion);
  EXPECT_EQ(0, pt_mutex_unlock(&m));
  EXPECT_EQ(0, pt_mutex_unlock(&m));
  EXPECT_EQ(kernel::Current(), m.holder());  // still held until the balancing release
  EXPECT_EQ(0, pt_mutex_unlock(&m));
  EXPECT_EQ(nullptr, m.holder());
  EXPECT_EQ(EPERM, pt_mutex_unlock(&m));
  pt_mutex_destroy(&m);
}

TEST_F(FastpathTest, ProtocolMutexesAreForcedDownTheSlowPath) {
  pt_mutex_t inherit;
  MutexAttr ia = MakeInheritMutexAttr();
  ASSERT_EQ(0, pt_mutex_init(&inherit, &ia));
  pt_mutex_t ceiling;
  MutexAttr ca = MakeCeilingMutexAttr(kDefaultPrio + 1);
  ASSERT_EQ(0, pt_mutex_init(&ceiling, &ca));

  uint64_t before = KernelEntries();
  EXPECT_EQ(0, pt_mutex_lock(&inherit));
  EXPECT_GT(KernelEntries(), before);  // inheritance needs the owned-mutex bookkeeping
  EXPECT_EQ(0, pt_mutex_unlock(&inherit));

  before = KernelEntries();
  EXPECT_EQ(0, pt_mutex_lock(&ceiling));
  EXPECT_GT(KernelEntries(), before);  // ceiling must raise the priority under the monitor
  EXPECT_EQ(0, pt_mutex_unlock(&ceiling));

  pt_mutex_destroy(&inherit);
  pt_mutex_destroy(&ceiling);
}

// -- contention falls through correctly --------------------------------------------------

struct Contended {
  pt_mutex_t m;
  int in_critical = 0;
  int iterations = 0;
};

void* ContendedBody(void* arg) {
  auto* s = static_cast<Contended*>(arg);
  for (int i = 0; i < 50; ++i) {
    if (pt_mutex_lock(&s->m) != 0) {
      return nullptr;
    }
    EXPECT_EQ(0, s->in_critical);
    s->in_critical = 1;
    pt_yield();  // hold across the yield: the peer must block and take the kernel path
    s->in_critical = 0;
    ++s->iterations;
    pt_mutex_unlock(&s->m);
  }
  return nullptr;
}

TEST_F(FastpathTest, ContendedLockersSeeFastPathHolders) {
  // A fast-path acquire publishes the owner with the same store that takes the lock, so a
  // kernel-path locker arriving mid-hold must block (not barge) and be handed the mutex.
  Contended s;
  ASSERT_EQ(0, pt_mutex_init(&s.m));
  pt_thread_t t[2];
  ASSERT_EQ(0, pt_create(&t[0], nullptr, ContendedBody, &s));
  ASSERT_EQ(0, pt_create(&t[1], nullptr, ContendedBody, &s));
  ASSERT_EQ(0, pt_join(t[0], nullptr));
  ASSERT_EQ(0, pt_join(t[1], nullptr));
  EXPECT_EQ(100, s.iterations);
  EXPECT_EQ(nullptr, s.m.holder());
  pt_mutex_destroy(&s.m);
}

struct DeadlockRig {
  pt_mutex_t m1;
  pt_mutex_t m2;
};

void* DeadlockPeer(void* arg) {
  auto* r = static_cast<DeadlockRig*>(arg);
  if (pt_mutex_lock(&r->m2) != 0) {  // fast path
    return nullptr;
  }
  pt_mutex_lock(&r->m1);  // held by main: blocks in the kernel
  pt_mutex_unlock(&r->m1);
  pt_mutex_unlock(&r->m2);
  return nullptr;
}

TEST_F(FastpathTest, WouldDeadlockSeesFastPathOwners) {
  // main holds m1 (fast path), the peer holds m2 (fast path) and blocks on m1. main locking
  // m2 closes the cycle — the wait-for graph walk must follow owner fields that were only
  // ever written by fast-path stores.
  DeadlockRig r;
  ASSERT_EQ(0, pt_mutex_init(&r.m1));
  ASSERT_EQ(0, pt_mutex_init(&r.m2));
  ASSERT_EQ(0, pt_mutex_lock(&r.m1));
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, DeadlockPeer, &r));
  pt_yield();  // peer acquires m2, blocks on m1
  EXPECT_EQ(EDEADLK, pt_mutex_lock(&r.m2));
  ASSERT_EQ(0, pt_mutex_unlock(&r.m1));  // waiter present: kernel handoff to the peer
  ASSERT_EQ(0, pt_join(t, nullptr));
  pt_mutex_destroy(&r.m1);
  pt_mutex_destroy(&r.m2);
}

struct DumpRig {
  pt_mutex_t m;
};

void* DumpBlocker(void* arg) {
  auto* r = static_cast<DumpRig*>(arg);
  pt_mutex_lock(&r->m);
  pt_mutex_unlock(&r->m);
  return nullptr;
}

TEST_F(FastpathTest, DumpThreadsShowsFastPathOwner) {
  // The introspector labels a blocked thread with the owner of the mutex it waits on; that
  // owner acquired on the fast path, so the label only works if the owner word is the truth.
  DumpRig r;
  ASSERT_EQ(0, pt_mutex_init(&r.m));
  ASSERT_EQ(0, pt_mutex_lock(&r.m));  // fast path
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, DumpBlocker, &r));
  pt_yield();  // the blocker parks on m

  const std::string path = std::string(::testing::TempDir()) + "fsup_fastpath_dump_" +
                           std::to_string(::getpid()) + ".txt";
  const int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_TRUNC, 0600);
  ASSERT_GE(fd, 0);
  const int saved = ::dup(2);
  ASSERT_GE(saved, 0);
  ASSERT_GE(::dup2(fd, 2), 0);
  pt_dump_threads();
  ::dup2(saved, 2);
  ::close(saved);

  ASSERT_GE(::lseek(fd, 0, SEEK_SET), 0);
  std::string dump;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    dump.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  std::remove(path.c_str());
  EXPECT_NE(std::string::npos, dump.find("owner=#")) << dump;

  ASSERT_EQ(0, pt_mutex_unlock(&r.m));
  ASSERT_EQ(0, pt_join(t, nullptr));
  pt_mutex_destroy(&r.m);
}

// -- record/replay -----------------------------------------------------------------------

TEST_F(FastpathTest, UncontendedOpsConsumeNoReplayDecisions) {
  // The fast path is invisible to the decision log — that is what keeps a recording made
  // with the fast path on replayable: only kernel-path operations are (and need to be)
  // steered.
  pt_mutex_t m;
  ASSERT_EQ(0, pt_mutex_init(&m));
  pt_cond_t c;
  ASSERT_EQ(0, pt_cond_init(&c));
  debug::replay::StartRecording();
  const uint64_t d0 = debug::replay::DecisionCount();
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(0, pt_mutex_lock(&m));
    ASSERT_EQ(0, pt_mutex_unlock(&m));
    ASSERT_EQ(0, pt_mutex_trylock(&m));
    ASSERT_EQ(0, pt_mutex_unlock(&m));
    ASSERT_EQ(0, pt_cond_signal(&c));
  }
  EXPECT_EQ(d0, debug::replay::DecisionCount());
  debug::replay::StopRecording();
  pt_cond_destroy(&c);
  pt_mutex_destroy(&m);
}

TEST_F(FastpathTest, ContendedRunRecordsAndReplaysWithFastPathOn) {
  // Contended operations fall into the kernel and ARE logged; a replay with the fast path
  // still enabled must follow the identical decision sequence (a divergence aborts).
  const std::string path = std::string(::testing::TempDir()) + "fsup_fastpath_" +
                           std::to_string(::getpid()) + ".rpl";

  auto workload = [] {
    Contended s;
    ASSERT_EQ(0, pt_mutex_init(&s.m));
    pt_thread_t t[2];
    ASSERT_EQ(0, pt_create(&t[0], nullptr, ContendedBody, &s));
    ASSERT_EQ(0, pt_create(&t[1], nullptr, ContendedBody, &s));
    ASSERT_EQ(0, pt_join(t[0], nullptr));
    ASSERT_EQ(0, pt_join(t[1], nullptr));
    EXPECT_EQ(100, s.iterations);
    pt_mutex_destroy(&s.m);
  };

  debug::replay::StartRecording();
  const uint64_t d0 = debug::replay::DecisionCount();
  workload();
  const uint64_t recorded_decisions = debug::replay::DecisionCount() - d0;
  const size_t logged = debug::replay::StopRecording();
  ASSERT_EQ(0, debug::replay::SaveLog(path.c_str()));
  ASSERT_GT(logged, 0u);            // the contended path really was logged
  ASSERT_GT(recorded_decisions, 0u);

  pt_reinit();
  sync::fastpath::SetRequested(true);
  ASSERT_EQ(0, debug::replay::StartReplay(path.c_str()));
  const uint64_t r0 = debug::replay::DecisionCount();
  workload();
  const uint64_t replayed_decisions = debug::replay::DecisionCount() - r0;
  EXPECT_EQ(0u, debug::replay::StopReplay());
  std::remove(path.c_str());

  EXPECT_EQ(recorded_decisions, replayed_decisions);
}

// -- the selector ------------------------------------------------------------------------

class FastpathModeTest : public ::testing::Test {
 protected:
  void SetUp() override { pt_reinit(); }
  void TearDown() override {
    debug::trace::Enable(false);
    pt_metrics_enable(false);
    pt_set_perverted(PervertedPolicy::kNone, 0);
    sync::fastpath::InitFromEnv();
  }
};

TEST_F(FastpathModeTest, KillSwitchForcesEveryOperationIntoTheKernel) {
  sync::fastpath::SetRequested(false);
  pt_mutex_t m;
  ASSERT_EQ(0, pt_mutex_init(&m));
  pt_cond_t c;
  ASSERT_EQ(0, pt_cond_init(&c));
  const uint64_t before = counters::Get(counters::kKernelEntries);
  EXPECT_EQ(0, pt_mutex_lock(&m));
  EXPECT_EQ(0, pt_mutex_unlock(&m));
  EXPECT_EQ(0, pt_cond_signal(&c));  // no waiters, but the bypass is off too
  EXPECT_GE(counters::Get(counters::kKernelEntries), before + 3);
  pt_cond_destroy(&c);
  pt_mutex_destroy(&m);
}

TEST_F(FastpathModeTest, EnvSelectsTheMode) {
  const char* orig = std::getenv("FSUP_FASTPATH");
  const std::string saved = orig != nullptr ? orig : "";

  ASSERT_EQ(0, ::setenv("FSUP_FASTPATH", "0", 1));
  pt_reinit();
  EXPECT_FALSE(sync::fastpath::Enabled());
  ASSERT_EQ(0, ::setenv("FSUP_FASTPATH", "off", 1));
  pt_reinit();
  EXPECT_FALSE(sync::fastpath::Enabled());
  ASSERT_EQ(0, ::setenv("FSUP_FASTPATH", "1", 1));
  pt_reinit();
  EXPECT_TRUE(sync::fastpath::Enabled());

  if (orig != nullptr) {
    ASSERT_EQ(0, ::setenv("FSUP_FASTPATH", saved.c_str(), 1));
  } else {
    ASSERT_EQ(0, ::unsetenv("FSUP_FASTPATH"));
  }
  pt_reinit();
}

TEST_F(FastpathModeTest, ObserversDemoteTheActiveMode) {
  sync::fastpath::SetRequested(true);
  ASSERT_TRUE(sync::fastpath::Enabled());

  debug::trace::Enable(true);
  EXPECT_FALSE(sync::fastpath::Enabled());  // tracing logs from inside the monitor
  debug::trace::Enable(false);
  EXPECT_TRUE(sync::fastpath::Enabled());

  pt_metrics_enable(true);
  EXPECT_FALSE(sync::fastpath::Enabled());  // metrics bracket hold times on the kernel path
  pt_metrics_enable(false);
  EXPECT_TRUE(sync::fastpath::Enabled());

  pt_set_perverted(PervertedPolicy::kMutexSwitch, 1);
  EXPECT_FALSE(sync::fastpath::Enabled());  // the policy hooks every successful lock
  pt_set_perverted(PervertedPolicy::kNone, 0);
  EXPECT_TRUE(sync::fastpath::Enabled());
}

TEST_F(FastpathModeTest, DemotedOperationsStillCorrect) {
  // Toggling an observer mid-stream must never strand a mutex: acquire on the fast path,
  // release on the kernel path, and vice versa.
  sync::fastpath::SetRequested(true);
  pt_mutex_t m;
  ASSERT_EQ(0, pt_mutex_init(&m));

  ASSERT_EQ(0, pt_mutex_lock(&m));  // fast
  pt_metrics_enable(true);
  ASSERT_EQ(0, pt_mutex_unlock(&m));  // kernel: must see the fast-path owner

  ASSERT_EQ(0, pt_mutex_lock(&m));  // kernel
  pt_metrics_enable(false);
  ASSERT_EQ(0, pt_mutex_unlock(&m));  // fast: must see the kernel-path owner

  EXPECT_EQ(nullptr, m.holder());
  pt_mutex_destroy(&m);
}

}  // namespace
}  // namespace fsup
