// Debug facilities: event trace ring semantics, thread dumps, host-OS call accounting, and
// the scheduler statistics surface.

#include <gtest/gtest.h>

#include "src/core/pthread.hpp"
#include "src/debug/trace.hpp"
#include "src/hostos/unix_if.hpp"

namespace fsup {
namespace {

class DebugTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pt_reinit();
    debug::trace::Clear();
    debug::trace::Enable(false);
  }
  void TearDown() override { debug::trace::Enable(false); }
};

TEST_F(DebugTest, TraceDisabledRecordsNothing) {
  pt_trace_user(1, 2);
  EXPECT_TRUE(debug::trace::SnapshotAll().empty());
}

TEST_F(DebugTest, TraceRecordsInOrder) {
  debug::trace::Enable(true);
  pt_trace_user(1, 10);
  pt_trace_user(2, 20);
  pt_trace_user(3, 30);
  debug::trace::Enable(false);
  const std::vector<debug::trace::Record> recs = debug::trace::SnapshotAll();
  ASSERT_EQ(3u, recs.size());
  EXPECT_EQ(1u, recs[0].a);
  EXPECT_EQ(2u, recs[1].a);
  EXPECT_EQ(3u, recs[2].a);
  EXPECT_LE(recs[0].t_ns, recs[2].t_ns);
}

TEST_F(DebugTest, TraceCapturesContextSwitches) {
  debug::trace::Enable(true);
  pt_thread_t t;
  auto body = +[](void*) -> void* { return nullptr; };
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
  debug::trace::Enable(false);
  int switches = 0;
  for (const debug::trace::Record& r : debug::trace::SnapshotAll()) {
    if (r.event == debug::trace::Event::kSwitch) {
      ++switches;
    }
  }
  EXPECT_GE(switches, 2);  // out to the child and back at minimum
}

TEST_F(DebugTest, TraceClearResets) {
  debug::trace::Enable(true);
  pt_trace_user(1, 1);
  debug::trace::Clear();
  EXPECT_TRUE(debug::trace::SnapshotAll().empty());
}

TEST_F(DebugTest, EventNamesAreStable) {
  EXPECT_STREQ("switch", debug::trace::Name(debug::trace::Event::kSwitch));
  EXPECT_STREQ("lock", debug::trace::Name(debug::trace::Event::kMutexLock));
  EXPECT_STREQ("boost", debug::trace::Name(debug::trace::Event::kPrioBoost));
  EXPECT_STREQ("signal", debug::trace::Name(debug::trace::Event::kSignal));
}

TEST_F(DebugTest, DumpThreadsIsSafeWhileThreadsBlocked) {
  static pt_sem_t sem;
  ASSERT_EQ(0, pt_sem_init(&sem, 0));
  auto body = +[](void*) -> void* {
    pt_sem_wait(&sem);
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  pt_yield();
  pt_dump_threads();  // must not crash with a blocked thread on a wait queue
  ASSERT_EQ(0, pt_sem_post(&sem));
  ASSERT_EQ(0, pt_join(t, nullptr));
  pt_sem_destroy(&sem);
}

TEST_F(DebugTest, StatsAreMonotonic) {
  const RuntimeStats s1 = pt_stats();
  pt_yield();
  pt_thread_t t;
  auto body = +[](void*) -> void* {
    pt_yield();
    return nullptr;
  };
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
  const RuntimeStats s2 = pt_stats();
  EXPECT_GE(s2.ctx_switches, s1.ctx_switches);
  EXPECT_GE(s2.dispatches, s1.dispatches);
  EXPECT_GE(s2.kernel_entries, s1.kernel_entries);
}

TEST_F(DebugTest, HostCallCountsPerService) {
  hostos::ResetCallCounts();
  sigset_t cur;
  hostos::Sigprocmask(SIG_BLOCK, nullptr, &cur);
  hostos::Sigprocmask(SIG_BLOCK, nullptr, &cur);
  EXPECT_EQ(2u, hostos::CallCount(hostos::Call::kSigprocmask));
  EXPECT_EQ(0u, hostos::CallCount(hostos::Call::kSetitimer));
  EXPECT_GE(hostos::TotalCallCount(), 2u);
}

TEST_F(DebugTest, StackMapsCountedViaHostos) {
  hostos::ResetCallCounts();
  size_t mapped = 0;
  void* stack = hostos::MapStack(64 * 1024, &mapped);
  ASSERT_NE(nullptr, stack);
  EXPECT_EQ(1u, hostos::CallCount(hostos::Call::kMmap));
  EXPECT_EQ(1u, hostos::CallCount(hostos::Call::kMprotect));  // the guard page
  EXPECT_GE(mapped, 64u * 1024);
  // Read-write down to the lowest usable byte; the byte below it is the guard page.
  static_cast<volatile char*>(stack)[0] = 1;
  EXPECT_EQ(1, static_cast<volatile char*>(stack)[0]);
  EXPECT_TRUE(hostos::InGuardPage(static_cast<char*>(stack) - 1, stack));
  hostos::UnmapStack(stack, mapped);
  EXPECT_EQ(1u, hostos::CallCount(hostos::Call::kMunmap));
}

TEST_F(DebugTest, FifoComputePathMakesNoKernelCalls) {
  // The paper's "few operating system calls" objective, asserted: a compute-and-sync
  // workload (no timers, no RR) performs ZERO host kernel calls through the library.
  pt_thread_t t;
  auto body = +[](void*) -> void* {
    pt_mutex_t m;
    pt_mutex_init(&m);
    for (int i = 0; i < 1000; ++i) {
      pt_mutex_lock(&m);
      pt_mutex_unlock(&m);
      if (i % 100 == 0) {
        pt_yield();
      }
    }
    pt_mutex_destroy(&m);
    return nullptr;
  };
  // Warm-up (thread pool, lazy init paths).
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
  hostos::ResetCallCounts();
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(0u, hostos::TotalCallCount());
}

}  // namespace
}  // namespace fsup
