// Failure-injection tests: stack overflow detection via the guard page, deadlock detection
// in the idle loop, and fast-failing deadlock errors at the API level. Death tests fork, so
// the parent runtime stays clean.

#include <gtest/gtest.h>

#include <cerrno>

#include "src/core/attr.hpp"
#include "src/core/pthread.hpp"
#include "src/util/assert.hpp"

namespace fsup {
namespace {

class DeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    pt_reinit();
  }
};

// Consumes stack until the guard page faults. noinline + volatile defeat tail-call and
// frame-merge optimizations.
__attribute__((noinline)) int Recurse(int depth, volatile char* sink) {
  volatile char frame[512];
  frame[0] = static_cast<char>(depth);
  *sink = frame[0];
  if (depth <= 0) {
    return 0;
  }
  return Recurse(depth - 1, sink) + frame[0];
}

void* OverflowingThread(void*) {
  volatile char sink = 0;
  Recurse(1000000, &sink);
  return nullptr;
}

void RunOverflow() {
  ThreadAttr a;
  a.stack_size = kMinStackSize;  // small stack: quick to blow
  a.name = "overflower";
  pt_thread_t t;
  pt_create(&t, &a, &OverflowingThread, nullptr);
  pt_join(t, nullptr);
}

TEST_F(DeathTest, StackOverflowHitsGuardPageAndReportsThread) {
  EXPECT_DEATH(RunOverflow(), "stack overflow in thread");
}

TEST_F(DeathTest, StackOverflowDiagnosticNamesThreadAndStackSize) {
  // The full diagnostic: thread id, its name, and the configured stack size, so the fix
  // ("this thread needs a bigger stack") is actionable from the message alone.
  EXPECT_DEATH(RunOverflow(),
               "stack overflow in thread [0-9]+ \\[overflower\\] \\(stack size [0-9]+\\)");
}

pt_thread_t g_dead_t1;

void* BlockForever(void*) {
  static pt_sem_t sem;
  pt_sem_init(&sem, 0);
  pt_sem_wait(&sem);  // nobody ever posts
  return nullptr;
}

void* JoinT1(void*) {
  pt_join(g_dead_t1, nullptr);
  return nullptr;
}

void RunDeadlock() {
  pt_thread_t t2;
  pt_create(&g_dead_t1, nullptr, &BlockForever, nullptr);
  pt_create(&t2, nullptr, &JoinT1, nullptr);
  pt_join(t2, nullptr);  // main blocks too: every thread wedged, no wakeup source
}

TEST_F(DeathTest, DeadlockOfAllThreadsIsDetected) {
  EXPECT_DEATH(RunDeadlock(), "DEADLOCK");
}

TEST_F(DeathTest, SelfDeadlockViaMutexIsRejectedNotWedged) {
  // EDEADLK beats detection: relocking your own mutex fails fast instead of deadlocking.
  pt_mutex_t m;
  ASSERT_EQ(0, pt_mutex_init(&m));
  ASSERT_EQ(0, pt_mutex_lock(&m));
  EXPECT_EQ(EDEADLK, pt_mutex_lock(&m));
  ASSERT_EQ(0, pt_mutex_unlock(&m));
  pt_mutex_destroy(&m);
}

pt_thread_t g_cycle_a;
int g_cycle_rc = -1;

void* CycleB(void*) {
  g_cycle_rc = pt_join(g_cycle_a, nullptr);  // A is joining us → cycle → EDEADLK
  return nullptr;
}

void* CycleA(void*) {
  pt_thread_t b;
  pt_create(&b, nullptr, &CycleB, nullptr);
  pt_join(b, nullptr);  // we join B while B tries to join us
  return nullptr;
}

TEST_F(DeathTest, JoinCycleIsRejectedNotWedged) {
  g_cycle_rc = -1;
  ASSERT_EQ(0, pt_create(&g_cycle_a, nullptr, &CycleA, nullptr));
  ASSERT_EQ(0, pt_join(g_cycle_a, nullptr));
  EXPECT_EQ(EDEADLK, g_cycle_rc);
}

TEST_F(DeathTest, FatalInternalCheckAborts) {
  // FSUP_CHECK failures abort with a diagnostic even in release builds.
  EXPECT_DEATH(FatalError("synthetic failure", __FILE__, __LINE__), "synthetic failure");
}

}  // namespace
}  // namespace fsup
