// Reader-writer locks: shared read, exclusive write, writer preference, error paths.

#include <gtest/gtest.h>

#include <cerrno>
#include <vector>

#include "src/core/pthread.hpp"

namespace fsup {
namespace {

class RwlockTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pt_reinit();
    ASSERT_EQ(0, pt_rwlock_init(&rw_));
  }
  void TearDown() override { EXPECT_EQ(0, pt_rwlock_destroy(&rw_)); }

  pt_rwlock_t rw_;
};

TEST_F(RwlockTest, MultipleReadersShare) {
  ASSERT_EQ(0, pt_rwlock_rdlock(&rw_));
  ASSERT_EQ(0, pt_rwlock_tryrdlock(&rw_));
  EXPECT_EQ(2, rw_.active_readers);
  ASSERT_EQ(0, pt_rwlock_unlock(&rw_));
  ASSERT_EQ(0, pt_rwlock_unlock(&rw_));
}

TEST_F(RwlockTest, WriterExcludesReaders) {
  ASSERT_EQ(0, pt_rwlock_wrlock(&rw_));
  EXPECT_EQ(EBUSY, pt_rwlock_tryrdlock(&rw_));
  EXPECT_EQ(EBUSY, pt_rwlock_trywrlock(&rw_));
  ASSERT_EQ(0, pt_rwlock_unlock(&rw_));
}

TEST_F(RwlockTest, WriterDeadlockOnSelf) {
  ASSERT_EQ(0, pt_rwlock_wrlock(&rw_));
  EXPECT_EQ(EDEADLK, pt_rwlock_wrlock(&rw_));
  EXPECT_EQ(EDEADLK, pt_rwlock_rdlock(&rw_));
  ASSERT_EQ(0, pt_rwlock_unlock(&rw_));
}

TEST_F(RwlockTest, UnlockWithoutLockIsEperm) {
  EXPECT_EQ(EPERM, pt_rwlock_unlock(&rw_));
}

TEST_F(RwlockTest, TryWrLockTakesAFreeLockAndOnlyTheWriterUnlocks) {
  ASSERT_EQ(0, pt_rwlock_trywrlock(&rw_));
  EXPECT_TRUE(rw_.writer_active);
  static int other_rc = -1;
  other_rc = -1;
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, +[](void* rw) -> void* {
    other_rc = pt_rwlock_unlock(static_cast<pt_rwlock_t*>(rw));
    return nullptr;
  }, &rw_));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(EPERM, other_rc);  // a non-holder's unlock leaves the writer in
  EXPECT_TRUE(rw_.writer_active);
  ASSERT_EQ(0, pt_rwlock_unlock(&rw_));
  EXPECT_FALSE(rw_.writer_active);
}

TEST_F(RwlockTest, WriterBlocksUntilReadersDrain) {
  ASSERT_EQ(0, pt_rwlock_rdlock(&rw_));
  struct Arg {
    pt_rwlock_t* rw;
    bool wrote = false;
  } arg{&rw_};
  auto writer = +[](void* ap) -> void* {
    auto* a = static_cast<Arg*>(ap);
    EXPECT_EQ(0, pt_rwlock_wrlock(a->rw));
    a->wrote = true;
    EXPECT_EQ(0, pt_rwlock_unlock(a->rw));
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, writer, &arg));
  pt_yield();
  EXPECT_FALSE(arg.wrote);
  ASSERT_EQ(0, pt_rwlock_unlock(&rw_));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_TRUE(arg.wrote);
}

TEST_F(RwlockTest, WaitingWriterBlocksNewReaders) {
  // Writer preference: once a writer queues, arriving readers wait behind it.
  ASSERT_EQ(0, pt_rwlock_rdlock(&rw_));
  struct Arg {
    pt_rwlock_t* rw;
    std::vector<int>* order;
  };
  std::vector<int> order;
  Arg warg{&rw_, &order};
  auto writer = +[](void* ap) -> void* {
    auto* a = static_cast<Arg*>(ap);
    EXPECT_EQ(0, pt_rwlock_wrlock(a->rw));
    a->order->push_back(1);  // writer
    EXPECT_EQ(0, pt_rwlock_unlock(a->rw));
    return nullptr;
  };
  auto reader = +[](void* ap) -> void* {
    auto* a = static_cast<Arg*>(ap);
    EXPECT_EQ(0, pt_rwlock_rdlock(a->rw));
    a->order->push_back(2);  // late reader
    EXPECT_EQ(0, pt_rwlock_unlock(a->rw));
    return nullptr;
  };
  pt_thread_t tw, tr;
  ASSERT_EQ(0, pt_create(&tw, nullptr, writer, &warg));
  pt_yield();  // writer queues behind our read lock
  ASSERT_EQ(0, pt_create(&tr, nullptr, reader, &warg));
  pt_yield();  // reader must queue behind the waiting writer
  EXPECT_EQ(EBUSY, pt_rwlock_tryrdlock(&rw_));  // writer pending: no new readers
  ASSERT_EQ(0, pt_rwlock_unlock(&rw_));
  ASSERT_EQ(0, pt_join(tw, nullptr));
  ASSERT_EQ(0, pt_join(tr, nullptr));
  ASSERT_EQ(2u, order.size());
  EXPECT_EQ(1, order[0]);
  EXPECT_EQ(2, order[1]);
}

TEST_F(RwlockTest, StressReadersAndWriters) {
  struct Shared {
    pt_rwlock_t* rw;
    long value = 0;
  } s{&rw_};
  constexpr int kWriters = 3, kReaders = 5, kIters = 60;
  auto writer = +[](void* sp) -> void* {
    auto* s = static_cast<Shared*>(sp);
    for (int i = 0; i < kIters; ++i) {
      EXPECT_EQ(0, pt_rwlock_wrlock(s->rw));
      const long snapshot = s->value;
      pt_yield();
      s->value = snapshot + 1;
      EXPECT_EQ(0, pt_rwlock_unlock(s->rw));
    }
    return nullptr;
  };
  auto reader = +[](void* sp) -> void* {
    auto* s = static_cast<Shared*>(sp);
    for (int i = 0; i < kIters; ++i) {
      EXPECT_EQ(0, pt_rwlock_rdlock(s->rw));
      const long v1 = s->value;
      pt_yield();
      EXPECT_EQ(v1, s->value);  // no writer may interleave while we hold a read lock
      EXPECT_EQ(0, pt_rwlock_unlock(s->rw));
    }
    return nullptr;
  };
  std::vector<pt_thread_t> ts;
  for (int i = 0; i < kWriters; ++i) {
    pt_thread_t t;
    ASSERT_EQ(0, pt_create(&t, nullptr, writer, &s));
    ts.push_back(t);
  }
  for (int i = 0; i < kReaders; ++i) {
    pt_thread_t t;
    ASSERT_EQ(0, pt_create(&t, nullptr, reader, &s));
    ts.push_back(t);
  }
  for (auto& t : ts) {
    ASSERT_EQ(0, pt_join(t, nullptr));
  }
  EXPECT_EQ(static_cast<long>(kWriters) * kIters, s.value);
}

}  // namespace
}  // namespace fsup
