// Cleanup handlers (function-based, per the paper's language-independence argument) and
// thread-specific data.

#include <gtest/gtest.h>

#include <cerrno>
#include <vector>

#include "src/core/pthread.hpp"

namespace fsup {
namespace {

class CleanupTsdTest : public ::testing::Test {
 protected:
  void SetUp() override { pt_reinit(); }
};

std::vector<int>* g_order = nullptr;

void Record1(void*) { g_order->push_back(1); }
void Record2(void*) { g_order->push_back(2); }
void Record3(void*) { g_order->push_back(3); }

TEST_F(CleanupTsdTest, CleanupRunsNewestFirstOnExit) {
  std::vector<int> order;
  g_order = &order;
  auto body = +[](void*) -> void* {
    pt_cleanup_push(&Record1, nullptr);
    pt_cleanup_push(&Record2, nullptr);
    pt_cleanup_push(&Record3, nullptr);
    pt_exit(nullptr);
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
  ASSERT_EQ(3u, order.size());
  EXPECT_EQ(3, order[0]);
  EXPECT_EQ(2, order[1]);
  EXPECT_EQ(1, order[2]);
}

TEST_F(CleanupTsdTest, PopWithoutExecuteSkipsHandler) {
  std::vector<int> order;
  g_order = &order;
  auto body = +[](void*) -> void* {
    pt_cleanup_push(&Record1, nullptr);
    pt_cleanup_push(&Record2, nullptr);
    EXPECT_EQ(0, pt_cleanup_pop(false));  // drops Record2 silently
    pt_exit(nullptr);
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
  ASSERT_EQ(1u, order.size());
  EXPECT_EQ(1, order[0]);
}

TEST_F(CleanupTsdTest, PopWithExecuteRunsHandler) {
  std::vector<int> order;
  g_order = &order;
  auto body = +[](void*) -> void* {
    pt_cleanup_push(&Record1, nullptr);
    EXPECT_EQ(0, pt_cleanup_pop(true));
    return nullptr;  // normal return: nothing left on the stack
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
  ASSERT_EQ(1u, order.size());
  EXPECT_EQ(1, order[0]);
}

TEST_F(CleanupTsdTest, PopEmptyStackIsEinval) {
  EXPECT_EQ(EINVAL, pt_cleanup_pop(true));
}

TEST_F(CleanupTsdTest, CleanupRunsOnNormalReturnToo) {
  // Entry-function return goes through pt_exit, so leftover handlers still run.
  std::vector<int> order;
  g_order = &order;
  auto body = +[](void*) -> void* {
    pt_cleanup_push(&Record1, nullptr);
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
  ASSERT_EQ(1u, order.size());
}

// -- TSD ---------------------------------------------------------------------------------

TEST_F(CleanupTsdTest, KeyCreateSetGet) {
  pt_key_t key;
  ASSERT_EQ(0, pt_key_create(&key, nullptr));
  EXPECT_EQ(nullptr, pt_getspecific(key));
  int value = 7;
  ASSERT_EQ(0, pt_setspecific(key, &value));
  EXPECT_EQ(&value, pt_getspecific(key));
  ASSERT_EQ(0, pt_key_delete(key));
  EXPECT_EQ(nullptr, pt_getspecific(key));  // deleted key: invalid
}

TEST_F(CleanupTsdTest, ValuesArePerThread) {
  pt_key_t key;
  ASSERT_EQ(0, pt_key_create(&key, nullptr));
  static pt_key_t k;
  k = key;
  int mine = 1;
  ASSERT_EQ(0, pt_setspecific(k, &mine));
  auto body = +[](void*) -> void* {
    EXPECT_EQ(nullptr, pt_getspecific(k));  // fresh slot in the new thread
    static int theirs = 2;
    EXPECT_EQ(0, pt_setspecific(k, &theirs));
    EXPECT_EQ(&theirs, pt_getspecific(k));
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(&mine, pt_getspecific(k));  // ours untouched
  pt_key_delete(key);
}

TEST_F(CleanupTsdTest, DestructorRunsAtThreadExit) {
  static int destroyed_with = 0;
  destroyed_with = 0;
  pt_key_t key;
  ASSERT_EQ(0, pt_key_create(&key, +[](void* v) {
    destroyed_with = *static_cast<int*>(v);
  }));
  static pt_key_t k;
  k = key;
  auto body = +[](void*) -> void* {
    static int payload = 42;
    EXPECT_EQ(0, pt_setspecific(k, &payload));
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(42, destroyed_with);
  pt_key_delete(key);
}

TEST_F(CleanupTsdTest, DestructorNotRunForNullValues) {
  static int runs = 0;
  runs = 0;
  pt_key_t key;
  ASSERT_EQ(0, pt_key_create(&key, +[](void*) { ++runs; }));
  auto body = +[](void*) -> void* { return nullptr; };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(0, runs);
  pt_key_delete(key);
}

TEST_F(CleanupTsdTest, DestructorSettingNewValueReRuns) {
  static int runs = 0;
  static pt_key_t k;
  runs = 0;
  ASSERT_EQ(0, pt_key_create(&k, +[](void* v) {
    ++runs;
    if (runs == 1) {
      pt_setspecific(k, v);  // re-arm once: POSIX repeats destructor iteration
    }
  }));
  auto body = +[](void*) -> void* {
    static int payload = 1;
    EXPECT_EQ(0, pt_setspecific(k, &payload));
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(2, runs);
  pt_key_delete(k);
}

TEST_F(CleanupTsdTest, DestructorsRunInAscendingKeyOrder) {
  // Exit visits only the keys the thread set, lowest first, whatever order they were set in.
  static std::vector<int> order;
  static pt_key_t keys[3];
  order.clear();
  for (pt_key_t& k : keys) {
    ASSERT_EQ(0, pt_key_create(&k, +[](void* v) { order.push_back(*static_cast<int*>(v)); }));
  }
  auto body = +[](void*) -> void* {
    static int values[3] = {0, 1, 2};
    for (int i = 2; i >= 0; --i) {
      EXPECT_EQ(0, pt_setspecific(keys[i], &values[i]));
    }
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ((std::vector<int>{0, 1, 2}), order);
  for (pt_key_t k : keys) {
    pt_key_delete(k);
  }
}

TEST_F(CleanupTsdTest, RecreatedKeyReadsNullInEveryThread) {
  // Delete then create hands back the same slot; the old key's values must not show through,
  // neither in the thread that deleted it nor in another thread that had set it.
  static pt_key_t k1;
  static int x = 1, y = 2;
  ASSERT_EQ(0, pt_key_create(&k1, nullptr));
  ASSERT_EQ(0, pt_setspecific(k1, &x));
  static pt_sem_t set, go;
  ASSERT_EQ(0, pt_sem_init(&set, 0));
  ASSERT_EQ(0, pt_sem_init(&go, 0));
  static pt_key_t k2;
  auto body = +[](void*) -> void* {
    EXPECT_EQ(0, pt_setspecific(k1, &y));
    pt_sem_post(&set);
    pt_sem_wait(&go);
    return pt_getspecific(k2);
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  ASSERT_EQ(0, pt_sem_wait(&set));
  ASSERT_EQ(0, pt_key_delete(k1));
  ASSERT_EQ(0, pt_key_create(&k2, nullptr));
  ASSERT_EQ(k1, k2);  // the slot is reused: this is the case under test
  EXPECT_EQ(nullptr, pt_getspecific(k2));
  ASSERT_EQ(0, pt_sem_post(&go));
  void* seen = &x;
  ASSERT_EQ(0, pt_join(t, &seen));
  EXPECT_EQ(nullptr, seen);
  pt_key_delete(k2);
  pt_sem_destroy(&set);
  pt_sem_destroy(&go);
}

TEST_F(CleanupTsdTest, RecreatedKeyDestructorNeverSeesTheOldValue) {
  // A thread set the old key, then the key was deleted and recreated with a destructor while
  // the thread was still alive: its exit must not run the new destructor on the old value.
  static pt_key_t k1;
  static int runs = 0;
  runs = 0;
  ASSERT_EQ(0, pt_key_create(&k1, nullptr));
  static pt_sem_t set, go;
  ASSERT_EQ(0, pt_sem_init(&set, 0));
  ASSERT_EQ(0, pt_sem_init(&go, 0));
  auto body = +[](void*) -> void* {
    static int old_value = 7;
    EXPECT_EQ(0, pt_setspecific(k1, &old_value));
    pt_sem_post(&set);
    pt_sem_wait(&go);
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  ASSERT_EQ(0, pt_sem_wait(&set));
  ASSERT_EQ(0, pt_key_delete(k1));
  pt_key_t k2;
  ASSERT_EQ(0, pt_key_create(&k2, +[](void*) { ++runs; }));
  ASSERT_EQ(k1, k2);
  ASSERT_EQ(0, pt_sem_post(&go));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(0, runs);
  pt_key_delete(k2);
  pt_sem_destroy(&set);
  pt_sem_destroy(&go);
}

TEST_F(CleanupTsdTest, KeyExhaustionIsEagain) {
  std::vector<pt_key_t> keys;
  pt_key_t key;
  int rc;
  while ((rc = pt_key_create(&key, nullptr)) == 0) {
    keys.push_back(key);
    ASSERT_LE(keys.size(), static_cast<size_t>(kMaxTsdKeys));
  }
  EXPECT_EQ(EAGAIN, rc);
  EXPECT_EQ(static_cast<size_t>(kMaxTsdKeys), keys.size());
  for (pt_key_t k2 : keys) {
    EXPECT_EQ(0, pt_key_delete(k2));
  }
}

TEST_F(CleanupTsdTest, InvalidKeyOperations) {
  EXPECT_EQ(EINVAL, pt_key_delete(-1));
  EXPECT_EQ(EINVAL, pt_key_delete(kMaxTsdKeys));
  EXPECT_EQ(EINVAL, pt_setspecific(-1, nullptr));
  EXPECT_EQ(nullptr, pt_getspecific(12345));
  EXPECT_EQ(EINVAL, pt_key_create(nullptr, nullptr));
}

TEST_F(CleanupTsdTest, CancelledThreadRunsCleanupThenTsdDestructors) {
  static std::vector<int> log;
  static pt_key_t k;
  log.clear();
  ASSERT_EQ(0, pt_key_create(&k, +[](void*) { log.push_back(2); }));
  static pt_sem_t sem;
  ASSERT_EQ(0, pt_sem_init(&sem, 0));
  auto body = +[](void*) -> void* {
    static int payload = 1;
    pt_setspecific(k, &payload);
    pt_cleanup_push(+[](void*) { log.push_back(1); }, nullptr);
    pt_sem_wait(&sem);  // interruption point: cancelled here
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  pt_yield();
  ASSERT_EQ(0, pt_cancel(t));
  void* ret = nullptr;
  ASSERT_EQ(0, pt_join(t, &ret));
  EXPECT_EQ(kCanceled, ret);
  ASSERT_EQ(2u, log.size());
  EXPECT_EQ(1, log[0]);  // cleanup first
  EXPECT_EQ(2, log[1]);  // then TSD destructors
  pt_key_delete(k);
  pt_sem_destroy(&sem);
}

}  // namespace
}  // namespace fsup
