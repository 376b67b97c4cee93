// Mixing inheritance and ceiling mutexes — the paper's Table 4, reproduced step by step.
//
// A priority-0 thread locks mutex `inht` (inheritance), then `ceil` (ceiling 1); a priority-2
// thread contends for `inht`. Table 4 gives the thread's priority after each step under the
// two composition rules:
//
//   # | action        | Pi (linear search)  | Pc (pure SRP stack)
//   1 | lock(inht)    | 0                   | 0
//   2 | lock(ceil)    | 1                   | 1
//   3 | (contention)  | 2                   | 2
//   4 | unlock(ceil)  | 2                   | 0   <- protocol divergence
//   5 | unlock(inht)  | 0                   | 0
//
// The paper argues the Pi column (keep the max over remaining inheritance boosts) avoids the
// unbounded inversion that the naive stack restore (Pc) reintroduces at step 4 — so that is
// what this implementation does, and what this test pins down. The priority is derived from
// the base and every held mutex (sched/policy.hpp), so no saved value can go stale in any
// unlock order.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/attr.hpp"
#include "src/core/pthread.hpp"

namespace fsup {
namespace {

class ProtocolMixTest : public ::testing::Test {
 protected:
  void SetUp() override { pt_reinit(); }
};

TEST_F(ProtocolMixTest, Table4MixedProtocolsKeepInheritanceBoost) {
  pt_mutex_t inht, ceil;
  const MutexAttr ia = MakeInheritMutexAttr();
  const MutexAttr ca = MakeCeilingMutexAttr(1);
  ASSERT_EQ(0, pt_mutex_init(&inht, &ia));
  ASSERT_EQ(0, pt_mutex_init(&ceil, &ca));

  struct Shared {
    pt_mutex_t* inht;
    pt_mutex_t* ceil;
    pt_thread_t th = nullptr;
    std::vector<int> prio_after_step;
  } s{&inht, &ceil, nullptr, {}};

  auto contender = +[](void* sp) -> void* {
    auto* s = static_cast<Shared*>(sp);
    EXPECT_EQ(0, pt_mutex_lock(s->inht));
    EXPECT_EQ(0, pt_mutex_unlock(s->inht));
    return nullptr;
  };

  auto low_body = +[](void* sp) -> void* {
    auto* s = static_cast<Shared*>(sp);
    int p;
    EXPECT_EQ(0, pt_mutex_lock(s->inht));  // step 1
    pt_getprio(pt_self(), &p);
    s->prio_after_step.push_back(p);  // expect 0

    EXPECT_EQ(0, pt_mutex_lock(s->ceil));  // step 2
    pt_getprio(pt_self(), &p);
    s->prio_after_step.push_back(p);  // expect 1

    // Step 3: create the priority-2 contender; it preempts immediately, blocks on inht, and
    // inheritance boosts us to 2.
    ThreadAttr high = MakeThreadAttr(2, "P2");
    auto fn = +[](void* sp2) -> void* {
      auto* s2 = static_cast<Shared*>(sp2);
      EXPECT_EQ(0, pt_mutex_lock(s2->inht));
      EXPECT_EQ(0, pt_mutex_unlock(s2->inht));
      return nullptr;
    };
    EXPECT_EQ(0, pt_create(&s->th, &high, fn, s));
    pt_getprio(pt_self(), &p);
    s->prio_after_step.push_back(p);  // expect 2

    EXPECT_EQ(0, pt_mutex_unlock(s->ceil));  // step 4 — the divergence point
    pt_getprio(pt_self(), &p);
    s->prio_after_step.push_back(p);  // expect 2 (linear search), NOT 0 (pure stack)

    EXPECT_EQ(0, pt_mutex_unlock(s->inht));  // step 5
    pt_getprio(pt_self(), &p);
    s->prio_after_step.push_back(p);  // expect 0
    return nullptr;
  };
  (void)contender;

  ASSERT_EQ(0, pt_setprio(pt_self(), 4));
  ThreadAttr low = MakeThreadAttr(0, "P0");
  pt_thread_t tl;
  ASSERT_EQ(0, pt_create(&tl, &low, low_body, &s));
  ASSERT_EQ(0, pt_join(tl, nullptr));
  ASSERT_EQ(0, pt_join(s.th, nullptr));

  ASSERT_EQ(5u, s.prio_after_step.size());
  EXPECT_EQ(0, s.prio_after_step[0]);  // step 1
  EXPECT_EQ(1, s.prio_after_step[1]);  // step 2
  EXPECT_EQ(2, s.prio_after_step[2]);  // step 3
  EXPECT_EQ(2, s.prio_after_step[3]);  // step 4: Pi column — boost survives ceil unlock
  EXPECT_EQ(0, s.prio_after_step[4]);  // step 5
  pt_mutex_destroy(&ceil);
  pt_mutex_destroy(&inht);
}

TEST_F(ProtocolMixTest, PureCeilingStillRestoresByStack) {
  // Sanity cross-check: with no inheritance mutex involved, step-4-style unlock restores the
  // pre-lock priority exactly (the priority falls back to the highest ceiling still held).
  pt_mutex_t c1, c2;
  const MutexAttr a1 = MakeCeilingMutexAttr(2);
  const MutexAttr a2 = MakeCeilingMutexAttr(3);
  ASSERT_EQ(0, pt_mutex_init(&c1, &a1));
  ASSERT_EQ(0, pt_mutex_init(&c2, &a2));
  ASSERT_EQ(0, pt_setprio(pt_self(), 1));
  int p;
  ASSERT_EQ(0, pt_mutex_lock(&c1));
  ASSERT_EQ(0, pt_mutex_lock(&c2));
  pt_getprio(pt_self(), &p);
  EXPECT_EQ(3, p);
  ASSERT_EQ(0, pt_mutex_unlock(&c2));
  pt_getprio(pt_self(), &p);
  EXPECT_EQ(2, p);
  ASSERT_EQ(0, pt_mutex_unlock(&c1));
  pt_getprio(pt_self(), &p);
  EXPECT_EQ(1, p);
  pt_mutex_destroy(&c2);
  pt_mutex_destroy(&c1);
}

TEST_F(ProtocolMixTest, InheritanceUnderCeilingBoostStaysConsistent) {
  // Lock order ceil→inht with an inheritance contender: the boost arrives while a ceiling
  // boost is active; both unlock orders leave the priority at base afterwards.
  pt_mutex_t inht, ceil;
  const MutexAttr ia = MakeInheritMutexAttr();
  const MutexAttr ca = MakeCeilingMutexAttr(1);
  ASSERT_EQ(0, pt_mutex_init(&inht, &ia));
  ASSERT_EQ(0, pt_mutex_init(&ceil, &ca));

  struct Shared {
    pt_mutex_t* inht;
    pt_mutex_t* ceil;
    int final_prio = -1;
  } s{&inht, &ceil, -1};

  auto low_body = +[](void* sp) -> void* {
    auto* s = static_cast<Shared*>(sp);
    EXPECT_EQ(0, pt_mutex_lock(s->ceil));
    EXPECT_EQ(0, pt_mutex_lock(s->inht));
    pt_yield();  // contender blocks on inht → boost to 2
    EXPECT_EQ(0, pt_mutex_unlock(s->inht));  // hand off; recompute
    EXPECT_EQ(0, pt_mutex_unlock(s->ceil));
    int p;
    pt_getprio(pt_self(), &p);
    s->final_prio = p;
    return nullptr;
  };
  auto contender = +[](void* sp) -> void* {
    auto* s = static_cast<Shared*>(sp);
    EXPECT_EQ(0, pt_mutex_lock(s->inht));
    EXPECT_EQ(0, pt_mutex_unlock(s->inht));
    return nullptr;
  };

  ASSERT_EQ(0, pt_setprio(pt_self(), 4));
  ThreadAttr low = MakeThreadAttr(0);
  ThreadAttr high = MakeThreadAttr(2);
  pt_thread_t tl, th;
  ASSERT_EQ(0, pt_create(&tl, &low, low_body, &s));
  ASSERT_EQ(0, pt_create(&th, &high, contender, &s));
  ASSERT_EQ(0, pt_setprio(pt_self(), 0));
  ASSERT_EQ(0, pt_join(tl, nullptr));
  ASSERT_EQ(0, pt_join(th, nullptr));
  EXPECT_EQ(0, s.final_prio);
  pt_mutex_destroy(&ceil);
  pt_mutex_destroy(&inht);
}

TEST_F(ProtocolMixTest, InheritanceUnlockKeepsAStillHeldCeiling) {
  // Hold a ceiling-10 mutex and an inheritance mutex, get boosted to 12 by a waiter, then give
  // the inheritance mutex up: the ceiling, still held, decides the priority.
  static pt_mutex_t inht, ceil;
  const MutexAttr ia = MakeInheritMutexAttr();
  const MutexAttr ca = MakeCeilingMutexAttr(10);
  ASSERT_EQ(0, pt_mutex_init(&inht, &ia));
  ASSERT_EQ(0, pt_mutex_init(&ceil, &ca));
  ASSERT_EQ(0, pt_setprio(pt_self(), 5));
  ASSERT_EQ(0, pt_mutex_lock(&ceil));
  ASSERT_EQ(0, pt_mutex_lock(&inht));
  auto contender = +[](void*) -> void* {
    EXPECT_EQ(0, pt_mutex_lock(&inht));
    EXPECT_EQ(0, pt_mutex_unlock(&inht));
    return nullptr;
  };
  ThreadAttr high = MakeThreadAttr(12);
  pt_thread_t th;
  ASSERT_EQ(0, pt_create(&th, &high, contender, nullptr));  // blocks on inht: boost to 12
  int p;
  pt_getprio(pt_self(), &p);
  EXPECT_EQ(12, p);
  ASSERT_EQ(0, pt_mutex_unlock(&inht));  // hands inht over; the contender runs and exits
  pt_getprio(pt_self(), &p);
  EXPECT_EQ(10, p);
  ASSERT_EQ(0, pt_mutex_unlock(&ceil));
  pt_getprio(pt_self(), &p);
  EXPECT_EQ(5, p);
  ASSERT_EQ(0, pt_join(th, nullptr));
  EXPECT_EQ(0, pt_mutex_destroy(&ceil));
  EXPECT_EQ(0, pt_mutex_destroy(&inht));
}

}  // namespace
}  // namespace fsup
