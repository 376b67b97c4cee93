// Priority inversion and its cures (paper Figure 5, Table 3): no protocol exhibits inversion;
// priority inheritance bounds it; priority ceiling (SRP) avoids it with fewer switches.

#include <gtest/gtest.h>

#include <cerrno>
#include <vector>

#include "src/core/attr.hpp"
#include "src/core/pthread.hpp"

namespace fsup {
namespace {

constexpr int kLo = 5;
constexpr int kMid = 10;
constexpr int kHi = 15;

class ProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override { pt_reinit(); }
};

// The Figure 5 scenario: P1 (low) locks the mutex; at t1 both P2 (medium, pure CPU) and P3
// (high, contends for the mutex) become ready. P2 and P3 are parked on a start semaphore;
// P1 releases them from *inside* its critical section — that instant is t1. The event log
// shows who ran when.
struct Fig5 {
  pt_mutex_t m;
  pt_sem_t start;
  std::vector<int> events;  // 1/2/3 = thread finished its critical work, 20 = P2 ran a step

  void Init(const MutexAttr* attr) {
    ASSERT_EQ(0, pt_mutex_init(&m, attr));
    ASSERT_EQ(0, pt_sem_init(&start, 0));
  }
};

void* P1Low(void* fp) {
  auto* f = static_cast<Fig5*>(fp);
  EXPECT_EQ(0, pt_mutex_lock(&f->m));
  // t1: release the high thread first (it preempts, contends, blocks), then the medium one.
  EXPECT_EQ(0, pt_sem_post(&f->start));
  EXPECT_EQ(0, pt_sem_post(&f->start));
  f->events.push_back(1);
  EXPECT_EQ(0, pt_mutex_unlock(&f->m));
  return nullptr;
}

void* P2Medium(void* fp) {
  auto* f = static_cast<Fig5*>(fp);
  EXPECT_EQ(0, pt_sem_wait(&f->start));
  for (int i = 0; i < 3; ++i) {
    f->events.push_back(20);
    pt_yield();
  }
  f->events.push_back(2);
  return nullptr;
}

void* P3High(void* fp) {
  auto* f = static_cast<Fig5*>(fp);
  EXPECT_EQ(0, pt_sem_wait(&f->start));
  EXPECT_EQ(0, pt_mutex_lock(&f->m));
  f->events.push_back(3);
  EXPECT_EQ(0, pt_mutex_unlock(&f->m));
  return nullptr;
}

// Runs the scenario and returns the event order.
std::vector<int> RunFig5(const MutexAttr* attr) {
  Fig5 f;
  f.Init(attr);

  ThreadAttr a1 = MakeThreadAttr(kLo, "P1");
  ThreadAttr a2 = MakeThreadAttr(kMid, "P2");
  ThreadAttr a3 = MakeThreadAttr(kHi, "P3");

  // Orchestrate from a priority above all three: the contenders run at creation just long
  // enough to park on the start semaphore.
  EXPECT_EQ(0, pt_setprio(pt_self(), kHi + 2));
  pt_thread_t t1, t2, t3;
  EXPECT_EQ(0, pt_create(&t3, &a3, &P3High, &f));
  EXPECT_EQ(0, pt_create(&t2, &a2, &P2Medium, &f));
  pt_yield();
  EXPECT_EQ(0, pt_create(&t1, &a1, &P1Low, &f));
  // Drop below everyone: the scenario plays out by priorities alone. P2 and P3 block on the
  // semaphore immediately (they outrank P1), then P1 locks and triggers t1.
  EXPECT_EQ(0, pt_setprio(pt_self(), kLo - 1));

  EXPECT_EQ(0, pt_join(t1, nullptr));
  EXPECT_EQ(0, pt_join(t2, nullptr));
  EXPECT_EQ(0, pt_join(t3, nullptr));
  EXPECT_EQ(0, pt_mutex_destroy(&f.m));
  EXPECT_EQ(0, pt_sem_destroy(&f.start));
  return f.events;
}

int IndexOf(const std::vector<int>& v, int x) {
  for (size_t i = 0; i < v.size(); ++i) {
    if (v[i] == x) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

TEST_F(ProtocolTest, Fig5aNoProtocolShowsInversion) {
  // Without a protocol the medium thread finishes its CPU burst before the high-priority
  // thread can acquire the mutex: P2's work precedes P3 (priority inversion).
  const auto events = RunFig5(nullptr);
  const int p2_first_step = IndexOf(events, 20);
  const int p3_done = IndexOf(events, 3);
  ASSERT_NE(-1, p2_first_step);
  ASSERT_NE(-1, p3_done);
  EXPECT_LT(p2_first_step, p3_done) << "medium-priority work should have delayed P3";
  // And P2 fully completes before P3 (unbounded inversion).
  EXPECT_LT(IndexOf(events, 2), p3_done);
}

TEST_F(ProtocolTest, Fig5bInheritanceAvoidsInversion) {
  const MutexAttr attr = MakeInheritMutexAttr();
  const auto events = RunFig5(&attr);
  const int p3_done = IndexOf(events, 3);
  const int p2_done = IndexOf(events, 2);
  ASSERT_NE(-1, p3_done);
  ASSERT_NE(-1, p2_done);
  // Inheritance: P1 is boosted to P3's priority, finishes the critical section, P3 runs;
  // P2 runs only afterwards ("Priority inversion is avoided since P2 does not get to run").
  EXPECT_LT(IndexOf(events, 1), p3_done);
  EXPECT_LT(p3_done, p2_done);
  EXPECT_GT(IndexOf(events, 20), p3_done);
}

TEST_F(ProtocolTest, Fig5cCeilingAvoidsInversion) {
  const MutexAttr attr = MakeCeilingMutexAttr(kHi);
  const auto events = RunFig5(&attr);
  const int p3_done = IndexOf(events, 3);
  const int p2_done = IndexOf(events, 2);
  ASSERT_NE(-1, p3_done);
  ASSERT_NE(-1, p2_done);
  EXPECT_LT(IndexOf(events, 1), p3_done);
  EXPECT_LT(p3_done, p2_done) << "P2 must never run before P3 under the ceiling protocol";
}

TEST_F(ProtocolTest, CeilingUsesFewerSwitchesThanInheritance) {
  // Paper: "this [ceiling] protocol tends to require fewer context switches than the
  // inheritance protocol".
  const MutexAttr inherit = MakeInheritMutexAttr();
  const auto s0 = pt_stats();
  RunFig5(&inherit);
  const auto s1 = pt_stats();
  const MutexAttr ceiling = MakeCeilingMutexAttr(kHi);
  RunFig5(&ceiling);
  const auto s2 = pt_stats();
  const uint64_t inherit_switches = s1.ctx_switches - s0.ctx_switches;
  const uint64_t ceiling_switches = s2.ctx_switches - s1.ctx_switches;
  EXPECT_LE(ceiling_switches, inherit_switches);
}

TEST_F(ProtocolTest, InheritanceBoostsAndRestores) {
  pt_mutex_t m;
  const MutexAttr attr = MakeInheritMutexAttr();
  ASSERT_EQ(0, pt_mutex_init(&m, &attr));
  ASSERT_EQ(0, pt_setprio(pt_self(), kLo));
  ASSERT_EQ(0, pt_mutex_lock(&m));

  struct Arg {
    pt_mutex_t* m;
  } arg{&m};
  auto contender = +[](void* ap) -> void* {
    auto* a = static_cast<Arg*>(ap);
    EXPECT_EQ(0, pt_mutex_lock(a->m));
    EXPECT_EQ(0, pt_mutex_unlock(a->m));
    return nullptr;
  };
  ThreadAttr hi = MakeThreadAttr(kHi);
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, &hi, contender, &arg));
  // The high-priority contender ran at creation, blocked on the mutex, and boosted us.
  int prio = -1;
  ASSERT_EQ(0, pt_getprio(pt_self(), &prio));
  EXPECT_EQ(kHi, prio);
  ASSERT_EQ(0, pt_mutex_unlock(&m));  // hand off; our priority drops back
  ASSERT_EQ(0, pt_getprio(pt_self(), &prio));
  EXPECT_EQ(kLo, prio);
  ASSERT_EQ(0, pt_join(t, nullptr));
  pt_mutex_destroy(&m);
}

TEST_F(ProtocolTest, CeilingBoostsOnAcquireRestoresOnRelease) {
  pt_mutex_t m;
  const MutexAttr attr = MakeCeilingMutexAttr(kHi);
  ASSERT_EQ(0, pt_mutex_init(&m, &attr));
  ASSERT_EQ(0, pt_setprio(pt_self(), kLo));
  ASSERT_EQ(0, pt_mutex_lock(&m));
  int prio = -1;
  ASSERT_EQ(0, pt_getprio(pt_self(), &prio));
  EXPECT_EQ(kHi, prio);  // SRP: boosted to the ceiling immediately on acquire
  ASSERT_EQ(0, pt_mutex_unlock(&m));
  ASSERT_EQ(0, pt_getprio(pt_self(), &prio));
  EXPECT_EQ(kLo, prio);
  pt_mutex_destroy(&m);
}

TEST_F(ProtocolTest, CeilingBelowLockerPriorityRejected) {
  pt_mutex_t m;
  const MutexAttr attr = MakeCeilingMutexAttr(kLo);
  ASSERT_EQ(0, pt_mutex_init(&m, &attr));
  ASSERT_EQ(0, pt_setprio(pt_self(), kHi));
  EXPECT_EQ(EINVAL, pt_mutex_lock(&m));  // the paper says "undefined"; we say EINVAL
  pt_mutex_destroy(&m);
}

TEST_F(ProtocolTest, NestedCeilingsRestoreLikeAStack) {
  pt_mutex_t m1, m2;
  const MutexAttr a1 = MakeCeilingMutexAttr(kMid);
  const MutexAttr a2 = MakeCeilingMutexAttr(kHi);
  ASSERT_EQ(0, pt_mutex_init(&m1, &a1));
  ASSERT_EQ(0, pt_mutex_init(&m2, &a2));
  ASSERT_EQ(0, pt_setprio(pt_self(), kLo));
  int prio;
  ASSERT_EQ(0, pt_mutex_lock(&m1));
  pt_getprio(pt_self(), &prio);
  EXPECT_EQ(kMid, prio);
  ASSERT_EQ(0, pt_mutex_lock(&m2));
  pt_getprio(pt_self(), &prio);
  EXPECT_EQ(kHi, prio);
  ASSERT_EQ(0, pt_mutex_unlock(&m2));
  pt_getprio(pt_self(), &prio);
  EXPECT_EQ(kMid, prio);  // popped back one level, not to base
  ASSERT_EQ(0, pt_mutex_unlock(&m1));
  pt_getprio(pt_self(), &prio);
  EXPECT_EQ(kLo, prio);
  pt_mutex_destroy(&m2);
  pt_mutex_destroy(&m1);
}

TEST_F(ProtocolTest, InheritanceChainPropagates) {
  // A blocked-on-inherit holder passes a boost down the chain: H blocks on m2 held by M,
  // M blocks on m1 held by L → L must be boosted to H's priority.
  pt_mutex_t m1, m2;
  const MutexAttr attr = MakeInheritMutexAttr();
  ASSERT_EQ(0, pt_mutex_init(&m1, &attr));
  ASSERT_EQ(0, pt_mutex_init(&m2, &attr));

  struct Shared {
    pt_mutex_t* m1;
    pt_mutex_t* m2;
    pt_thread_t tm = nullptr;
    pt_thread_t th = nullptr;
    int low_prio_seen = -1;
  } s{&m1, &m2};

  // Each stage creates the next from inside its critical section, so the higher-priority
  // thread preempts at exactly the point where the chain link must form.
  auto high_body = +[](void* sp) -> void* {
    auto* s = static_cast<Shared*>(sp);
    EXPECT_EQ(0, pt_mutex_lock(s->m2));  // blocks on M, boosting M then L transitively
    EXPECT_EQ(0, pt_mutex_unlock(s->m2));
    return nullptr;
  };
  auto mid_body = +[](void* sp) -> void* {
    auto* s = static_cast<Shared*>(sp);
    EXPECT_EQ(0, pt_mutex_lock(s->m2));
    EXPECT_EQ(0, pt_mutex_lock(s->m1));  // blocks on L (boosting L to kMid)
    EXPECT_EQ(0, pt_mutex_unlock(s->m1));
    EXPECT_EQ(0, pt_mutex_unlock(s->m2));
    return nullptr;
  };
  auto low_body = +[](void* sp) -> void* {
    auto* s = static_cast<Shared*>(sp);
    EXPECT_EQ(0, pt_mutex_lock(s->m1));
    ThreadAttr am = MakeThreadAttr(kMid, "M");
    auto mid = +[](void* sp2) -> void* {
      auto* s2 = static_cast<Shared*>(sp2);
      EXPECT_EQ(0, pt_mutex_lock(s2->m2));
      EXPECT_EQ(0, pt_mutex_lock(s2->m1));
      EXPECT_EQ(0, pt_mutex_unlock(s2->m1));
      EXPECT_EQ(0, pt_mutex_unlock(s2->m2));
      return nullptr;
    };
    EXPECT_EQ(0, pt_create(&s->tm, &am, mid, s));  // M preempts, locks m2, blocks on m1
    ThreadAttr ah = MakeThreadAttr(kHi, "H");
    auto high = +[](void* sp2) -> void* {
      auto* s2 = static_cast<Shared*>(sp2);
      EXPECT_EQ(0, pt_mutex_lock(s2->m2));
      EXPECT_EQ(0, pt_mutex_unlock(s2->m2));
      return nullptr;
    };
    EXPECT_EQ(0, pt_create(&s->th, &ah, high, s));  // H preempts, blocks on m2 → chain boost
    int p;
    pt_getprio(pt_self(), &p);
    s->low_prio_seen = p;  // should be kHi via the transitive boost
    EXPECT_EQ(0, pt_mutex_unlock(s->m1));
    return nullptr;
  };
  (void)high_body;
  (void)mid_body;

  ThreadAttr al = MakeThreadAttr(kLo, "L");
  pt_thread_t tl;
  ASSERT_EQ(0, pt_setprio(pt_self(), kLo - 1));
  ASSERT_EQ(0, pt_create(&tl, &al, low_body, &s));
  ASSERT_EQ(0, pt_join(tl, nullptr));
  ASSERT_EQ(0, pt_join(s.tm, nullptr));
  ASSERT_EQ(0, pt_join(s.th, nullptr));
  EXPECT_EQ(kHi, s.low_prio_seen);
  pt_mutex_destroy(&m1);
  pt_mutex_destroy(&m2);
}

// The priority is derived from the base and the held mutexes, never restored from a saved
// value: the cases below each left a stale priority behind under a save/restore stack.

int SelfPrio() {
  int prio = -1;
  EXPECT_EQ(0, pt_getprio(pt_self(), &prio));
  return prio;
}

TEST_F(ProtocolTest, CeilingsUnlockedOutOfOrderKeepTheHigherCeiling) {
  pt_mutex_t m10, m15;
  const MutexAttr a10 = MakeCeilingMutexAttr(kMid);
  const MutexAttr a15 = MakeCeilingMutexAttr(kHi);
  ASSERT_EQ(0, pt_mutex_init(&m10, &a10));
  ASSERT_EQ(0, pt_mutex_init(&m15, &a15));
  ASSERT_EQ(0, pt_setprio(pt_self(), kLo));
  ASSERT_EQ(0, pt_mutex_lock(&m10));
  ASSERT_EQ(0, pt_mutex_lock(&m15));
  ASSERT_EQ(0, pt_mutex_unlock(&m10));  // not LIFO
  EXPECT_EQ(kHi, SelfPrio());           // the ceiling-15 mutex is still held
  ASSERT_EQ(0, pt_mutex_unlock(&m15));
  EXPECT_EQ(kLo, SelfPrio());
  EXPECT_EQ(0, pt_mutex_destroy(&m15));
  EXPECT_EQ(0, pt_mutex_destroy(&m10));
}

TEST_F(ProtocolTest, SetprioAboveAHeldCeilingSurvivesTheUnlock) {
  pt_mutex_t m;
  const MutexAttr a = MakeCeilingMutexAttr(kMid);
  ASSERT_EQ(0, pt_mutex_init(&m, &a));
  ASSERT_EQ(0, pt_setprio(pt_self(), kLo));
  ASSERT_EQ(0, pt_mutex_lock(&m));
  ASSERT_EQ(0, pt_setprio(pt_self(), 20));
  EXPECT_EQ(20, SelfPrio());
  ASSERT_EQ(0, pt_mutex_unlock(&m));
  EXPECT_EQ(20, SelfPrio());  // the base set while the ceiling was held
  EXPECT_EQ(0, pt_mutex_destroy(&m));
}

TEST_F(ProtocolTest, SetprioBelowAHeldCeilingLandsOnTheNewBaseAtUnlock) {
  pt_mutex_t m;
  const MutexAttr a = MakeCeilingMutexAttr(kMid);
  ASSERT_EQ(0, pt_mutex_init(&m, &a));
  ASSERT_EQ(0, pt_setprio(pt_self(), 8));
  ASSERT_EQ(0, pt_mutex_lock(&m));
  ASSERT_EQ(0, pt_setprio(pt_self(), 3));
  EXPECT_EQ(kMid, SelfPrio());  // the ceiling still holds the thread up
  ASSERT_EQ(0, pt_mutex_unlock(&m));
  EXPECT_EQ(3, SelfPrio());
  EXPECT_EQ(0, pt_mutex_destroy(&m));
}

TEST_F(ProtocolTest, CancelledWaiterTakesItsBoostAlong) {
  static pt_mutex_t m;
  const MutexAttr a = MakeInheritMutexAttr();
  ASSERT_EQ(0, pt_mutex_init(&m, &a));
  ASSERT_EQ(0, pt_setprio(pt_self(), kLo));
  ASSERT_EQ(0, pt_mutex_lock(&m));
  auto waiter = +[](void*) -> void* {
    EXPECT_EQ(0, pt_setintrtype(/*asynchronous=*/true));
    pt_mutex_lock(&m);  // blocks for good: cancelled while waiting
    ADD_FAILURE() << "the cancelled waiter acquired the mutex";
    return nullptr;
  };
  ThreadAttr hi = MakeThreadAttr(20);
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, &hi, waiter, nullptr));
  EXPECT_EQ(20, SelfPrio());  // inherited from the waiter
  ASSERT_EQ(0, pt_cancel(t));
  void* result = nullptr;
  ASSERT_EQ(0, pt_join(t, &result));
  EXPECT_EQ(kCanceled, result);
  EXPECT_EQ(kLo, SelfPrio());  // the only waiter is gone while the mutex is still held
  ASSERT_EQ(0, pt_mutex_unlock(&m));
  EXPECT_EQ(0, pt_mutex_destroy(&m));
}

TEST_F(ProtocolTest, RejectedCeilingLockLeavesTheMutexFree) {
  pt_mutex_t m;
  const MutexAttr a = MakeCeilingMutexAttr(kLo);
  ASSERT_EQ(0, pt_mutex_init(&m, &a));
  ASSERT_EQ(0, pt_setprio(pt_self(), 20));
  EXPECT_EQ(EINVAL, pt_mutex_lock(&m));
  EXPECT_EQ(20, SelfPrio());
  EXPECT_EQ(EINVAL, pt_mutex_trylock(&m));  // still above the ceiling, and nothing owned
  EXPECT_EQ(EPERM, pt_mutex_unlock(&m));
  ASSERT_EQ(0, pt_setprio(pt_self(), 3));
  ASSERT_EQ(0, pt_mutex_lock(&m));
  EXPECT_EQ(kLo, SelfPrio());
  ASSERT_EQ(0, pt_mutex_unlock(&m));
  EXPECT_EQ(0, pt_mutex_destroy(&m));
}

TEST_F(ProtocolTest, RejectedHandoffPassesTheMutexOn) {
  // A waiter whose priority is above the ceiling is handed the mutex, rejects it with EINVAL,
  // and releases it on the spot: the next waiter gets it and nothing is left owned.
  static pt_mutex_t m;
  static int rc_above = -1;
  static int rc_below = -1;
  const MutexAttr a = MakeCeilingMutexAttr(kMid);
  ASSERT_EQ(0, pt_mutex_init(&m, &a));
  ASSERT_EQ(0, pt_setprio(pt_self(), kLo));
  ASSERT_EQ(0, pt_mutex_lock(&m));  // main now runs at the ceiling, kMid
  auto above = +[](void*) -> void* {
    rc_above = pt_mutex_lock(&m);
    return nullptr;
  };
  auto below = +[](void*) -> void* {
    rc_below = pt_mutex_lock(&m);
    if (rc_below == 0) {
      EXPECT_EQ(0, pt_mutex_unlock(&m));
    }
    return nullptr;
  };
  ThreadAttr a_above = MakeThreadAttr(kHi);
  ThreadAttr a_below = MakeThreadAttr(kMid);
  pt_thread_t t_above, t_below;
  ASSERT_EQ(0, pt_create(&t_above, &a_above, above, nullptr));  // runs at once and blocks
  ASSERT_EQ(0, pt_create(&t_below, &a_below, below, nullptr));
  pt_yield();  // the equal-priority locker queues behind the higher one
  ASSERT_EQ(0, pt_mutex_unlock(&m));
  ASSERT_EQ(0, pt_join(t_above, nullptr));
  ASSERT_EQ(0, pt_join(t_below, nullptr));
  EXPECT_EQ(EINVAL, rc_above);
  EXPECT_EQ(0, rc_below);
  EXPECT_EQ(0, pt_mutex_destroy(&m));
}

}  // namespace
}  // namespace fsup
