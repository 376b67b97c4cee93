// Property/model-based tests: the ready queue against a reference model under random
// operation sequences, the intrusive list against std::list, timer ordering under random
// deadlines, protocol invariants swept across the parameter space (TEST_P), and the priority
// rule under random ceiling-mutex steps.

#include <gtest/gtest.h>

#include <algorithm>
#include <new>
#include <list>
#include <map>
#include <vector>

#include "src/core/attr.hpp"
#include "src/core/pthread.hpp"
#include "src/kernel/ready_queue.hpp"
#include "src/util/intrusive_list.hpp"
#include "tests/rng.hpp"

namespace fsup {
namespace {

// ---------------------------------------------------------------------------------------
// ReadyQueue vs a reference model: random push-front/push-back/pop/erase sequences must
// produce identical pop orders.
// ---------------------------------------------------------------------------------------

class ReadyQueueModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReadyQueueModelTest, MatchesReferenceModelUnderRandomOps) {
  Rng rng(GetParam());
  constexpr int kPoolSize = 64;
  std::vector<Tcb> pool(kPoolSize);
  ReadyQueue q;
  // Model: per priority, a deque of pool indices.
  std::map<int, std::list<int>> model;
  std::vector<bool> queued(kPoolSize, false);

  auto model_top = [&]() -> int {
    return model.empty() ? -1 : model.rbegin()->first;
  };

  for (int step = 0; step < 2000; ++step) {
    const uint64_t op = rng.NextBelow(5);
    if (op <= 1) {  // push back
      const int i = static_cast<int>(rng.NextBelow(kPoolSize));
      if (!queued[static_cast<size_t>(i)]) {
        pool[static_cast<size_t>(i)].prio = static_cast<int>(rng.NextBelow(kNumPrios));
        q.PushBack(&pool[static_cast<size_t>(i)]);
        model[pool[static_cast<size_t>(i)].prio].push_back(i);
        queued[static_cast<size_t>(i)] = true;
      }
    } else if (op == 2) {  // push front
      const int i = static_cast<int>(rng.NextBelow(kPoolSize));
      if (!queued[static_cast<size_t>(i)]) {
        pool[static_cast<size_t>(i)].prio = static_cast<int>(rng.NextBelow(kNumPrios));
        q.PushFront(&pool[static_cast<size_t>(i)]);
        model[pool[static_cast<size_t>(i)].prio].push_front(i);
        queued[static_cast<size_t>(i)] = true;
      }
    } else if (op == 3) {  // pop highest
      ASSERT_EQ(model_top(), q.TopPrio());
      Tcb* got = q.PopHighest();
      if (model.empty()) {
        ASSERT_EQ(nullptr, got);
      } else {
        auto it = model.rbegin();
        const int want = it->second.front();
        it->second.pop_front();
        if (it->second.empty()) {
          model.erase(it->first);
        }
        ASSERT_EQ(&pool[static_cast<size_t>(want)], got);
        queued[static_cast<size_t>(want)] = false;
      }
    } else {  // erase random queued element
      const int i = static_cast<int>(rng.NextBelow(kPoolSize));
      if (queued[static_cast<size_t>(i)]) {
        q.Erase(&pool[static_cast<size_t>(i)]);
        auto& lst = model[pool[static_cast<size_t>(i)].prio];
        lst.remove(i);
        if (lst.empty()) {
          model.erase(pool[static_cast<size_t>(i)].prio);
        }
        queued[static_cast<size_t>(i)] = false;
      }
    }
    // Size invariant every step.
    size_t model_size = 0;
    for (const auto& [prio, lst] : model) {
      model_size += lst.size();
    }
    ASSERT_EQ(model_size, q.size());
  }
  // Drain and compare the tail order.
  while (!model.empty()) {
    auto it = model.rbegin();
    const int want = it->second.front();
    it->second.pop_front();
    if (it->second.empty()) {
      model.erase(it->first);
    }
    ASSERT_EQ(&pool[static_cast<size_t>(want)], q.PopHighest());
  }
  ASSERT_TRUE(q.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReadyQueueModelTest,
                         ::testing::Values(1u, 7u, 42u, 1234u, 987654u, 0xdeadbeefu));

// ---------------------------------------------------------------------------------------
// IntrusiveList vs std::list under random ops.
// ---------------------------------------------------------------------------------------

struct Node {
  int id = 0;
  ListNode link;
};

class ListModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ListModelTest, MatchesStdListUnderRandomOps) {
  Rng rng(GetParam());
  constexpr int kPoolSize = 32;
  std::vector<Node> pool(kPoolSize);
  for (int i = 0; i < kPoolSize; ++i) {
    pool[static_cast<size_t>(i)].id = i;
  }
  IntrusiveList<Node, &Node::link> l;
  std::list<int> model;

  for (int step = 0; step < 3000; ++step) {
    const uint64_t op = rng.NextBelow(4);
    const int i = static_cast<int>(rng.NextBelow(kPoolSize));
    Node* n = &pool[static_cast<size_t>(i)];
    const bool in_list = std::find(model.begin(), model.end(), i) != model.end();
    switch (op) {
      case 0:
        if (!in_list) {
          l.PushBack(n);
          model.push_back(i);
        }
        break;
      case 1:
        if (!in_list) {
          l.PushFront(n);
          model.push_front(i);
        }
        break;
      case 2:
        if (in_list) {
          l.Erase(n);
          model.remove(i);
        }
        break;
      case 3: {
        Node* front = l.PopFront();
        if (model.empty()) {
          ASSERT_EQ(nullptr, front);
        } else {
          ASSERT_EQ(model.front(), front->id);
          model.pop_front();
        }
        break;
      }
    }
    ASSERT_EQ(model.size(), l.size());
    ASSERT_EQ(model.empty(), l.empty());
    // Full-order comparison every 100 steps (O(n) scans are cheap at this size).
    if (step % 100 == 0) {
      auto mit = model.begin();
      for (Node* cur : l) {
        ASSERT_NE(model.end(), mit);
        ASSERT_EQ(*mit, cur->id);
        ++mit;
      }
      ASSERT_EQ(model.end(), mit);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ListModelTest, ::testing::Values(3u, 99u, 2024u, 31337u));

// ---------------------------------------------------------------------------------------
// Protocol invariant sweep: for every (protocol, thread count) the critical-section counter
// is exact and priorities return to base afterwards.
// ---------------------------------------------------------------------------------------

class ProtocolSweepTest
    : public ::testing::TestWithParam<std::tuple<MutexProtocol, int>> {
 protected:
  void SetUp() override { pt_reinit(); }
};

TEST_P(ProtocolSweepTest, ExactCountsAndPriorityRestoration) {
  const MutexProtocol proto = std::get<0>(GetParam());
  const int nthreads = std::get<1>(GetParam());
  MutexAttr attr;
  attr.protocol = proto;
  attr.ceiling = kMaxPrio;

  struct Shared {
    pt_mutex_t m;
    long count = 0;
  };
  static Shared s;
  new (&s) Shared();
  ASSERT_EQ(0, pt_mutex_init(&s.m, &attr));

  constexpr int kIters = 40;
  auto body = +[](void*) -> void* {
    int base_before = -1;
    pt_getprio(pt_self(), &base_before);
    for (int i = 0; i < kIters; ++i) {
      EXPECT_EQ(0, pt_mutex_lock(&s.m));
      const long snapshot = s.count;
      if (i % 8 == 0) {
        pt_yield();
      }
      s.count = snapshot + 1;
      EXPECT_EQ(0, pt_mutex_unlock(&s.m));
      int prio_now = -1;
      pt_getprio(pt_self(), &prio_now);
      EXPECT_EQ(base_before, prio_now);  // no boost leaks outside critical sections
    }
    return nullptr;
  };
  std::vector<pt_thread_t> ts(static_cast<size_t>(nthreads));
  for (size_t i = 0; i < ts.size(); ++i) {
    // Spread priorities a little so protocols actually engage.
    ThreadAttr ta = MakeThreadAttr(kDefaultPrio - static_cast<int>(i % 3));
    ASSERT_EQ(0, pt_create(&ts[i], &ta, body, nullptr));
  }
  for (auto& t : ts) {
    ASSERT_EQ(0, pt_join(t, nullptr));
  }
  EXPECT_EQ(static_cast<long>(nthreads) * kIters, s.count);
  EXPECT_EQ(0, pt_mutex_destroy(&s.m));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ProtocolSweepTest,
    ::testing::Combine(::testing::Values(MutexProtocol::kNone, MutexProtocol::kInherit,
                                         MutexProtocol::kProtect),
                       ::testing::Values(2, 5, 9)));

// ---------------------------------------------------------------------------------------
// The priority rule under random steps: one thread locks and unlocks ceiling mutexes in any
// order, changes its base priority and moves the ceilings of held and unheld mutexes. After
// every step its priority must equal max(base, held ceilings).
// ---------------------------------------------------------------------------------------

class PriorityRuleTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override { pt_reinit(); }
};

TEST_P(PriorityRuleTest, PriorityIsMaxOfBaseAndHeldCeilings) {
  const uint64_t seed = GetParam();
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  Rng rng(seed);
  constexpr int kMutexes = 8;
  auto random_prio = [&] { return static_cast<int>(rng.NextBelow(kNumPrios)); };
  pt_mutex_t m[kMutexes];
  int ceiling[kMutexes];
  bool held[kMutexes] = {};
  for (int i = 0; i < kMutexes; ++i) {
    ceiling[i] = random_prio();
    const MutexAttr a = MakeCeilingMutexAttr(ceiling[i]);
    ASSERT_EQ(0, pt_mutex_init(&m[i], &a));
  }
  int base = kDefaultPrio;
  ASSERT_EQ(0, pt_setprio(pt_self(), base));

  for (int step = 0; step < 2000; ++step) {
    const int i = static_cast<int>(rng.NextBelow(kMutexes));
    switch (rng.NextBelow(4)) {
      case 0:
        if (!held[i]) {
          const int want = base > ceiling[i] ? EINVAL : 0;
          ASSERT_EQ(want, pt_mutex_lock(&m[i])) << "step " << step;
          held[i] = want == 0;
        }
        break;
      case 1:
        if (held[i]) {
          ASSERT_EQ(0, pt_mutex_unlock(&m[i])) << "step " << step;
          held[i] = false;
        }
        break;
      case 2:
        base = random_prio();
        ASSERT_EQ(0, pt_setprio(pt_self(), base)) << "step " << step;
        break;
      default:
        ceiling[i] = random_prio();
        ASSERT_EQ(0, pt_mutex_setceiling(&m[i], ceiling[i])) << "step " << step;
        break;
    }
    int want = base;
    for (int j = 0; j < kMutexes; ++j) {
      if (held[j]) {
        want = std::max(want, ceiling[j]);
      }
    }
    int prio = -1;
    ASSERT_EQ(0, pt_getprio(pt_self(), &prio));
    ASSERT_EQ(want, prio) << "step " << step;
  }
  for (int i = 0; i < kMutexes; ++i) {
    if (held[i]) {
      ASSERT_EQ(0, pt_mutex_unlock(&m[i]));
    }
    EXPECT_EQ(0, pt_mutex_destroy(&m[i]));
  }
  int prio = -1;
  ASSERT_EQ(0, pt_getprio(pt_self(), &prio));
  EXPECT_EQ(base, prio);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PriorityRuleTest, ::testing::Values(1u, 42u, 2024u, 31337u));

// ---------------------------------------------------------------------------------------
// Perverted-policy invariant sweep: a correctly synchronized counter is exact under every
// (policy, seed) combination.
// ---------------------------------------------------------------------------------------

class PervertedSweepTest
    : public ::testing::TestWithParam<std::tuple<PervertedPolicy, uint64_t>> {
 protected:
  void SetUp() override { pt_reinit(); }
  void TearDown() override { pt_set_perverted(PervertedPolicy::kNone, 0); }
};

TEST_P(PervertedSweepTest, LockedCounterExactUnderAnyInterleaving) {
  const auto [policy, seed] = GetParam();
  struct Shared {
    pt_sem_t sem;
    long count = 0;
  };
  static Shared s;
  new (&s) Shared();
  ASSERT_EQ(0, pt_sem_init(&s.sem, 1));
  pt_set_perverted(policy, seed);
  auto body = +[](void*) -> void* {
    for (int i = 0; i < 30; ++i) {
      EXPECT_EQ(0, pt_sem_wait(&s.sem));
      const long c = s.count;
      s.count = c + 1;
      EXPECT_EQ(0, pt_sem_post(&s.sem));
    }
    return nullptr;
  };
  pt_thread_t ts[5];
  for (auto& t : ts) {
    ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  }
  for (auto& t : ts) {
    ASSERT_EQ(0, pt_join(t, nullptr));
  }
  pt_set_perverted(PervertedPolicy::kNone, 0);
  EXPECT_EQ(150, s.count);
  pt_sem_destroy(&s.sem);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PervertedSweepTest,
    ::testing::Combine(::testing::Values(PervertedPolicy::kMutexSwitch,
                                         PervertedPolicy::kRrOrdered,
                                         PervertedPolicy::kRandom),
                       ::testing::Values(1u, 17u, 4096u)));

}  // namespace
}  // namespace fsup
