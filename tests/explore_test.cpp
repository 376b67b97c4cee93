// In-process schedule exploration (debug/explore.hpp): a planted order-dependent bug — a
// read-modify-write window that is atomic under default FIFO run-to-completion scheduling
// but loses updates when a context switch is forced inside it — must be found by the
// systematic phase and shrunk to a minimal point set by the random phase. A correct subject
// must come out clean (no false positives), and a subject that fails unperturbed has no
// schedule to blame.

#include <gtest/gtest.h>

#include "src/core/pthread.hpp"
#include "src/debug/explore.hpp"
#include "src/sched/perverted.hpp"

namespace fsup {
namespace {

class ExploreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pt_reinit();
    sched::ClearPerturb();
  }

  void TearDown() override { sched::ClearPerturb(); }
};

constexpr int kWorkers = 3;
constexpr int kIters = 4;

int g_counter = 0;

// The planted bug: the increment is split across a kernel entry (pt_testintr is a no-op
// without a pending cancel, but enters and exits the kernel), so a forced switch inside the
// window lets a sibling run its whole loop and then be overwritten by the stale store.
// Under unperturbed FIFO scheduling each worker runs to completion — the counter is exact.
void* RacyWorker(void*) {
  for (int i = 0; i < kIters; ++i) {
    const int tmp = g_counter;
    pt_testintr();
    g_counter = tmp + 1;
  }
  return nullptr;
}

void* SafeWorker(void*) {
  for (int i = 0; i < kIters; ++i) {
    pt_testintr();
    ++g_counter;  // single store per iteration: no window to split
  }
  return nullptr;
}

bool RunSubject(void* (*worker)(void*)) {
  pt_reinit();
  g_counter = 0;
  pt_thread_t t[kWorkers] = {};
  for (auto& th : t) {
    if (pt_create(&th, nullptr, worker, nullptr) != 0) {
      return false;
    }
  }
  for (auto& th : t) {
    if (pt_join(th, nullptr) != 0) {
      return false;
    }
  }
  return g_counter == kWorkers * kIters;
}

bool RacySubject(void*) { return RunSubject(RacyWorker); }
bool SafeSubject(void*) { return RunSubject(SafeWorker); }

TEST_F(ExploreTest, UnperturbedSubjectsPass) {
  ASSERT_TRUE(RacySubject(nullptr));
  ASSERT_TRUE(SafeSubject(nullptr));
}

// Counts the perturbation gates one subject run passes through (an armed-but-never-firing
// point set counts ordinals without perturbing), so the systematic window is exact rather
// than a guess about how many gates the pt_reinit preamble consumes.
uint64_t MeasureGates(bool (*subject)(void*)) {
  sched::SetPerturbPoints(nullptr, 0);
  EXPECT_TRUE(subject(nullptr));
  const uint64_t gates = sched::PerturbOrdinal();
  sched::ClearPerturb();
  return gates;
}

TEST_F(ExploreTest, SystematicPhaseFindsPlantedBugAlreadyMinimal) {
  const uint64_t gates = MeasureGates(RacySubject);
  ASSERT_GT(gates, 0u);
  debug::explore::Options opt;
  opt.window = gates;  // full coverage: every gate of the run gets its own probe
  opt.random = false;
  const debug::explore::Result r = debug::explore::Run(RacySubject, nullptr, opt);
  EXPECT_TRUE(r.failure_found);
  EXPECT_TRUE(r.reproducible);
  ASSERT_EQ(1u, r.npoints);  // a single forced switch: minimal by construction
  EXPECT_GT(r.runs, 0u);

  // The reported schedule reproduces the failure on demand.
  sched::SetPerturbPoints(r.points, r.npoints);
  EXPECT_FALSE(RacySubject(nullptr));
  sched::ClearPerturb();
  EXPECT_TRUE(RacySubject(nullptr));
}

TEST_F(ExploreTest, RandomPhaseFindsAndShrinksPlantedBug) {
  debug::explore::Options opt;
  opt.systematic = false;
  opt.seeds = 12;
  opt.permille = 60;
  const debug::explore::Result r = debug::explore::Run(RacySubject, nullptr, opt);
  EXPECT_TRUE(r.failure_found);
  ASSERT_TRUE(r.reproducible);
  EXPECT_GT(r.seed, 0u);
  ASSERT_GE(r.npoints, 1u);
  EXPECT_LE(r.npoints, 3u) << "shrink left a non-minimal schedule";

  sched::SetPerturbPoints(r.points, r.npoints);
  EXPECT_FALSE(RacySubject(nullptr));
  sched::ClearPerturb();
}

TEST_F(ExploreTest, UnperturbedFailureBlamesNoSchedule) {
  const debug::explore::Result r = debug::explore::Run(
      [](void*) { return SafeSubject(nullptr) && false; }, nullptr, debug::explore::Options{});
  EXPECT_TRUE(r.failure_found);
  EXPECT_EQ(0u, r.npoints);
  EXPECT_EQ(1u, r.runs) << "perturbed runs after an unperturbed failure";
}

TEST_F(ExploreTest, CorrectSubjectSurvivesExploration) {
  debug::explore::Options opt;
  opt.window = MeasureGates(SafeSubject);
  opt.seeds = 4;
  const debug::explore::Result r = debug::explore::Run(SafeSubject, nullptr, opt);
  EXPECT_FALSE(r.failure_found);
  EXPECT_EQ(0u, r.npoints);
}

// The subprocess runner's subject (the explore_subprocess ctest runs fsup_explore over this
// binary, arming the gate through FSUP_EXPLORE_*): passes unperturbed, fails under a forced
// switch. The correct run first puts the race past the ctest's systematic window, so the
// search goes on to the random phase, lifts the fired ordinals from the recording and
// shrinks them. No fixture — ExploreTest's SetUp would disarm the environment's gate.
TEST(ExploreSubject, DISABLED_RacyCounter) {
  EXPECT_TRUE(SafeSubject(nullptr));
  EXPECT_TRUE(RacySubject(nullptr));
}

}  // namespace
}  // namespace fsup
