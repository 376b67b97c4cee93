// Systematic schedule exploration (paper, "Perverted Scheduling", taken to its endpoint).
//
// The exploration gate in sched/perverted.hpp can force a context switch at any kernel exit,
// and every kernel exit is numbered by a run-local ordinal — so a schedule perturbation is
// just a set of ordinals, and the firing set of a seeded random run is a pure function of
// (seed, ordinal). This driver leans on that determinism:
//
//   0. one unperturbed run — a subject that fails on its own has no schedule to blame.
//   1. systematic phase — one run per gate ordinal in [0, window), forcing a single switch at
//      that ordinal. Single-point failures come out already minimal.
//   2. random phase — seeded runs firing at ~permille/1000 of the gates. A failing run's fired
//      ordinals are lifted from its recording and re-verified as an explicit point set.
//   3. shrink — singles first (each fired ordinal alone), then greedy deletion, re-running the
//      subject each time, until the failing point set is minimal under the run budget.
//
// The driver is one search over a runner that executes the subject once. Two runners exist:
// the in-process one below, for a self-resetting subject function that returns pass/fail
// without aborting (tests), and tools/fsup_explore's fork/exec runner, which wraps whole
// binaries where a failure may well be a crash.

#ifndef FSUP_SRC_DEBUG_EXPLORE_HPP_
#define FSUP_SRC_DEBUG_EXPLORE_HPP_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/debug/replay.hpp"
#include "src/sched/perverted.hpp"

namespace fsup::debug::explore {

struct Options {
  uint64_t window = 32;     // systematic phase: try single switches at ordinals [0, window)
  uint32_t seeds = 8;       // random phase: number of seeds to try
  uint64_t seed0 = 1;       // first seed; run i uses seed0 + i
  uint32_t permille = 30;   // random phase: per-gate firing probability (out of 1000)
  bool systematic = true;
  bool random = true;
  uint32_t max_shrink_runs = 128;  // budget for the greedy-deletion shrink
};

struct Result {
  bool failure_found = false;
  bool reproducible = false;  // the failing schedule re-fails as an explicit point set
  uint64_t seed = 0;          // failing seed when the random phase found it (else 0)
  uint64_t points[sched::kMaxPoints];  // minimal failing forced-switch ordinals, ascending;
  size_t npoints = 0;                  // none when the subject fails unperturbed
  uint32_t runs = 0;         // subject executions, total
  uint32_t shrink_runs = 0;  // of which spent shrinking
};

// One subject run's perturbation: the seeded coin (random) or exactly `points` (empty: an
// unperturbed run).
struct Perturbation {
  bool random = false;
  uint64_t seed = 0;
  uint32_t permille = 0;
  std::vector<uint64_t> points;
};

// Runs the subject once under p; returns true if it PASSED. When fired is non-null, stores
// the gate ordinals where the run forced a switch.
using Runner = std::function<bool(const Perturbation& p, std::vector<uint64_t>* fired)>;

// Explores schedules through run until a failure is found (then shrunk) or the budget is spent.
Result Run(const Runner& run, const Options& opt);

// The forced-switch ordinals of a recorded run (its kForced records, in order).
std::vector<uint64_t> FiredPoints(const replay::LogRecord* log, size_t n);

// The in-process subject: returns true if the run PASSED. Must reset its own state between
// calls.
using TestFn = bool (*)(void* arg);

// Run with the in-process runner: each run arms the gate, records fn(arg), and lifts the fired
// ordinals from the in-memory log. Leaves the perturbation gate cleared.
Result Run(TestFn fn, void* arg, const Options& opt);

}  // namespace fsup::debug::explore

#endif  // FSUP_SRC_DEBUG_EXPLORE_HPP_
