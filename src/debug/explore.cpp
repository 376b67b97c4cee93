#include "src/debug/explore.hpp"

namespace fsup::debug::explore {
namespace {

bool RunWithPoints(const Runner& run, Result* res, std::vector<uint64_t> pts) {
  ++res->runs;
  Perturbation p;
  p.points = std::move(pts);
  return run(p, nullptr);
}

void Report(Result* res, const std::vector<uint64_t>& pts) {
  res->npoints = pts.size() < sched::kMaxPoints ? pts.size() : sched::kMaxPoints;
  for (size_t i = 0; i < res->npoints; ++i) {
    res->points[i] = pts[i];
  }
}

// Minimizes a reproducing point set: singles first (a one-point repro is the common case for
// a lost-update window and ends the search immediately), then greedy deletion.
void Shrink(const Runner& run, const Options& opt, Result* res, std::vector<uint64_t> pts) {
  uint32_t budget = opt.max_shrink_runs;
  const uint32_t runs_before = res->runs;

  if (pts.size() > 1) {
    for (uint64_t p : pts) {
      if (budget == 0) {
        break;
      }
      --budget;
      if (!RunWithPoints(run, res, {p})) {
        res->shrink_runs = res->runs - runs_before;
        Report(res, {p});
        return;
      }
    }
  }

  for (size_t i = 0; i < pts.size() && pts.size() > 1;) {
    if (budget == 0) {
      break;
    }
    --budget;
    std::vector<uint64_t> without(pts);
    without.erase(without.begin() + static_cast<long>(i));
    if (!RunWithPoints(run, res, without)) {
      pts = std::move(without);  // the deleted point was not needed; retry the same index
    } else {
      ++i;  // needed, keep it
    }
  }

  res->shrink_runs = res->runs - runs_before;
  Report(res, pts);
}

}  // namespace

Result Run(const Runner& run, const Options& opt) {
  Result res;

  if (!RunWithPoints(run, &res, {})) {
    res.failure_found = true;  // fails unperturbed: no schedule to blame, no points
    res.reproducible = true;
    return res;
  }

  if (opt.systematic) {
    for (uint64_t ord = 0; ord < opt.window; ++ord) {
      if (!RunWithPoints(run, &res, {ord})) {
        res.failure_found = true;
        res.reproducible = true;
        Report(&res, {ord});  // a single forced switch is already minimal
        return res;
      }
    }
  }

  if (opt.random) {
    std::vector<uint64_t> fired;
    for (uint32_t i = 0; i < opt.seeds; ++i) {
      Perturbation p;
      p.random = true;
      p.seed = opt.seed0 + i;
      p.permille = opt.permille;
      ++res.runs;
      if (run(p, &fired)) {
        continue;
      }
      res.failure_found = true;
      res.seed = p.seed;
      // Re-verify as an explicit point set: firing is a pure function of (seed, ordinal), so
      // this reproduces unless the point list overflowed its capacity.
      if (!fired.empty() && fired.size() <= sched::kMaxPoints &&
          !RunWithPoints(run, &res, fired)) {
        res.reproducible = true;
        Shrink(run, opt, &res, fired);
      } else {
        Report(&res, fired);  // unshrunk: rerun with the seed to reproduce
      }
      return res;
    }
  }

  return res;
}

std::vector<uint64_t> FiredPoints(const replay::LogRecord* log, size_t n) {
  std::vector<uint64_t> fired;
  for (size_t i = 0; i < n; ++i) {
    if (log[i].kind == replay::Decision::kForced) {
      fired.push_back(log[i].a);
    }
  }
  return fired;
}

Result Run(TestFn fn, void* arg, const Options& opt) {
  const Result res = Run(
      [fn, arg](const Perturbation& p, std::vector<uint64_t>* fired) {
        if (p.random) {
          sched::SetPerturbRandom(p.seed, p.permille);
        } else {
          sched::SetPerturbPoints(p.points.data(), p.points.size());
        }
        replay::StartRecording();
        const bool passed = fn(arg);
        const size_t n = replay::StopRecording();
        if (fired != nullptr) {
          std::vector<replay::LogRecord> log(n);
          replay::CopyLog(log.data(), log.size());
          *fired = FiredPoints(log.data(), log.size());
        }
        return passed;
      },
      opt);
  sched::ClearPerturb();
  return res;
}

}  // namespace fsup::debug::explore
