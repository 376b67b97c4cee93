// Schedule-exploration runner: re-executes a test binary under perturbed schedules until one
// fails, then shrinks the failing schedule to a minimal set of forced-switch points.
//
//   fsup_explore [--window N] [--seeds N] [--permille P] [--seed0 S] [--shrink-budget N]
//                [--record-dir DIR] -- <command> [args...]
//
// The search is debug/explore.hpp's driver (same phases, shrink and defaults); this tool
// supplies its runner, in which each run is a fresh subprocess, so the subject may fail by
// crashing, aborting, or any nonzero exit — whatever gtest/asserts do on a real ordering bug.
// Perturbation is injected through the library's own environment hooks: FSUP_EXPLORE_POINTS
// (explicit gate ordinals) and FSUP_EXPLORE_SEED/FSUP_EXPLORE_PROB (seeded random firing).
// Each run also sets FSUP_RECORD so a failing random run's fired ordinals can be lifted from
// the schedule log (replay::ReadLogFile).
//
// Exit status: 0 = no failure found, 1 = failure found (minimal schedule printed),
// 2 = usage/setup error, or the subject fails without perturbation.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/debug/explore.hpp"
#include "src/debug/replay.hpp"

namespace {

namespace explore = fsup::debug::explore;
namespace replay = fsup::debug::replay;

struct Config {
  explore::Options opt;
  std::string record_dir = "/tmp";
  std::vector<char*> command;
};

std::string PointsSpec(const uint64_t* pts, size_t n) {
  std::string s;
  for (size_t i = 0; i < n; ++i) {
    if (!s.empty()) {
      s += ',';
    }
    s += std::to_string(pts[i]);
  }
  return s;
}

// Runs the subject once under p. Returns true if it PASSED (exit 0).
bool RunChild(const Config& cfg, const explore::Perturbation& p,
              const std::string& record_path) {
  const std::string points = PointsSpec(p.points.data(), p.points.size());
  const std::string seed = std::to_string(p.seed);
  const std::string prob = std::to_string(p.permille);
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fsup_explore: fork");
    std::exit(2);
  }
  if (pid == 0) {
    if (!points.empty()) {
      ::setenv("FSUP_EXPLORE_POINTS", points.c_str(), 1);
    } else {
      ::unsetenv("FSUP_EXPLORE_POINTS");
    }
    if (p.random) {
      ::setenv("FSUP_EXPLORE_SEED", seed.c_str(), 1);
      ::setenv("FSUP_EXPLORE_PROB", prob.c_str(), 1);
    } else {
      ::unsetenv("FSUP_EXPLORE_SEED");
      ::unsetenv("FSUP_EXPLORE_PROB");
    }
    ::setenv("FSUP_RECORD", record_path.c_str(), 1);
    ::execvp(cfg.command[0], cfg.command.data());
    std::perror("fsup_explore: exec");
    std::_Exit(127);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) {
    std::perror("fsup_explore: waitpid");
    std::exit(2);
  }
  if (WIFEXITED(status) && WEXITSTATUS(status) == 127) {
    std::fprintf(stderr, "fsup_explore: cannot execute %s\n", cfg.command[0]);
    std::exit(2);
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// Lifts the forced-switch ordinals out of a run's schedule log.
std::vector<uint64_t> ReadFiredPoints(const std::string& record_path) {
  size_t count = 0;
  if (replay::ReadLogFile(record_path.c_str(), nullptr, 0, &count) != 0) {
    return {};
  }
  std::vector<replay::LogRecord> log(count);
  if (replay::ReadLogFile(record_path.c_str(), log.data(), log.size(), &count) != 0) {
    return {};
  }
  return explore::FiredPoints(log.data(), log.size());
}

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: fsup_explore [--window N] [--seeds N] [--permille P] [--seed0 S]\n"
               "                    [--shrink-budget N] [--record-dir DIR] -- command...\n");
  std::exit(2);
}

uint64_t ArgU64(int argc, char** argv, int* i) {
  if (*i + 1 >= argc) {
    Usage();
  }
  return std::strtoull(argv[++*i], nullptr, 10);
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  int i = 1;
  for (; i < argc; ++i) {
    if (std::strcmp(argv[i], "--") == 0) {
      ++i;
      break;
    }
    if (std::strcmp(argv[i], "--window") == 0) {
      cfg.opt.window = ArgU64(argc, argv, &i);
    } else if (std::strcmp(argv[i], "--seeds") == 0) {
      cfg.opt.seeds = static_cast<uint32_t>(ArgU64(argc, argv, &i));
    } else if (std::strcmp(argv[i], "--permille") == 0) {
      cfg.opt.permille = static_cast<uint32_t>(ArgU64(argc, argv, &i));
    } else if (std::strcmp(argv[i], "--seed0") == 0) {
      cfg.opt.seed0 = ArgU64(argc, argv, &i);
    } else if (std::strcmp(argv[i], "--shrink-budget") == 0) {
      cfg.opt.max_shrink_runs = static_cast<uint32_t>(ArgU64(argc, argv, &i));
    } else if (std::strcmp(argv[i], "--record-dir") == 0) {
      if (i + 1 >= argc) {
        Usage();
      }
      cfg.record_dir = argv[++i];
    } else {
      Usage();
    }
  }
  for (; i < argc; ++i) {
    cfg.command.push_back(argv[i]);
  }
  if (cfg.command.empty()) {
    Usage();
  }
  cfg.command.push_back(nullptr);

  const std::string record_path =
      cfg.record_dir + "/fsup_explore." + std::to_string(::getpid()) + ".rpl";
  const explore::Result r = explore::Run(
      [&](const explore::Perturbation& p, std::vector<uint64_t>* fired) {
        const bool passed = RunChild(cfg, p, record_path);
        if (fired != nullptr) {
          *fired = ReadFiredPoints(record_path);
        }
        return passed;
      },
      cfg.opt);
  std::remove(record_path.c_str());

  if (!r.failure_found) {
    std::printf("fsup_explore: no failure in %u runs\n", r.runs);
    return 0;
  }
  if (r.npoints == 0 && r.reproducible) {
    std::fprintf(stderr, "fsup_explore: subject fails without perturbation\n");
    return 2;
  }
  if (!r.reproducible) {
    std::printf("fsup_explore: FAILURE not reproducible as points; rerun with "
                "FSUP_EXPLORE_SEED=%llu FSUP_EXPLORE_PROB=%u\n",
                static_cast<unsigned long long>(r.seed), cfg.opt.permille);
    return 1;
  }
  std::printf("fsup_explore: FAILURE found after %u runs (%u shrinking)\n", r.runs,
              r.shrink_runs);
  std::printf("fsup_explore: minimal schedule: FSUP_EXPLORE_POINTS=%s %s\n",
              PointsSpec(r.points, r.npoints).c_str(), cfg.command[0]);
  return 1;
}
