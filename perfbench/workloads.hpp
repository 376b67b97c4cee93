// The benchmark's four workloads. Each is a closed loop: a client starts its next op only
// after the previous one completed. Inputs come from the seed and are generated before any
// fsup call, so the library only ever sees generated inputs.

#ifndef FSUP_PERFBENCH_WORKLOADS_HPP_
#define FSUP_PERFBENCH_WORKLOADS_HPP_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/harness.hpp"

namespace perfbench {

// Starts and stops the clients' phases (warm-up, timed window). Untraced: it is not part of
// any op.
class Gate {
 public:
  void Init(int clients);
  // Client side. Await blocks until the next phase and returns false at quit; More says
  // whether the phase wants another op after `done` ops; Done reports the phase finished.
  bool Await(uint64_t* gen);
  bool More(uint64_t done) const { return done < op_limit_ && Tsc() < deadline_; }
  void Done();
  // Main side: runs one phase to completion.
  void Run(uint64_t ops_per_client, uint64_t deadline_tsc);
  void Quit();

 private:
  pt_mutex_t m_;
  pt_cond_t go_, done_;
  uint64_t gen_ = 0;
  int clients_ = 0, active_ = 0;
  bool quit_ = false;
  uint64_t op_limit_ = 0, deadline_ = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Inputs from the seed. Called once, before pt_init.
  virtual void Generate(uint64_t seed) = 0;
  // Creates threads, fds and handlers against a freshly initialised runtime.
  virtual void Setup() = 0;
  // Stops and joins every thread and closes every fd Setup made.
  virtual void Teardown() = 0;
  // Output checks, by name. Called after the Teardown that ends the timed window.
  virtual std::vector<std::pair<std::string, bool>> Checks() = 0;
  // Total warm-up ops of one set-up.
  virtual uint64_t WarmupOps() const = 0;
  virtual int Clients() const = 0;

  Gate gate;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name);

// Self-test: plant one dropped pipeline item and one corrupted echo reply in the window.
extern bool g_plant;

}  // namespace perfbench

#endif  // FSUP_PERFBENCH_WORKLOADS_HPP_
