// Initialization-order helpers and benchmark probes that need kernel internals.

#include "src/core/bench_probes.hpp"

#include "src/hostos/unix_if.hpp"
#include "src/kernel/kernel.hpp"
#include "src/util/counters.hpp"

namespace fsup::probe {

void KernelEnterExit() { kernel::EnterExitProbe(); }

int UnixKernelEnterExit() { return hostos::RawGetpid(); }

uint64_t RasRestarts() { return counters::Get(counters::kRasRestarts); }

uint64_t StackPoolReuses() {
  uint64_t hits = 0;
  for (int cls = 0; cls < StackPool::kNumClasses; ++cls) {
    hits += counters::Get(counters::PoolClass(cls, counters::kPoolClass0Hits));
  }
  return hits;
}

uint64_t StackPoolMaps() { return counters::Get(counters::kPoolMaps); }

uint64_t StackPoolFree() { return kernel::ks().pool->pooled_stacks(); }

uint64_t StackPoolLazyCommits() { return 0; }

}  // namespace fsup::probe
