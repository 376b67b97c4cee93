// Low-level probes for the benchmark harness and tests: the Table 2 rows that measure the
// library's own mechanics ("enter and exit Pthreads kernel", "enter and exit UNIX kernel")
// and the observability counters that validate the paper's claims about syscall frugality.

#ifndef FSUP_SRC_CORE_BENCH_PROBES_HPP_
#define FSUP_SRC_CORE_BENCH_PROBES_HPP_

#include <cstdint>

namespace fsup::probe {

// One enter + exit of the Pthreads kernel (the monitor's fast path). Table 2 row 1.
void KernelEnterExit();

// One raw getpid(2) syscall, uncached. Table 2 row 2's "enter and exit UNIX kernel".
int UnixKernelEnterExit();

// Reads of the counter registry (util/counters.hpp) for the benchmark harness, which keeps
// these names: restartable-atomic-sequence rewinds, stack-pool reuses (the per-class hits
// summed) vs fresh mmaps (the paper's 70%-of-creation-time claim). Host-call counts are
// hostos::CallCount.
uint64_t RasRestarts();
uint64_t StackPoolReuses();
uint64_t StackPoolMaps();
// Always 0: every stack is committed when it is mapped. Kept because the harness reads it.
uint64_t StackPoolLazyCommits();

// Stacks parked on the pool's free lists (a gauge, not a counter).
uint64_t StackPoolFree();

}  // namespace fsup::probe

#endif  // FSUP_SRC_CORE_BENCH_PROBES_HPP_
