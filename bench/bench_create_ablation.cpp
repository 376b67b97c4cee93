// Thread-creation cost ablation (paper, "Future Work"): "The current implementation
// allocates heap space for the stack and thread control block (TCB) at creation time. This
// accounts for about 70% of the thread creation time. Thus, thread creation could be sped up
// considerably if a memory pool for TCB and stack was established."
//
// This bench measures creation with a warm pool (stack + TCB recycled, no kernel calls)
// against creation that is forced to mmap a fresh stack every time (over-sized request
// bypasses the pool), and reports the allocation share of total creation time.

#include <cstdio>

#include "src/core/attr.hpp"
#include "src/core/bench_probes.hpp"
#include "src/core/pthread.hpp"
#include "src/util/dual_loop_timer.hpp"

namespace fsup {
namespace {

void* Nop(void*) { return nullptr; }

double CreateJoinNs(const ThreadAttr& attr, int iters) {
  // Warm-up round so pooled stacks exist where applicable.
  for (int i = 0; i < 8; ++i) {
    pt_thread_t t;
    pt_create(&t, &attr, &Nop, nullptr);
    pt_join(t, nullptr);
  }
  const int64_t start = NowNs();
  for (int i = 0; i < iters; ++i) {
    pt_thread_t t;
    pt_create(&t, &attr, &Nop, nullptr);
    pt_join(t, nullptr);
  }
  return static_cast<double>(NowNs() - start) / iters;
}

double CreateOnlyNs(const ThreadAttr& attr, int batch, int batches) {
  double total = 0;
  for (int b = 0; b < batches; ++b) {
    pt_thread_t ts[64];
    const int n = batch < 64 ? batch : 64;
    const int64_t start = NowNs();
    for (int i = 0; i < n; ++i) {
      pt_create(&ts[i], &attr, &Nop, nullptr);
    }
    total += static_cast<double>(NowNs() - start);
    for (int i = 0; i < n; ++i) {
      pt_join(ts[i], nullptr);
    }
  }
  return total / (static_cast<double>(batch < 64 ? batch : 64) * batches);
}

}  // namespace
}  // namespace fsup

int main() {
  using namespace fsup;
  pt_init();

  // Pooled: default stack size, lower priority (no context switch at creation).
  ThreadAttr pooled = MakeThreadAttr(kDefaultPrio - 1, "pooled");

  // Unpooled: a size that is no power of two bypasses the pool's size classes, which forces a
  // fresh mmap + guard-page mprotect per creation and an munmap per reap — the paper's
  // "dynamic memory allocation".
  ThreadAttr unpooled = MakeThreadAttr(kDefaultPrio - 1, "mmap");
  unpooled.stack_size = kDefaultStackSize + 4096;

  CreateOnlyNs(pooled, 64, 1);  // untimed: fills the pool, so the pooled run finds it warm
  const uint64_t maps0 = probe::StackPoolMaps();
  const double pooled_create = CreateOnlyNs(pooled, 64, 40);
  const uint64_t maps1 = probe::StackPoolMaps();
  const double unpooled_create = CreateOnlyNs(unpooled, 64, 40);
  const uint64_t maps2 = probe::StackPoolMaps();

  const double alloc_share = 1.0 - pooled_create / unpooled_create;

  std::printf("Thread creation ablation (no context switch; create measured, join excluded)\n\n");
  std::printf("  %-40s %10.0f ns   (stack mmaps during run: %llu)\n",
              "pooled TCB+stack (paper's pre-cached pool)", pooled_create,
              static_cast<unsigned long long>(maps1 - maps0));
  std::printf("  %-40s %10.0f ns   (stack mmaps during run: %llu)\n",
              "fresh mmap per create (no pool)", unpooled_create,
              static_cast<unsigned long long>(maps2 - maps1));
  std::printf("\n  allocation share of unpooled creation time: %.0f%%\n", alloc_share * 100);
  std::printf("  (paper reports ~70%% of creation time spent in allocation on SunOS)\n");

  const double cj = CreateJoinNs(pooled, 2000);
  std::printf("\n  pooled create+run+join round trip: %.0f ns\n", cj);
  return 0;
}
