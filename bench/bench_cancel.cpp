// Table 1 quantified: cancellation latency per interruptibility state — from pt_cancel to
// the completed exit of the target (joined), for each row of the paper's action table — and
// the cost of the cleanup handlers a cancelled thread runs: one push/pop pair.

#include <cstdio>

#include "src/core/pthread.hpp"
#include "src/util/dual_loop_timer.hpp"

namespace fsup {
namespace {

// Row 3: asynchronous — target spins, acted upon immediately.
void* AsyncVictim(void*) {
  pt_setintrtype(true);
  for (;;) {
    pt_yield();
  }
}

// Row 2: controlled — target spins and polls pt_testintr (interruption point reached fast).
void* ControlledVictim(void*) {
  for (;;) {
    pt_testintr();
    pt_yield();
  }
}

// Row 2 variant: controlled, suspended at an interruption point (cond-style via delay).
void* SleepingVictim(void*) {
  pt_delay(3600LL * 1000 * 1000 * 1000);
  return nullptr;
}

// Row 1: disabled — pends; victim enables after being poked.
struct DisabledState {
  volatile bool poked = false;
};

void* DisabledVictim(void* sp) {
  auto* s = static_cast<DisabledState*>(sp);
  pt_setintr(false);
  while (!s->poked) {
    pt_yield();
  }
  pt_setintr(true);  // pending cancel still needs an interruption point (controlled)
  for (;;) {
    pt_testintr();
    pt_yield();
  }
}

double CancelJoinUs(void* (*victim)(void*), void* arg, bool poke, DisabledState* s,
                    int iters) {
  double total = 0;
  for (int i = 0; i < iters; ++i) {
    if (s != nullptr) {
      s->poked = false;
    }
    pt_thread_t t;
    pt_create(&t, nullptr, victim, arg);
    pt_yield();  // let the victim reach its steady state
    const int64_t start = NowNs();
    pt_cancel(t);
    if (poke && s != nullptr) {
      s->poked = true;
    }
    void* ret = nullptr;
    pt_join(t, &ret);
    total += static_cast<double>(NowNs() - start);
    if (ret != kCanceled) {
      return -1;
    }
  }
  return total / iters / 1000.0;
}

}  // namespace
}  // namespace fsup

int main() {
  using namespace fsup;
  pt_init();
  constexpr int kIters = 2000;
  static DisabledState ds;

  std::printf("Table 1 quantified — cancellation latency (pt_cancel .. target reaped) [us]\n\n");
  std::printf("  %-46s %10s\n", "interruptibility state of the target", "latency");
  std::printf("  %-46s %10.2f\n", "enabled/asynchronous (acted immediately)",
              CancelJoinUs(&AsyncVictim, nullptr, false, nullptr, kIters));
  std::printf("  %-46s %10.2f\n", "enabled/controlled (polling pt_testintr)",
              CancelJoinUs(&ControlledVictim, nullptr, false, nullptr, kIters));
  std::printf("  %-46s %10.2f\n", "enabled/controlled, suspended at a point",
              CancelJoinUs(&SleepingVictim, nullptr, false, nullptr, kIters));
  std::printf("  %-46s %10.2f\n", "disabled (pends until re-enabled)",
              CancelJoinUs(&DisabledVictim, &ds, true, &ds, kIters));

  // Dual-loop timed, warm: the node comes from the recycled-node list, not the heap.
  DualLoopTimer timer;
  const double cleanup_ns = timer.MeasureNs([] {
    pt_cleanup_push(+[](void*) {}, nullptr);
    pt_cleanup_pop(true);
  });
  std::printf("\n  %-46s %10.1f ns\n", "cleanup push + pop(execute), no-op handler",
              cleanup_ns);

  std::printf("\nShape checks (paper Table 1):\n");
  std::printf("  * asynchronous is the fastest (fake call to pthread_exit, no cooperation)\n");
  std::printf("  * controlled adds the wait for the next interruption point\n");
  std::printf("  * a suspended target is cancelled in place (woken through the fake call)\n");
  std::printf("  * disabled pends arbitrarily long — bounded here only by the poke\n");
  return 0;
}
