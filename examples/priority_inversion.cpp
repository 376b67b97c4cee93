// The paper's Figure 5 as a narrated demo: watch a high-priority thread get starved by a
// medium-priority one (priority inversion), then fix it with the inheritance and ceiling
// protocols — no code change in the workload, only the mutex attribute. Pass or fail is
// decided by a count, not a clock: how many of the medium thread's CPU bursts finished while
// the high thread waited for the lock (all five without a protocol, none with one). The
// blocking times are printed as narration only; a host preemption can stretch them.

#include <cstdio>
#include <new>

#include "src/core/attr.hpp"
#include "src/core/pthread.hpp"
#include "src/util/dual_loop_timer.hpp"

namespace {

using namespace fsup;

constexpr int kLo = 5, kMid = 10, kHi = 15;
constexpr int kBursts = 5;

struct Demo {
  pt_mutex_t m;
  pt_sem_t start;
  int bursts_done = 0;  // medium bursts finished so far
  int64_t p3_blocked_ns = 0;
  int p3_blocked_bursts = 0;  // medium bursts finished while the high thread waited
};

void Spin(int64_t ns) {
  const int64_t until = NowNs() + ns;
  while (NowNs() < until) {
  }
}

void* LowHolder(void* dp) {
  auto* d = static_cast<Demo*>(dp);
  pt_mutex_lock(&d->m);
  pt_sem_post(&d->start);  // t1: both rivals become ready
  pt_sem_post(&d->start);
  Spin(100 * 1000);  // 100us critical section
  pt_mutex_unlock(&d->m);
  return nullptr;
}

void* MediumHog(void* dp) {
  auto* d = static_cast<Demo*>(dp);
  pt_sem_wait(&d->start);
  for (int i = 0; i < kBursts; ++i) {
    Spin(200 * 1000);  // 1ms of medium-priority CPU burn in all
    ++d->bursts_done;
    pt_yield();
  }
  return nullptr;
}

void* HighContender(void* dp) {
  auto* d = static_cast<Demo*>(dp);
  pt_sem_wait(&d->start);
  const int bursts0 = d->bursts_done;
  const int64_t t0 = NowNs();
  pt_mutex_lock(&d->m);
  d->p3_blocked_ns = NowNs() - t0;
  d->p3_blocked_bursts = d->bursts_done - bursts0;
  pt_mutex_unlock(&d->m);
  return nullptr;
}

struct Blocking {
  double us;
  int bursts;
};

Blocking RunOnce(const MutexAttr* attr) {
  static Demo d;
  new (&d) Demo();
  pt_mutex_init(&d.m, attr);
  pt_sem_init(&d.start, 0);

  pt_setprio(pt_self(), kHi + 2);
  ThreadAttr a1 = MakeThreadAttr(kLo, "low");
  ThreadAttr a2 = MakeThreadAttr(kMid, "medium");
  ThreadAttr a3 = MakeThreadAttr(kHi, "high");
  pt_thread_t t1, t2, t3;
  pt_create(&t3, &a3, &HighContender, &d);
  pt_create(&t2, &a2, &MediumHog, &d);
  pt_yield();
  pt_create(&t1, &a1, &LowHolder, &d);
  pt_setprio(pt_self(), kLo - 1);
  pt_join(t1, nullptr);
  pt_join(t2, nullptr);
  pt_join(t3, nullptr);
  pt_setprio(pt_self(), kDefaultPrio);
  pt_mutex_destroy(&d.m);
  pt_sem_destroy(&d.start);
  return {static_cast<double>(d.p3_blocked_ns) / 1000.0, d.p3_blocked_bursts};
}

}  // namespace

int main() {
  pt_init();
  std::printf("Priority inversion demo (paper Figure 5)\n");
  std::printf("a low-priority thread holds a lock the high-priority thread needs, while a\n");
  std::printf("medium-priority CPU hog keeps the low one off the processor.\n\n");

  const Blocking none = RunOnce(nullptr);
  std::printf("  plain mutex:             high thread blocked %8.0f us, %d medium bursts"
              "  <-- inversion! (expected %d)\n",
              none.us, none.bursts, kBursts);

  const MutexAttr inherit = MakeInheritMutexAttr();
  const Blocking inh = RunOnce(&inherit);
  std::printf("  priority inheritance:    high thread blocked %8.0f us, %d medium bursts"
              " (expected 0)\n",
              inh.us, inh.bursts);

  const MutexAttr ceiling = MakeCeilingMutexAttr(kHi);
  const Blocking ceil = RunOnce(&ceiling);
  std::printf("  priority ceiling (SRP):  high thread blocked %8.0f us, %d medium bursts"
              " (expected 0)\n",
              ceil.us, ceil.bursts);

  std::printf("\nwith a protocol, blocking is bounded by the critical section (~100us);\n");
  std::printf("without one it extends across the medium thread's entire CPU burst.\n");
  return none.bursts == kBursts && inh.bursts == 0 && ceil.bursts == 0 ? 0 : 1;
}
