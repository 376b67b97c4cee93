// Reproduces the paper's Figure 5: priority-inversion timelines under (a) no protocol,
// (b) priority inheritance, (c) priority ceiling — printed from the library's event trace,
// plus the quantitative comparison Table 3 promises (blocking time of the high-priority
// thread, context-switch counts).

#include <cstdio>
#include <new>
#include <string_view>
#include <vector>

#include "src/core/attr.hpp"
#include "src/core/pthread.hpp"
#include "src/debug/trace.hpp"
#include "src/util/dual_loop_timer.hpp"

namespace fsup {
namespace {

constexpr int kLo = 5;
constexpr int kMid = 10;
constexpr int kHi = 15;

struct Scenario {
  pt_mutex_t m;
  pt_sem_t start;
  int64_t p3_contend_at = 0;  // when P3 tried to lock
  int64_t p3_acquire_at = 0;  // when P3 got the mutex
  int64_t p2_cpu_ns = 60 * 1000;  // medium thread's CPU burst between yields
  uint32_t p1_id = 0, p2_id = 0, p3_id = 0;
};

void SpinFor(int64_t ns) {
  const int64_t until = NowNs() + ns;
  while (NowNs() < until) {
  }
}

void* P1Low(void* sp) {
  auto* s = static_cast<Scenario*>(sp);
  pt_mutex_lock(&s->m);
  // t1: wake the contenders from inside the critical section.
  pt_sem_post(&s->start);
  pt_sem_post(&s->start);
  SpinFor(50 * 1000);  // the critical section itself takes 50µs of CPU
  pt_mutex_unlock(&s->m);
  return nullptr;
}

void* P2Medium(void* sp) {
  auto* s = static_cast<Scenario*>(sp);
  pt_sem_wait(&s->start);
  for (int i = 0; i < 5; ++i) {
    SpinFor(s->p2_cpu_ns);
    pt_yield();
  }
  return nullptr;
}

void* P3High(void* sp) {
  auto* s = static_cast<Scenario*>(sp);
  pt_sem_wait(&s->start);
  s->p3_contend_at = NowNs();
  pt_mutex_lock(&s->m);
  s->p3_acquire_at = NowNs();
  pt_mutex_unlock(&s->m);
  return nullptr;
}

struct Result {
  double p3_blocked_us;   // inversion duration experienced by the high-priority thread
  uint64_t ctx_switches;  // switches consumed by the whole scenario
};

Result RunScenario(const MutexAttr* attr, const char* label, bool print_timeline) {
  static Scenario s;
  new (&s) Scenario();
  if (pt_mutex_init(&s.m, attr) != 0 || pt_sem_init(&s.start, 0) != 0) {
    return {};
  }

  debug::trace::Clear();
  debug::trace::Enable(true);
  const RuntimeStats before = pt_stats();

  pt_setprio(pt_self(), kHi + 2);
  ThreadAttr a1 = MakeThreadAttr(kLo, "P1");
  ThreadAttr a2 = MakeThreadAttr(kMid, "P2");
  ThreadAttr a3 = MakeThreadAttr(kHi, "P3");
  pt_thread_t t1, t2, t3;
  pt_create(&t3, &a3, &P3High, &s);
  pt_create(&t2, &a2, &P2Medium, &s);
  pt_yield();
  pt_create(&t1, &a1, &P1Low, &s);
  s.p1_id = pt_id(t1);
  s.p2_id = pt_id(t2);
  s.p3_id = pt_id(t3);
  pt_setprio(pt_self(), kLo - 1);  // let priorities play out

  pt_join(t1, nullptr);
  pt_join(t2, nullptr);
  pt_join(t3, nullptr);
  pt_setprio(pt_self(), kDefaultPrio);
  debug::trace::Enable(false);
  const RuntimeStats after = pt_stats();

  Result r{};
  r.p3_blocked_us = static_cast<double>(s.p3_acquire_at - s.p3_contend_at) / 1000.0;
  r.ctx_switches = after.ctx_switches - before.ctx_switches;

  if (print_timeline) {
    std::printf("\n--- %s ---\n", label);
    std::printf("trace (who ran / lock events; P1=low id%u, P2=medium id%u, P3=high id%u):\n",
                s.p1_id, s.p2_id, s.p3_id);
    const std::vector<debug::trace::Record> recs = debug::trace::SnapshotAll();
    const int64_t t0 = recs.empty() ? 0 : recs.front().t_ns;
    for (const debug::trace::Record& rec : recs) {
      const char* who = rec.a == s.p1_id   ? "P1"
                        : rec.a == s.p2_id ? "P2"
                        : rec.a == s.p3_id ? "P3"
                                           : "--";
      if (rec.event == debug::trace::Event::kSwitch) {
        const char* to = rec.b == s.p1_id   ? "P1"
                         : rec.b == s.p2_id ? "P2"
                         : rec.b == s.p3_id ? "P3"
                                            : "--";
        std::printf("  %8.1fus  switch %s -> %s\n",
                    static_cast<double>(rec.t_ns - t0) / 1000.0, who, to);
      } else {
        std::printf("  %8.1fus  %-7s %s\n", static_cast<double>(rec.t_ns - t0) / 1000.0,
                    debug::trace::Name(rec.event), who);
      }
    }
  }

  pt_mutex_destroy(&s.m);
  pt_sem_destroy(&s.start);
  return r;
}

}  // namespace
}  // namespace fsup

int main(int argc, char** argv) {
  using namespace fsup;
  const bool timelines = !(argc > 1 && std::string_view(argv[1]) == "--quiet");
  pt_init();

  const MutexAttr inherit = MakeInheritMutexAttr();
  const MutexAttr ceiling = MakeCeilingMutexAttr(kHi);

  std::printf("Figure 5 — Dealing with Priority Inversion\n");
  std::printf("P1 locks (prio %d); at t1, P2 (prio %d, CPU-bound) and P3 (prio %d, contends)"
              " become ready.\n", kLo, kMid, kHi);

  const Result none = RunScenario(nullptr, "(a) no protocol", timelines);
  const Result inh = RunScenario(&inherit, "(b) priority inheritance", timelines);
  const Result ceil = RunScenario(&ceiling, "(c) priority ceiling (SRP)", timelines);

  std::printf("\nSummary (P3's blocking time = inversion experienced by the high-prio thread)\n");
  std::printf("  %-28s %14s %14s\n", "protocol", "P3 blocked[us]", "ctx switches");
  std::printf("  %-28s %14.1f %14llu\n", "(a) none", none.p3_blocked_us,
              static_cast<unsigned long long>(none.ctx_switches));
  std::printf("  %-28s %14.1f %14llu\n", "(b) inheritance", inh.p3_blocked_us,
              static_cast<unsigned long long>(inh.ctx_switches));
  std::printf("  %-28s %14.1f %14llu\n", "(c) ceiling", ceil.p3_blocked_us,
              static_cast<unsigned long long>(ceil.ctx_switches));

  std::printf("\nShape checks (paper):\n");
  std::printf("  * (a) suffers inversion: P3 blocked for ~P2's whole CPU burst + P1's CS\n");
  std::printf("  * (b),(c) bound P3's blocking to P1's critical section\n");
  std::printf("  * (c) tends to use fewer context switches than (b)\n");

  const bool inversion_shown = none.p3_blocked_us > 2.0 * inh.p3_blocked_us;
  const bool ceiling_cheap = ceil.ctx_switches <= inh.ctx_switches;
  std::printf("\nresult: inversion(a)>>inheritance(b): %s; ceiling<=inheritance switches: %s\n",
              inversion_shown ? "YES" : "NO", ceiling_cheap ? "YES" : "NO");
  return 0;
}
