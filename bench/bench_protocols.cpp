// Table 3 / Table 4 quantified: per-protocol lock/unlock cost as a function of the number of
// held mutexes (the inheritance unlock's linear search vs the ceiling protocol's per-level
// ceiling counts), plus the Table 4 mixed-protocol script replayed with priorities printed per
// step.

#include <cstdio>
#include <vector>

#include "src/core/attr.hpp"
#include "src/core/pthread.hpp"
#include "src/util/dual_loop_timer.hpp"

namespace fsup {
namespace {

// Cost of lock+unlock of ONE mutex of the given protocol while `held` other mutexes of the
// same protocol stay locked — exposes the unlock-time linear search of the inheritance
// protocol (Table 3: "Implementation: linear search of locked mutexes (unlock)" vs
// "push/pop of ceiling values (stack)" — here a count per ceiling level with an occupancy
// mask, whose top is one instruction in any unlock order).
double LockUnlockNs(MutexProtocol proto, int held) {
  MutexAttr attr;
  attr.protocol = proto;
  attr.ceiling = kMaxPrio;
  std::vector<pt_mutex_t> background(static_cast<size_t>(held));
  for (auto& m : background) {
    if (pt_mutex_init(&m, &attr) != 0 || pt_mutex_lock(&m) != 0) {
      return -1;
    }
  }
  pt_mutex_t probe;
  pt_mutex_init(&probe, &attr);

  DualLoopTimer t(200'000, 5);
  const double ns = t.MeasureNs([&] {
    pt_mutex_lock(&probe);
    pt_mutex_unlock(&probe);
  });

  pt_mutex_destroy(&probe);
  for (auto it = background.rbegin(); it != background.rend(); ++it) {
    pt_mutex_unlock(&*it);
    pt_mutex_destroy(&*it);
  }
  return ns;
}

const char* ProtoName(MutexProtocol p) {
  switch (p) {
    case MutexProtocol::kNone:
      return "none (test-and-set)";
    case MutexProtocol::kInherit:
      return "inheritance";
    case MutexProtocol::kProtect:
      return "ceiling (SRP)";
  }
  return "?";
}

void Table4Mixing() {
  std::printf("\nTable 4 — Mixing Inheritance and Ceiling Protocol (replayed)\n");
  std::printf("  # action        prio   (expected Pi column: 0 1 2 2 0)\n");

  pt_mutex_t inht, ceil;
  const MutexAttr ia = MakeInheritMutexAttr();
  const MutexAttr ca = MakeCeilingMutexAttr(1);
  pt_mutex_init(&inht, &ia);
  pt_mutex_init(&ceil, &ca);

  struct Shared {
    pt_mutex_t* inht;
    pt_thread_t contender = nullptr;
  };
  static Shared s{&inht};
  static pt_mutex_t* ceil_p;
  ceil_p = &ceil;

  auto low_body = +[](void*) -> void* {
    int p;
    pt_mutex_lock(s.inht);
    pt_getprio(pt_self(), &p);
    std::printf("  1 lock(inht)    %d\n", p);
    pt_mutex_lock(ceil_p);
    pt_getprio(pt_self(), &p);
    std::printf("  2 lock(ceil)    %d\n", p);
    ThreadAttr high = MakeThreadAttr(2, "P2");
    auto contender = +[](void*) -> void* {
      pt_mutex_lock(s.inht);
      pt_mutex_unlock(s.inht);
      return nullptr;
    };
    pt_create(&s.contender, &high, contender, nullptr);
    pt_getprio(pt_self(), &p);
    std::printf("  3 (contention)  %d\n", p);
    pt_mutex_unlock(ceil_p);
    pt_getprio(pt_self(), &p);
    std::printf("  4 unlock(ceil)  %d   <- divergence point: stays boosted (linear search)\n",
                p);
    pt_mutex_unlock(s.inht);
    pt_getprio(pt_self(), &p);
    std::printf("  5 unlock(inht)  %d\n", p);
    return nullptr;
  };

  pt_setprio(pt_self(), 4);
  ThreadAttr low = MakeThreadAttr(0, "P0");
  pt_thread_t tl;
  pt_create(&tl, &low, low_body, nullptr);
  pt_join(tl, nullptr);
  pt_join(s.contender, nullptr);
  pt_setprio(pt_self(), kDefaultPrio);
  pt_mutex_destroy(&ceil);
  pt_mutex_destroy(&inht);
}

}  // namespace
}  // namespace fsup

int main() {
  using namespace fsup;
  pt_init();

  std::printf("Table 3 — Properties of Synchronization Protocols, quantified\n");
  std::printf("uncontended lock+unlock [ns] vs number of other mutexes already held\n\n");
  std::printf("  %-22s", "protocol \\ held");
  const int held_counts[] = {0, 1, 4, 16, 64};
  for (int h : held_counts) {
    std::printf(" %8d", h);
  }
  std::printf("\n");

  for (MutexProtocol p :
       {MutexProtocol::kNone, MutexProtocol::kInherit, MutexProtocol::kProtect}) {
    std::printf("  %-22s", ProtoName(p));
    for (int h : held_counts) {
      std::printf(" %8.1f", LockUnlockNs(p, h));
    }
    std::printf("\n");
  }

  std::printf("\nShape checks (paper Table 3):\n");
  std::printf("  * 'none' is the cheapest (pure test-and-set fast path, no kernel)\n");
  std::printf("  * inheritance cost grows with held mutexes (linear unlock search)\n");
  std::printf("  * ceiling cost is flat in held mutexes (per-level ceiling counts)\n");

  Table4Mixing();
  return 0;
}
