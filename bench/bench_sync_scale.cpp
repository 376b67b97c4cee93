// Sync-layer scaling: O(1) priority wait queues and broadcast-requeue (ISSUE 5), plus the
// uncontended fast path (ISSUE 9).
//
// Four sections, the first three swept over waiter/queue-depth counts:
//
//  1. Broadcast drain: N waiters on one condition variable, one broadcast, join the drain.
//     The requeue discipline wakes one thread and splices the rest onto the mutex queue, so
//     context switches per waiter stay ~1 and flat in N (the herd wakeup paid ~2: wake,
//     re-block on the mutex, wake again).
//  2. Contended lock/unlock throughput vs queue depth: N-2 filler threads park on the mutex
//     at a lower priority while two hot threads rotate it between them, so every cycle
//     enqueues into and pops from a queue held ~N-1 deep without rotating N distinct stacks
//     through the cache (that would measure the workload's memory footprint, not the
//     queue). O(1) bucket operations keep ops/sec flat in the depth; a linear wait list
//     would put the parked crowd on the path of every operation.
//  3. Boost-chain propagation: a chain of C inheritance mutexes (owner of m[i] blocked on
//     m[i+1]) with W filler waiters stuffed onto every mutex. Releasing successively
//     higher-priority lockers onto m[0] drives BoostChain through all C links; each link
//     repositions a boosted owner inside a W-deep wait queue — O(1) per link now,
//     O(W) per link with the sorted list.
//  4. Uncontended lock/unlock: one thread, one free mutex, pt_mutex_lock + pt_mutex_unlock
//     per iteration on the fast path and on the kernel path (FSUP_FASTPATH=0) against a
//     bare-atomic baseline (one xchgb acquire + one release store — the cheapest possible
//     lock cycle with no validation, no owner record, no API). Acceptance: the ras pair
//     costs <= ~2x the bare pair.
//
// Usage: bench_sync_scale [--smoke] [--json PATH]. Writes BENCH_sync.json unless --json
// names another file; --smoke shrinks every dimension for the ctest smoke run.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench/bench_args.hpp"
#include "src/arch/ras.hpp"
#include "src/core/attr.hpp"
#include "src/core/pthread.hpp"
#include "src/sync/fastpath.hpp"
#include "src/util/dual_loop_timer.hpp"

namespace fsup {
namespace {

constexpr int kMaxThreads = 4096;

ThreadAttr SmallStackAttr(int priority) {
  ThreadAttr a = MakeThreadAttr(priority);
  a.stack_size = 32 * 1024;  // shallow bodies; keep 4096 stacks affordable
  return a;
}

// ---------------------------------------------------------------------------------------
// Section 1: broadcast drain.
// ---------------------------------------------------------------------------------------

struct BroadcastRow {
  int n = 0;
  double broadcast_us = 0;       // the pt_cond_broadcast call itself
  double drain_ms = 0;           // broadcast until every waiter returned
  uint64_t ctx_switches = 0;     // across the drain
  double switches_per_waiter = 0;
  bool valid = false;
};

struct BroadcastShared {
  pt_mutex_t m;
  pt_cond_t c;
  bool go = false;
};
BroadcastShared g_bc;

void* BroadcastWaiter(void*) {
  pt_mutex_lock(&g_bc.m);
  while (!g_bc.go) {
    pt_cond_wait(&g_bc.c, &g_bc.m);
  }
  pt_mutex_unlock(&g_bc.m);
  return nullptr;
}

BroadcastRow RunBroadcast(int n) {
  BroadcastRow row;
  row.n = n;
  pt_reinit();
  g_bc.go = false;  // the sync objects themselves are placement-new'd by their init calls
  if (pt_mutex_init(&g_bc.m) != 0 || pt_cond_init(&g_bc.c) != 0) {
    return row;
  }
  static pt_thread_t th[kMaxThreads];
  ThreadAttr attr = SmallStackAttr(-1);
  for (int i = 0; i < n; ++i) {
    if (pt_create(&th[i], &attr, &BroadcastWaiter, nullptr) != 0) {
      std::fprintf(stderr, "bench_sync: pt_create failed at %d\n", i);
      return row;
    }
  }
  pt_yield();  // every waiter runs and blocks on the cond

  pt_mutex_lock(&g_bc.m);
  g_bc.go = true;
  const uint64_t sw0 = pt_stats().ctx_switches;
  const int64_t t0 = NowNs();
  pt_cond_broadcast(&g_bc.c);
  const int64_t t1 = NowNs();
  pt_mutex_unlock(&g_bc.m);
  for (int i = 0; i < n; ++i) {
    pt_join(th[i], nullptr);
  }
  const int64_t t2 = NowNs();
  const uint64_t sw1 = pt_stats().ctx_switches;

  row.broadcast_us = static_cast<double>(t1 - t0) / 1e3;
  row.drain_ms = static_cast<double>(t2 - t0) / 1e6;
  row.ctx_switches = sw1 - sw0;
  row.switches_per_waiter = static_cast<double>(row.ctx_switches) / n;
  row.valid = true;
  pt_mutex_destroy(&g_bc.m);
  pt_cond_destroy(&g_bc.c);
  return row;
}

// ---------------------------------------------------------------------------------------
// Section 2: contended lock/unlock throughput at a held queue depth.
// ---------------------------------------------------------------------------------------

struct ContendedRow {
  int n = 0;
  uint64_t ops = 0;
  double elapsed_s = 0;
  double ops_per_sec = 0;
  bool valid = false;
};

struct ContendedShared {
  pt_mutex_t m;
  int iters = 0;
};
ContendedShared g_ct;

// Parks on the mutex until the hot threads are done (they outrank it for every handoff).
void* ContendedFiller(void*) {
  pt_mutex_lock(&g_ct.m);
  pt_mutex_unlock(&g_ct.m);
  return nullptr;
}

void* ContendedHot(void*) {
  for (int k = 0; k < g_ct.iters; ++k) {
    pt_mutex_lock(&g_ct.m);
    pt_yield();  // hold across the yield so the peer re-blocks: the queue never drains
    pt_mutex_unlock(&g_ct.m);
  }
  return nullptr;
}

ContendedRow RunContended(int n, int total_ops) {
  ContendedRow row;
  row.n = n;
  pt_reinit();
  if (pt_mutex_init(&g_ct.m) != 0) {
    return row;
  }
  g_ct.iters = total_ops / 2;
  static pt_thread_t fillers[kMaxThreads];
  pt_thread_t hot[2];
  ThreadAttr fill_attr = SmallStackAttr(kDefaultPrio);
  ThreadAttr hot_attr = SmallStackAttr(kDefaultPrio + 1);

  pt_mutex_lock(&g_ct.m);  // everyone parks until the measurement starts
  const int nfill = n - 2;
  for (int i = 0; i < nfill; ++i) {
    if (pt_create(&fillers[i], &fill_attr, &ContendedFiller, nullptr) != 0) {
      std::fprintf(stderr, "bench_sync: pt_create failed at %d\n", i);
      return row;
    }
  }
  pt_yield();  // fillers block on the held mutex: queue depth ~n
  for (int i = 0; i < 2; ++i) {
    if (pt_create(&hot[i], &hot_attr, &ContendedHot, nullptr) != 0) {
      std::fprintf(stderr, "bench_sync: hot create failed\n");
      return row;
    }
  }
  const int64_t t0 = NowNs();
  pt_mutex_unlock(&g_ct.m);  // handoff to a hot thread; the pair rotates above the crowd
  pt_join(hot[0], nullptr);
  pt_join(hot[1], nullptr);
  const int64_t t1 = NowNs();
  for (int i = 0; i < nfill; ++i) {
    pt_join(fillers[i], nullptr);
  }
  row.ops = 2 * static_cast<uint64_t>(g_ct.iters);
  row.elapsed_s = static_cast<double>(t1 - t0) / 1e9;
  row.ops_per_sec = row.elapsed_s > 0 ? static_cast<double>(row.ops) / row.elapsed_s : 0;
  row.valid = true;
  pt_mutex_destroy(&g_ct.m);
  return row;
}

// ---------------------------------------------------------------------------------------
// Section 3: boost-chain propagation through stuffed wait queues.
// ---------------------------------------------------------------------------------------

struct BoostResult {
  int chain = 0;
  int fillers_per_mutex = 0;
  int boosts = 0;        // trigger releases
  int link_boosts = 0;   // boosts x chain links walked each time
  double total_us = 0;
  double ns_per_link = 0;
  bool valid = false;
};

constexpr int kMaxChain = 16;
constexpr int kMaxTriggers = 15;

struct BoostShared {
  pt_mutex_t chain[kMaxChain];
  pt_mutex_t anchor;
  pt_sem_t trigger_gate[kMaxTriggers];
  int chain_len = 0;
};
BoostShared g_boost;

// Owner i holds chain[i] and blocks on chain[i+1] (the last one on the anchor): the classic
// inheritance chain, every link carrying a full wait queue of fillers.
void* ChainOwner(void* ap) {
  const int i = static_cast<int>(reinterpret_cast<intptr_t>(ap));
  pt_mutex_lock(&g_boost.chain[i]);
  if (i + 1 < g_boost.chain_len) {
    pt_mutex_lock(&g_boost.chain[i + 1]);
    pt_mutex_unlock(&g_boost.chain[i + 1]);
  } else {
    pt_mutex_lock(&g_boost.anchor);
    pt_mutex_unlock(&g_boost.anchor);
  }
  pt_mutex_unlock(&g_boost.chain[i]);
  return nullptr;
}

void* Filler(void* ap) {
  const int i = static_cast<int>(reinterpret_cast<intptr_t>(ap));
  pt_mutex_lock(&g_boost.chain[i]);
  pt_mutex_unlock(&g_boost.chain[i]);
  return nullptr;
}

// Parked until the driver opens its gate, then locks the chain head. Each trigger runs at a
// higher priority than the last, so its lock boosts every owner down the chain by one level
// (BoostChain: one wait-queue reposition per link).
void* Trigger(void* ap) {
  const int i = static_cast<int>(reinterpret_cast<intptr_t>(ap));
  pt_sem_wait(&g_boost.trigger_gate[i]);
  pt_mutex_lock(&g_boost.chain[0]);
  pt_mutex_unlock(&g_boost.chain[0]);
  return nullptr;
}

BoostResult RunBoostChain(int chain_len, int fillers, int triggers) {
  BoostResult res;
  res.chain = chain_len;
  res.fillers_per_mutex = fillers;
  res.boosts = triggers;
  pt_reinit();
  g_boost.chain_len = chain_len;

  MutexAttr inherit;
  inherit.protocol = MutexProtocol::kInherit;
  for (int i = 0; i < chain_len; ++i) {
    if (pt_mutex_init(&g_boost.chain[i], &inherit) != 0) {
      return res;
    }
  }
  pt_mutex_init(&g_boost.anchor);
  for (int i = 0; i < triggers; ++i) {
    pt_sem_init(&g_boost.trigger_gate[i], 0);
  }

  pt_mutex_lock(&g_boost.anchor);  // parks the chain tail until teardown

  static pt_thread_t owners[kMaxChain];
  static pt_thread_t fill[kMaxChain * 256];
  static pt_thread_t trig[kMaxTriggers];
  ThreadAttr owner_attr = SmallStackAttr(kDefaultPrio + 1);
  ThreadAttr fill_attr = SmallStackAttr(kDefaultPrio);
  int nfill = 0;
  // Build back to front so each owner's onward lock finds its target already held.
  for (int i = chain_len - 1; i >= 0; --i) {
    if (pt_create(&owners[i], &owner_attr, &ChainOwner,
                  reinterpret_cast<void*>(static_cast<intptr_t>(i))) != 0) {
      std::fprintf(stderr, "bench_sync: owner create failed\n");
      return res;
    }
    for (int w = 0; w < fillers; ++w) {
      if (pt_create(&fill[nfill++], &fill_attr, &Filler,
                    reinterpret_cast<void*>(static_cast<intptr_t>(i))) != 0) {
        std::fprintf(stderr, "bench_sync: filler create failed\n");
        return res;
      }
    }
  }
  pt_yield();  // everyone blocks: owners on the chain, fillers on their mutexes

  for (int i = 0; i < triggers; ++i) {
    ThreadAttr t_attr = SmallStackAttr(kDefaultPrio + 2 + i);
    if (pt_create(&trig[i], &t_attr, &Trigger,
                  reinterpret_cast<void*>(static_cast<intptr_t>(i))) != 0) {
      std::fprintf(stderr, "bench_sync: trigger create failed\n");
      return res;
    }
  }
  pt_yield();  // triggers park on their gates

  // Measured region: each gate release runs one full-chain boost (the trigger preempts,
  // locks chain[0], BoostChain walks and repositions all the owners, the trigger suspends).
  const int64_t t0 = NowNs();
  for (int i = 0; i < triggers; ++i) {
    pt_sem_post(&g_boost.trigger_gate[i]);
  }
  const int64_t t1 = NowNs();

  pt_mutex_unlock(&g_boost.anchor);  // unwind the chain
  for (int i = 0; i < chain_len; ++i) {
    pt_join(owners[i], nullptr);
  }
  for (int i = 0; i < nfill; ++i) {
    pt_join(fill[i], nullptr);
  }
  for (int i = 0; i < triggers; ++i) {
    pt_join(trig[i], nullptr);
  }

  res.link_boosts = triggers * chain_len;
  res.total_us = static_cast<double>(t1 - t0) / 1e3;
  res.ns_per_link =
      res.link_boosts > 0 ? static_cast<double>(t1 - t0) / res.link_boosts : 0;
  res.valid = true;

  for (int i = 0; i < chain_len; ++i) {
    pt_mutex_destroy(&g_boost.chain[i]);
  }
  pt_mutex_destroy(&g_boost.anchor);
  for (int i = 0; i < triggers; ++i) {
    pt_sem_destroy(&g_boost.trigger_gate[i]);
  }
  return res;
}

// ---------------------------------------------------------------------------------------
// Section 4: uncontended lock/unlock vs a bare atomic pair (ISSUE 9).
// ---------------------------------------------------------------------------------------

struct UncontendedRow {
  double bare_pair_ns = 0;  // xchgb acquire + release store, nothing else
  double ras_pair_ns = 0;   // pt_mutex_lock/unlock, restartable-sequence fast path
  double off_pair_ns = 0;   // kill switch: the full kernel-monitor path
  double ratio = 0;         // ras_pair / bare_pair — acceptance <= ~2
  bool valid = false;
};

volatile uint8_t g_bare_lock = 0;

double MeasureBarePair(int64_t iters) {
  DualLoopTimer t(iters, 5);
  return t.MeasureNs([] {
    fsup_xchg_lock(&g_bare_lock);
    g_bare_lock = 0;
  });
}

double MeasurePtPair(pt_mutex_t* m, int64_t iters) {
  DualLoopTimer t(iters, 5);
  return t.MeasureNs([&] {
    pt_mutex_lock(m);
    pt_mutex_unlock(m);
  });
}

UncontendedRow RunUncontended(bool smoke) {
  UncontendedRow row;
  pt_reinit();
  pt_mutex_t m;
  if (pt_mutex_init(&m) != 0) {
    return row;
  }
  const int64_t iters = smoke ? 200'000 : 2'000'000;
  // The sweep overrides whatever FSUP_FASTPATH asked for — the point is to compare the
  // fast path with the kernel path — and restores the request afterwards.
  const bool saved = sync::fastpath::Requested();
  row.bare_pair_ns = MeasureBarePair(iters);
  sync::fastpath::SetRequested(true);
  row.ras_pair_ns = MeasurePtPair(&m, iters);
  sync::fastpath::SetRequested(false);
  row.off_pair_ns = MeasurePtPair(&m, iters);
  sync::fastpath::SetRequested(saved);
  row.ratio = row.bare_pair_ns > 0 ? row.ras_pair_ns / row.bare_pair_ns : 0;
  row.valid = true;
  pt_mutex_destroy(&m);
  return row;
}

// ---------------------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------------------

void WriteJson(const char* path, const BroadcastRow* bc, size_t nbc, const ContendedRow* ct,
               size_t nct, const BoostResult& boost, const UncontendedRow& un,
               double sw_ratio, double tp_ratio) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_sync: cannot write %s\n", path);
    return;
  }
  std::fputs("{\"bench\":\"sync_scale\",\"broadcast\":[\n", f);
  bool first = true;
  for (size_t i = 0; i < nbc; ++i) {
    if (!bc[i].valid) {
      continue;
    }
    if (!first) {
      std::fputs(",\n", f);
    }
    first = false;
    std::fprintf(f,
                 "  {\"n\":%d,\"broadcast_us\":%.2f,\"drain_ms\":%.3f,"
                 "\"ctx_switches\":%llu,\"switches_per_waiter\":%.3f}",
                 bc[i].n, bc[i].broadcast_us, bc[i].drain_ms,
                 static_cast<unsigned long long>(bc[i].ctx_switches),
                 bc[i].switches_per_waiter);
  }
  std::fputs("\n],\"contended\":[\n", f);
  first = true;
  for (size_t i = 0; i < nct; ++i) {
    if (!ct[i].valid) {
      continue;
    }
    if (!first) {
      std::fputs(",\n", f);
    }
    first = false;
    std::fprintf(f,
                 "  {\"n\":%d,\"ops\":%llu,\"elapsed_s\":%.4f,\"ops_per_sec\":%.0f}",
                 ct[i].n, static_cast<unsigned long long>(ct[i].ops), ct[i].elapsed_s,
                 ct[i].ops_per_sec);
  }
  std::fputs("\n],\"boost_chain\":", f);
  if (boost.valid) {
    std::fprintf(f,
                 "{\"chain\":%d,\"fillers_per_mutex\":%d,\"boosts\":%d,"
                 "\"link_boosts\":%d,\"total_us\":%.2f,\"ns_per_link\":%.1f}",
                 boost.chain, boost.fillers_per_mutex, boost.boosts, boost.link_boosts,
                 boost.total_us, boost.ns_per_link);
  } else {
    std::fputs("null", f);
  }
  std::fputs(",\"uncontended\":", f);
  if (un.valid) {
    std::fprintf(f,
                 "{\"bare_pair_ns\":%.3f,\"ras_pair_ns\":%.3f,\"off_pair_ns\":%.3f,"
                 "\"fastpath_vs_bare_ratio\":%.3f}",
                 un.bare_pair_ns, un.ras_pair_ns, un.off_pair_ns, un.ratio);
  } else {
    std::fputs("null", f);
  }
  std::fprintf(f,
               ",\"broadcast_switches_per_waiter_ratio\":%.3f,"
               "\"contended_throughput_ratio\":%.3f}\n",
               sw_ratio, tp_ratio);
  std::fclose(f);
}

}  // namespace
}  // namespace fsup

int main(int argc, char** argv) {
  using namespace fsup;
  const BenchArgs args = ParseBenchArgs(argc, argv, "BENCH_sync.json", /*has_smoke=*/true);
  pt_init();

  const bool smoke = args.smoke;
  const int counts_full[] = {8, 64, 512, 4096};
  const int counts_smoke[] = {8, 64};
  const int* counts = smoke ? counts_smoke : counts_full;
  const size_t ncounts = smoke ? 2 : 4;
  const int total_ops = smoke ? 8000 : 100000;
  const int chain_len = smoke ? 8 : kMaxChain;
  const int fillers = smoke ? 8 : 64;
  const int triggers = smoke ? 4 : 12;

  BroadcastRow bc[4];
  ContendedRow ct[4];

  std::printf("Broadcast drain — wake-one + requeue vs waiter count\n");
  std::printf("| %5s | %12s | %10s | %12s | %10s |\n", "N", "broadcast_us", "drain_ms",
              "ctx_switches", "sw/waiter");
  for (size_t i = 0; i < ncounts; ++i) {
    bc[i] = RunBroadcast(counts[i]);
    std::printf("| %5d | %12.2f | %10.3f | %12llu | %10.3f |\n", bc[i].n, bc[i].broadcast_us,
                bc[i].drain_ms, static_cast<unsigned long long>(bc[i].ctx_switches),
                bc[i].switches_per_waiter);
  }

  std::printf("\nContended lock/unlock — held queue depth ~N-1\n");
  std::printf("| %5s | %8s | %10s | %12s |\n", "N", "ops", "elapsed_s", "ops/sec");
  for (size_t i = 0; i < ncounts; ++i) {
    ct[i] = RunContended(counts[i], total_ops);
    std::printf("| %5d | %8llu | %10.4f | %12.0f |\n", ct[i].n,
                static_cast<unsigned long long>(ct[i].ops), ct[i].elapsed_s,
                ct[i].ops_per_sec);
  }

  std::printf("\nBoost-chain propagation — %d links, %d-deep wait queues\n", chain_len,
              fillers);
  const BoostResult boost = RunBoostChain(chain_len, fillers, triggers);
  std::printf("  %d full-chain boosts (%d link repositions): %.2f us total, %.1f ns/link\n",
              boost.boosts, boost.link_boosts, boost.total_us, boost.ns_per_link);

  std::printf("\nUncontended lock/unlock vs a bare atomic pair [ns/pair]\n");
  const UncontendedRow un = RunUncontended(smoke);
  std::printf("  %-44s %8.2f\n", "bare xchgb + release store (baseline)", un.bare_pair_ns);
  std::printf("  %-44s %8.2f\n", "pt pair, FSUP_FASTPATH=1 (default)", un.ras_pair_ns);
  std::printf("  %-44s %8.2f\n", "pt pair, FSUP_FASTPATH=0 (kernel path)", un.off_pair_ns);

  // Flatness acceptance (ISSUE 5): per-waiter broadcast switches and contended throughput
  // at the largest N within range of the smallest.
  const BroadcastRow& bc_lo = bc[0];
  const BroadcastRow& bc_hi = bc[ncounts - 1];
  const double sw_ratio = bc_lo.valid && bc_hi.valid && bc_lo.switches_per_waiter > 0
                              ? bc_hi.switches_per_waiter / bc_lo.switches_per_waiter
                              : 0;
  const ContendedRow& ct_lo = ct[0];
  const ContendedRow& ct_hi = ct[ncounts - 1];
  const double tp_ratio =
      ct_lo.valid && ct_hi.valid && ct_lo.ops_per_sec > 0 ? ct_hi.ops_per_sec / ct_lo.ops_per_sec : 0;
  std::printf("\n  broadcast switches/waiter ratio N=%d vs N=%d: %.2f (acceptance: <= 1.50)"
              " -> %s\n",
              bc_hi.n, bc_lo.n, sw_ratio, sw_ratio > 0 && sw_ratio <= 1.5 ? "PASS" : "FAIL");
  std::printf("  contended ops/sec ratio N=%d vs N=%d:        %.2f (acceptance: >= 0.50)"
              " -> %s\n",
              ct_hi.n, ct_lo.n, tp_ratio, tp_ratio >= 0.5 ? "PASS" : "FAIL");
  std::printf("  uncontended pair vs bare atomic pair:         %.2f (acceptance: <= 2.00)"
              " -> %s\n",
              un.ratio, un.valid && un.ratio > 0 && un.ratio <= 2.0 ? "PASS" : "FAIL");

  WriteJson(args.json, bc, ncounts, ct, ncounts, boost, un, sw_ratio, tp_ratio);
  pt_reinit();
  return 0;
}
