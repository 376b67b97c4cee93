// Thread-count scaling: size-classed stacks, TCB slabs, and O(1) per-thread kernel paths.
//
// Two sections:
//
//  1. Create/join latency sweep: n parked threads are created (each blocks on a semaphore),
//     then released and joined, timing both halves per thread. With pooled stacks, slab
//     TCBs and no O(live) walks anywhere on the paths, per-thread cost must stay flat as n
//     grows 4k -> 256k (acceptance: ratio <= 1.5).
//
//  2. Max-population wave: one wave up to a million live threads. Reports peak RSS per
//     thread (acceptance: < 8 KiB — one touched stack page + TCB + page tables) and the
//     self-yield dispatch latency measured WHILE the full population sits parked, which
//     pins the scheduler's O(1) claim at depth.
//
// Stacks are the 16 KiB minimum, mapped read-write with MAP_NORESERVE: parked bodies touch a
// single page, and untouched pages cost no RSS, so one page is the working set billed. The
// bench raises /proc/sys/vm/max_map_count when it can (a live stack pins 2 VMAs: the guard
// page and the read-write range); if the cap cannot be raised, waves are clamped to what fits
// and reported as such.
//
// Usage: bench_thread_scale [--smoke] [--json PATH]. Writes BENCH_scale.json unless --json
// names another file; --smoke bounds the sweep at 4k and the wave at 64k for the ctest smoke
// run.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench/bench_args.hpp"
#include "src/core/attr.hpp"
#include "src/core/pthread.hpp"
#include "src/util/dual_loop_timer.hpp"

namespace fsup {
namespace {

// ---------------------------------------------------------------------------------------
// /proc helpers.
// ---------------------------------------------------------------------------------------

// VmRSS / VmHWM in KiB from /proc/self/status, or 0 if unreadable.
uint64_t ReadStatusKib(const char* field) {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  uint64_t kib = 0;
  const size_t flen = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, flen) == 0 && line[flen] == ':') {
      kib = std::strtoull(line + flen + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kib;
}

// A live stack pins 2 VMAs (guard page, read-write range).
// Returns the largest thread count the map-count limit can carry, raising the limit first
// if this process is privileged to.
int ClampToMapCount(int want_threads) {
  const long need = static_cast<long>(want_threads) * 2 + 16384;
  long limit = 0;
  if (FILE* f = std::fopen("/proc/sys/vm/max_map_count", "r")) {
    if (std::fscanf(f, "%ld", &limit) != 1) {
      limit = 0;
    }
    std::fclose(f);
  }
  if (limit >= need) {
    return want_threads;
  }
  if (FILE* f = std::fopen("/proc/sys/vm/max_map_count", "w")) {
    std::fprintf(f, "%ld\n", need);
    std::fclose(f);
    if (FILE* rf = std::fopen("/proc/sys/vm/max_map_count", "r")) {
      if (std::fscanf(rf, "%ld", &limit) != 1) {
        limit = 0;
      }
      std::fclose(rf);
    }
  }
  if (limit >= need) {
    return want_threads;
  }
  const int fit = static_cast<int>((limit - 16384) / 3);
  std::fprintf(stderr, "bench_scale: max_map_count=%ld caps the wave at %d threads\n", limit,
               fit);
  return fit > 0 ? fit : 0;
}

// ---------------------------------------------------------------------------------------
// Parked-thread waves.
// ---------------------------------------------------------------------------------------

pt_sem_t g_park;

void* ParkedBody(void*) {
  pt_sem_wait(&g_park);
  return nullptr;
}

struct WaveRow {
  int n = 0;
  int created = 0;
  double create_us = 0;  // per thread, all n live at the end
  double join_us = 0;    // per thread, release + join
  double rss_kib = 0;    // peak RSS per thread while the wave was live (wave section only)
  double yield_ns = 0;   // self-yield dispatch latency at full population
  bool valid = false;
};

// Creates n parked threads, optionally probes RSS/yield at full population, releases and
// joins them. Returns per-thread timings. Each wave starts from a fresh runtime.
WaveRow RunWave(int n, pt_thread_t* th, bool probe_population) {
  WaveRow row;
  row.n = n;
  pt_reinit();
  if (pt_sem_init(&g_park, 0) != 0) {
    return row;
  }
  // Workers sit below the main priority so a create never preempts the creator.
  ThreadAttr attr = MakeThreadAttr(kDefaultPrio - 1);
  attr.stack_size = kMinStackSize;

  const uint64_t rss_before_kib = ReadStatusKib("VmRSS");
  const int64_t t0 = NowNs();
  int created = 0;
  for (; created < n; ++created) {
    if (pt_create(&th[created], &attr, &ParkedBody, nullptr) != 0) {
      std::fprintf(stderr, "bench_scale: pt_create failed at %d\n", created);
      break;
    }
  }
  const int64_t t1 = NowNs();
  row.created = created;

  if (probe_population && created > 0) {
    const uint64_t hwm_kib = ReadStatusKib("VmHWM");
    if (hwm_kib > rss_before_kib) {
      row.rss_kib = static_cast<double>(hwm_kib - rss_before_kib) / created;
    }
    // Dispatch latency with every worker parked: self-yield round-trips the ready queue and
    // dispatcher without switching stacks. O(1) means the population is invisible here.
    const int yields = 20000;
    const int64_t y0 = NowNs();
    for (int i = 0; i < yields; ++i) {
      pt_yield();
    }
    row.yield_ns = static_cast<double>(NowNs() - y0) / yields;

    // Capped dump at the wave peak: 8 thread rows + the "... and N more" footer instead of
    // one line per parked worker. The cap is what makes a dump usable (and O(1)-ish) at this
    // population — the uncapped form would print 64k+ rows here.
    pt_metrics_dump(2, 8);
  }

  const int64_t t2 = NowNs();
  for (int i = 0; i < created; ++i) {
    pt_sem_post(&g_park);
  }
  for (int i = 0; i < created; ++i) {
    pt_join(th[i], nullptr);
  }
  const int64_t t3 = NowNs();
  pt_sem_destroy(&g_park);

  if (created == n && n > 0) {
    row.create_us = static_cast<double>(t1 - t0) / 1000.0 / n;
    row.join_us = static_cast<double>(t3 - t2) / 1000.0 / n;
    row.valid = true;
  }
  return row;
}

void WriteJson(const char* path, const WaveRow* sweep, size_t nsweep, const WaveRow& wave,
               double create_ratio, double join_ratio) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_scale: cannot write %s\n", path);
    return;
  }
  std::fputs("{\"bench\":\"thread_scale\",\"latency\":[\n", f);
  bool first = true;
  for (size_t i = 0; i < nsweep; ++i) {
    if (!sweep[i].valid) {
      continue;
    }
    if (!first) {
      std::fputs(",\n", f);
    }
    first = false;
    std::fprintf(f, "  {\"n\":%d,\"create_us\":%.3f,\"join_us\":%.3f}", sweep[i].n,
                 sweep[i].create_us, sweep[i].join_us);
  }
  std::fprintf(f, "\n],\"create_latency_ratio\":%.3f,\"join_latency_ratio\":%.3f,\n",
               create_ratio, join_ratio);
  if (wave.valid) {
    std::fprintf(f,
                 "\"wave\":{\"n\":%d,\"create_us\":%.3f,\"join_us\":%.3f,"
                 "\"rss_kib_per_thread\":%.2f,\"yield_ns\":%.1f}}\n",
                 wave.n, wave.create_us, wave.join_us, wave.rss_kib, wave.yield_ns);
  } else {
    std::fprintf(f, "\"wave\":{\"n\":%d,\"created\":%d,\"failed\":true}}\n", wave.n,
                 wave.created);
  }
  std::fclose(f);
}

}  // namespace
}  // namespace fsup

int main(int argc, char** argv) {
  using namespace fsup;
  const BenchArgs args = ParseBenchArgs(argc, argv, "BENCH_scale.json", /*has_smoke=*/true);
  pt_init();

  const bool smoke = args.smoke;
  const int sweep_full[] = {4096, 16384, 65536, 262144};
  const int sweep_smoke[] = {1024, 4096};
  const int* sweep_n = smoke ? sweep_smoke : sweep_full;
  const size_t nsweep = smoke ? 2 : 4;
  int wave_n = smoke ? 65536 : 1000000;

  wave_n = ClampToMapCount(wave_n);
  int max_n = wave_n;
  for (size_t i = 0; i < nsweep; ++i) {
    if (sweep_n[i] > max_n) {
      max_n = sweep_n[i];
    }
  }
  auto* th = static_cast<pt_thread_t*>(std::malloc(sizeof(pt_thread_t) * max_n));
  if (th == nullptr) {
    std::fprintf(stderr, "bench_scale: handle array allocation failed\n");
    return 1;
  }

  WaveRow sweep[4] = {};
  std::printf("Create/join latency — n parked threads, per-thread cost\n");
  std::printf("| %7s | %10s | %10s |\n", "N", "create_us", "join_us");
  for (size_t i = 0; i < nsweep; ++i) {
    const int n = sweep_n[i] <= max_n ? sweep_n[i] : max_n;
    sweep[i] = RunWave(n, th, false);
    std::printf("| %7d | %10.3f | %10.3f |\n", sweep[i].n, sweep[i].create_us,
                sweep[i].join_us);
  }

  std::printf("\nMax-population wave — %d live threads\n", wave_n);
  const WaveRow wave = RunWave(wave_n, th, true);
  std::printf("  created %d; create %.3f us/thread, join %.3f us/thread\n", wave.created,
              wave.create_us, wave.join_us);
  std::printf("  peak RSS %.2f KiB/thread, self-yield %.1f ns at full population\n",
              wave.rss_kib, wave.yield_ns);

  const WaveRow& lo = sweep[0];
  const WaveRow& hi = sweep[nsweep - 1];
  const double create_ratio =
      lo.valid && hi.valid && lo.create_us > 0 ? hi.create_us / lo.create_us : 0;
  const double join_ratio =
      lo.valid && hi.valid && lo.join_us > 0 ? hi.join_us / lo.join_us : 0;
  std::printf("\n  create latency ratio N=%d vs N=%d: %.2f (acceptance: <= 1.50) -> %s\n",
              hi.n, lo.n, create_ratio,
              create_ratio > 0 && create_ratio <= 1.5 ? "PASS" : "FAIL");
  std::printf("  peak RSS/thread at N=%d: %.2f KiB (acceptance: < 8.00) -> %s\n", wave.n,
              wave.rss_kib, wave.valid && wave.rss_kib > 0 && wave.rss_kib < 8.0
                                ? "PASS"
                                : "FAIL");

  WriteJson(args.json, sweep, nsweep, wave, create_ratio, join_ratio);
  std::free(th);
  pt_reinit();
  return 0;
}
