// Per-thread and kernel-wide runtime metrics (paper, Future Work: "Information could be
// extracted from the thread control block and made available to the user").
//
// This module is the kMetrics consumer of the observation funnel (debug/obs.hpp): the
// dispatcher, the sync paths and the signal machinery emit one event per transition, and
// Consume folds it into the accumulators while the metrics bit of the observer mask is set.
// Mutex wait and hold times are derived from the events themselves — a block opens a wait,
// the next lock by the same thread closes it and opens a hold, the matching unlock closes
// the hold — so the sync code carries no metrics bookkeeping of its own.
//
// Everything here is kernel-safe: fixed storage, no allocation, no syscalls. Aggregation
// into histograms uses log2 buckets so Add() is a bit-scan plus an increment.
//
// Layering note: the per-thread accumulators live in the TCB (TcbMetrics, kernel/tcb.hpp);
// the global counters are the registry's (util/counters.hpp); this module owns the
// histograms and the snapshot/dump API, and bumps the "metrics" counter group. Mutex
// wait/hold instrumentation covers semaphores, rwlocks and barriers too — they are layered
// on mutex + cond.

#ifndef FSUP_SRC_DEBUG_METRICS_HPP_
#define FSUP_SRC_DEBUG_METRICS_HPP_

#include <cstddef>
#include <cstdint>

#include "src/debug/obs.hpp"
#include "src/kernel/types.hpp"
#include "src/util/counters.hpp"

namespace fsup {
struct Tcb;
}

namespace fsup::debug::metrics {

inline constexpr int kHistBuckets = 40;  // log2(ns): bucket i holds [2^(i-1), 2^i) ns
inline constexpr int kMaxSnapshotThreads = 64;

// Fixed-bucket log2 latency histogram. Header-inline: consuming a snapshot needs no library
// symbols.
struct LatencyHist {
  uint64_t buckets[kHistBuckets] = {};
  uint64_t count = 0;
  int64_t sum_ns = 0;
  int64_t max_ns = 0;

  void Add(int64_t ns) {
    if (ns < 0) {
      ns = 0;
    }
    int idx = 0;
    for (uint64_t v = static_cast<uint64_t>(ns); v != 0; v >>= 1) {
      ++idx;  // idx = bit width of ns
    }
    if (idx >= kHistBuckets) {
      idx = kHistBuckets - 1;
    }
    ++buckets[idx];
    ++count;
    sum_ns += ns;
    if (ns > max_ns) {
      max_ns = ns;
    }
  }

  // Upper bound of the bucket containing the p-th percentile sample (p in [0,100]);
  // 0 when the histogram is empty. The top bucket reports the observed maximum.
  int64_t PercentileNs(double p) const {
    if (count == 0) {
      return 0;
    }
    // Nearest-rank: the target sample index is ceil(p% of count), never below 1.
    const double rank = (p / 100.0) * static_cast<double>(count);
    uint64_t target = static_cast<uint64_t>(rank);
    if (static_cast<double>(target) < rank) {
      ++target;
    }
    if (target == 0) {
      target = 1;
    }
    if (target > count) {
      target = count;
    }
    uint64_t seen = 0;
    for (int i = 0; i < kHistBuckets; ++i) {
      seen += buckets[i];
      if (seen >= target) {
        if (i == kHistBuckets - 1) {
          return max_ns;
        }
        return i == 0 ? 0 : (int64_t{1} << i) - 1;
      }
    }
    return max_ns;
  }

  double MeanNs() const {
    return count == 0 ? 0.0 : static_cast<double>(sum_ns) / static_cast<double>(count);
  }
};

// Per-thread slice of a snapshot (copied out of the TCB under the kernel monitor).
struct ThreadSnap {
  uint32_t id = 0;
  char name[16] = {};
  uint8_t state = 0;  // ThreadState
  uint64_t switches_in = 0;
  uint64_t voluntary = 0;      // descheduled by blocking/yielding
  uint64_t preempted = 0;      // descheduled by a higher-priority thread or the slice
  uint64_t signals_taken = 0;  // user handlers run on this thread
  uint64_t fake_calls = 0;     // fake-call frames pushed onto / drained by this thread
  uint64_t mutex_blocks = 0;   // times it suspended on a mutex
  int64_t running_ns = 0;
  int64_t ready_ns = 0;
  int64_t blocked_ns = 0;
  int64_t mutex_wait_ns = 0;
};

// One consistent copy of everything, taken under the kernel monitor.
struct MetricsSnapshot {
  bool enabled = false;
  int64_t enabled_since_ns = 0;

  // Every runtime counter and gauge (util/counters.hpp). The "metrics" group is counted only
  // while metrics are enabled; everything else counts regardless.
  counters::Block block;

  LatencyHist sched_latency;  // ready -> running
  LatencyHist mutex_wait;     // first contended block -> acquisition
  LatencyHist mutex_hold;     // kernel-path acquisition -> unlock

  uint32_t thread_count = 0;  // entries filled below (live threads, capped)
  ThreadSnap threads[kMaxSnapshotThreads];
};

// Copies the counter block and reads the gauges into out. Takes no lock and makes no call, so
// the signal-safe thread dump can use it; callers that want a consistent copy hold the
// kernel.
void CaptureCounters(counters::Block* out);

// Captures a snapshot (enters the kernel unless already inside). Always available; with
// metrics disabled the gated fields are zero. Flushes the in-progress
// time-in-state of every thread so the totals are current to the call.
void Capture(MetricsSnapshot* out);

// Human-readable report (the counter block, percentiles, per-thread table) written to fd via plain
// write(2). User context only (formats into a stack buffer; no allocation). max_threads
// caps the per-thread table (0 = all live threads — unbounded output at a million-thread
// population; large-scale callers pass a small cap and get a "... and N more" footer).
int DumpText(int fd, uint32_t max_threads = 0);

// Enables/disables collection (the metrics bit of the observer mask). Enabling resets the
// global accumulators and bumps the per-thread epoch — O(1) regardless of how many threads
// are live; each TCB's accumulators are lazily reset the first time an event touches it
// afterwards. Also demotes the sync fast paths to the kernel path
// (sync::fastpath::Recompute) so every acquisition is observed. Enters the kernel.
void Enable(bool on);

// The funnel's metrics consumer (called only by obs::EmitSlow, before the emitting site
// mutates t's state). b is the event's second operand: the mutex tag for mutex events, the
// signal number for kSignal. gen is the mutex's tag generation (mutex events only).
void Consume(obs::Event e, Tcb* t, uint32_t b, uint16_t gen, int64_t now);

}  // namespace fsup::debug::metrics

#endif  // FSUP_SRC_DEBUG_METRICS_HPP_
