// The counter registry: every monotonic runtime counter, named once.
//
// The paper makes "few operating system calls" a design goal and backs it with counts. Those
// counts, and the runtime's own (context switches, kernel entries, I/O waits, stack-pool
// traffic), live in one uint64_t block. The FSUP_COUNTERS list below generates the enum that
// indexes it and the table of dotted names that labels it. A module bumps its slot with a
// plain ++ on a static address: all writers run on the library's one OS thread (inside the
// Pthreads kernel, in its signal handlers, or on a thread's I/O transfer path), so no atomics
// are needed. Every report — the metrics snapshot and dump, the FSUP_STATS_SHM segment that
// fsup_top renders, the pt_dump_threads footer — copies the block whole and prints it by
// walking the name table.
//
// Gauges are values read when a snapshot is taken (thread population, pool bytes, I/O
// waiters), not counted; FSUP_GAUGES lists them in the same shape, and a Block carries both.
//
// A counter's group is its name up to the first dot. Groups reset as a unit: "hostos" by
// hostos::ResetCallCounts, "io" by io::ResetForTesting, "kernel" and "pool" by kernel reinit,
// "metrics" when metrics are enabled, "profiler" when a profiling session starts. "ras"
// counts from process start.
//
// Freestanding (<cstdint> only): tools/fsup_top compiles this header without linking the
// library.

#ifndef FSUP_SRC_UTIL_COUNTERS_HPP_
#define FSUP_SRC_UTIL_COUNTERS_HPP_

#include <cstdint>

// The three counters of stack-pool size class n (16 KiB << n).
#define FSUP_POOL_CLASS_COUNTERS(X, n)                      \
  X(kPoolClass##n##Hits, "pool.class" #n ".hits")           \
  X(kPoolClass##n##Misses, "pool.class" #n ".misses")       \
  X(kPoolClass##n##Evictions, "pool.class" #n ".evictions")

#define FSUP_COUNTERS(X)                                                                 \
  X(kKernelCtxSwitches, "kernel.ctx_switches")                                           \
  X(kKernelDispatches, "kernel.dispatches")                                              \
  X(kKernelPreemptions, "kernel.preemptions")                                            \
  X(kKernelDeferredSignals, "kernel.deferred_signals") /* caught while in the kernel */  \
  X(kKernelForcedSwitches, "kernel.forced_switches")   /* by a perverted policy */       \
  X(kKernelEntries, "kernel.kernel_entries")                                             \
  /* UNIX calls through hostos, in hostos::Call order */                                 \
  X(kHostSigaction, "hostos.sigaction")                                                  \
  X(kHostSigprocmask, "hostos.sigprocmask")                                              \
  X(kHostSetitimer, "hostos.setitimer")                                                  \
  X(kHostMmap, "hostos.mmap")                                                            \
  X(kHostMunmap, "hostos.munmap")                                                        \
  X(kHostMprotect, "hostos.mprotect")                                                    \
  X(kHostSigaltstack, "hostos.sigaltstack")                                              \
  X(kHostKill, "hostos.kill")                                                            \
  X(kHostPoll, "hostos.poll")                                                            \
  X(kHostEpollCreate, "hostos.epoll_create")                                             \
  X(kHostEpollCtl, "hostos.epoll_ctl")                                                   \
  X(kHostEpollWait, "hostos.epoll_wait")                                                 \
  X(kHostShmMap, "hostos.shm_map")                                                       \
  /* the I/O readiness core; transfers and mode calls are UNIX calls made outside the */ \
  /* kernel by the calling thread */                                                     \
  X(kIoWaits, "io.waits")                   /* WaitFdReady suspensions */                \
  X(kIoWakeups, "io.wakeups")               /* threads woken by fd readiness */          \
  X(kIoCacheHits, "io.cache_hits")          /* waits that made no epoll_ctl */           \
  X(kIoCacheMisses, "io.cache_misses")      /* waits that had to ADD/MOD */              \
  X(kIoDemotions, "io.demotions")           /* interest narrowed after a lone wakeup */  \
  X(kIoProbes, "io.probes")                 /* idle readiness probes */                  \
  X(kIoTransfers, "io.transfers")           /* recv/send/read/write attempts */          \
  X(kIoModeCalls, "io.mode_calls")          /* fcntl F_GETFL/F_SETFL */                  \
  X(kIoNotsockProbes, "io.notsock_probes")  /* recv/send attempts that got ENOTSOCK */   \
  X(kPoolMaps, "pool.maps")                 /* fresh stack mmaps */                      \
  X(kPoolAllocFailures, "pool.alloc_failures") /* no mmap and no parked stack */         \
  FSUP_POOL_CLASS_COUNTERS(X, 0)                                                         \
  FSUP_POOL_CLASS_COUNTERS(X, 1)                                                         \
  FSUP_POOL_CLASS_COUNTERS(X, 2)                                                         \
  FSUP_POOL_CLASS_COUNTERS(X, 3)                                                         \
  FSUP_POOL_CLASS_COUNTERS(X, 4)                                                         \
  FSUP_POOL_CLASS_COUNTERS(X, 5)                                                         \
  FSUP_POOL_CLASS_COUNTERS(X, 6)                                                         \
  FSUP_POOL_CLASS_COUNTERS(X, 7)                                                         \
  FSUP_POOL_CLASS_COUNTERS(X, 8)                                                         \
  FSUP_POOL_CLASS_COUNTERS(X, 9)                                                         \
  X(kRasRestarts, "ras.restarts")           /* restartable-sequence rewinds */           \
  /* counted only while metrics are enabled */                                           \
  X(kMetricsVoluntarySwitches, "metrics.voluntary_switches")                             \
  X(kMetricsPreemptedSwitches, "metrics.preempted_switches")                             \
  X(kMetricsSignalsDelivered, "metrics.signals_delivered") /* user handlers run */       \
  X(kMetricsFakeCalls, "metrics.fake_calls")                                             \
  X(kMetricsTimerTicks, "metrics.timer_ticks")                                           \
  X(kMetricsIdlePolls, "metrics.idle_polls")                                             \
  /* off-CPU samples the profiler folded this session, and their blocked time */         \
  X(kProfilerOffcpuSamples, "profiler.offcpu_samples")                                   \
  X(kProfilerOffcpuBlockedNs, "profiler.offcpu_blocked_ns")

#define FSUP_GAUGES(X)                                                                \
  X(kThreadsLive, "threads.live")                                                     \
  X(kThreadsReady, "threads.ready")                                                   \
  X(kThreadsBlocked, "threads.blocked")      /* live - ready - the running one */     \
  X(kPoolMappedBytes, "pool.mapped_bytes")   /* stacks in use + parked */             \
  X(kPoolMappedHwBytes, "pool.mapped_hw_bytes")                                       \
  X(kPoolFreeBytes, "pool.free_bytes")                                                \
  X(kPoolFreeStacks, "pool.free_stacks")                                              \
  X(kPoolBudgetBytes, "pool.budget_bytes")                                            \
  X(kIoActiveWaiters, "io.active_waiters")                                            \
  X(kIoCachedFds, "io.cached_fds")                                                    \
  X(kIoEpoll, "io.epoll")                    /* 1: epoll backend, 0: poll */          \
  X(kProfilerHz, "profiler.hz")              /* 0 while no session runs */            \
  X(kProfilerSamples, "profiler.samples")    /* ring samples committed this session */ \
  X(kProfilerDropped, "profiler.dropped")

namespace fsup::counters {

#define FSUP_REGISTRY_ENUM(e, name) e,
#define FSUP_REGISTRY_NAME(e, name) name,

enum Counter : int { FSUP_COUNTERS(FSUP_REGISTRY_ENUM) kCount };
enum Gauge : int { FSUP_GAUGES(FSUP_REGISTRY_ENUM) kGaugeCount };

inline constexpr const char* kNames[kCount] = {FSUP_COUNTERS(FSUP_REGISTRY_NAME)};
inline constexpr const char* kGaugeNames[kGaugeCount] = {FSUP_GAUGES(FSUP_REGISTRY_NAME)};

#undef FSUP_REGISTRY_ENUM
#undef FSUP_REGISTRY_NAME

// The block: each counter's one storage location.
inline uint64_t g_block[kCount] = {};

inline void Bump(Counter c) { ++g_block[c]; }
inline uint64_t Get(Counter c) { return g_block[c]; }

// Slot `class0` (one of kPoolClass0Hits/Misses/Evictions) of stack-pool size class cls.
inline Counter PoolClass(int cls, Counter class0) {
  return static_cast<Counter>(class0 + 3 * cls);
}

// True if both names have the same group (the text before the first dot, or all of a name
// that has none).
inline bool SameGroup(const char* a, const char* b) {
  auto end = [](char ch) { return ch == '.' || ch == '\0'; };
  while (*a == *b && !end(*a)) {
    ++a;
    ++b;
  }
  return end(*a) && end(*b);
}

// Zeroes every counter of one group ("io", "hostos", ...).
inline void ResetGroup(const char* group) {
  for (int c = 0; c < kCount; ++c) {
    if (SameGroup(kNames[c], group)) {
      g_block[c] = 0;
    }
  }
}

// One snapshot: the counter block copied whole, and the gauges read at the same moment.
struct Block {
  uint64_t counters[kCount] = {};
  uint64_t gauges[kGaugeCount] = {};

  uint64_t operator[](Counter c) const { return counters[c]; }
  uint64_t operator[](Gauge g) const { return gauges[g]; }
};

// Decimal text of v in buf (at least 21 bytes); returns the start of the digits.
inline const char* FormatU64(uint64_t v, char* buf) {
  char* p = buf + 20;
  *p = '\0';
  do {
    *--p = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  return p;
}

// Writes every gauge and every nonzero counter as `name=value`, one line per run of names
// in the same group, each line indented two spaces. write(const char*) receives the text in
// pieces. Nothing here allocates or calls libc, so a signal handler can render a block.
template <typename Write>
void Render(const Block& b, Write&& write) {
  char num[21];
  const char* group = nullptr;
  auto item = [&](const char* name, uint64_t v) {
    write(group == nullptr ? "  " : SameGroup(group, name) ? " " : "\n  ");
    group = name;
    write(name);
    write("=");
    write(FormatU64(v, num));
  };
  for (int g = 0; g < kGaugeCount; ++g) {
    item(kGaugeNames[g], b.gauges[g]);
  }
  for (int c = 0; c < kCount; ++c) {
    if (b.counters[c] != 0) {
      item(kNames[c], b.counters[c]);
    }
  }
  write("\n");
}

}  // namespace fsup::counters

#endif  // FSUP_SRC_UTIL_COUNTERS_HPP_
