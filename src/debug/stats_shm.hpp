// Shared-memory stats segment layout (FSUP_STATS_SHM).
//
// The runtime's profiler collector mmaps a small MAP_SHARED file and republishes a fixed-size
// statistics block into it every collection period; `tools/fsup_top` (a standalone binary that
// does NOT link the library) mmaps the same file read-only and renders a refreshing top-style
// view. This header is therefore deliberately freestanding: plain structs, <cstdint> and the
// freestanding counter registry only — both sides compile it independently and must agree
// on the layout. A change to the registry's lists changes the layout: bump kStatsShmVersion.
//
// Consistency protocol: a seqlock. The writer bumps `seq` to an odd value, updates the body,
// then bumps it even; a reader copies the whole block and accepts the copy only if `seq` was
// even and unchanged across the copy. Single writer (the collector, inside the Pthreads
// kernel), any number of cross-process readers, no reader-side blocking — a dead or stalled
// target can never wedge the monitor. Accesses to `seq` go through __atomic builtins so the
// protocol works across processes without dragging std::atomic into the shared layout.

#ifndef FSUP_SRC_DEBUG_STATS_SHM_HPP_
#define FSUP_SRC_DEBUG_STATS_SHM_HPP_

#include <cstdint>

#include "src/util/counters.hpp"

namespace fsup::debug {

inline constexpr uint32_t kStatsShmMagic = 0x70755346;  // "FsUp"
inline constexpr uint32_t kStatsShmVersion = 3;  // 3: pool.lazy_commits dropped
inline constexpr int kStatsShmTopStacks = 8;   // hottest on-CPU / most-blocked rows exported
inline constexpr int kStatsShmMaxDepth = 8;    // frames kept per exported stack

// One aggregated stack row. On-CPU rows: weight == count == samples. Off-CPU rows: weight is
// blocked nanoseconds, count is wake events, tag/reason name the wait object.
struct StatsShmStack {
  uint64_t weight = 0;
  uint64_t count = 0;
  uint32_t tag = 0;     // sync-object tag (mutex#/cond#), 0 when the wait has none
  uint8_t reason = 0;   // BlockReason raw value (off-CPU rows)
  uint8_t depth = 0;
  uint8_t pad[2] = {};
  uint64_t pcs[kStatsShmMaxDepth] = {};  // leaf first
};

struct StatsShm {
  uint32_t magic = 0;
  uint32_t version = 0;
  int32_t pid = 0;
  uint32_t seq = 0;        // seqlock; odd while the writer is mid-update
  int64_t updated_ns = 0;  // CLOCK_MONOTONIC stamp of the last publish

  // Every counter and gauge, indexed and named by util/counters.hpp.
  counters::Block block;

  StatsShmStack top_oncpu[kStatsShmTopStacks];
  StatsShmStack top_offcpu[kStatsShmTopStacks];
};

// The file is sized to one comfortable power of two; the layout must stay within it.
inline constexpr uint64_t kStatsShmSize = 8192;
static_assert(sizeof(StatsShm) <= kStatsShmSize, "StatsShm outgrew the segment size");

}  // namespace fsup::debug

#endif  // FSUP_SRC_DEBUG_STATS_SHM_HPP_
