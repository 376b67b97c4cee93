// fsup_top — live monitor for an fsup runtime publishing FSUP_STATS_SHM.
//
// Standalone by design: this binary does NOT link against the fsup library and never touches
// the target process — it mmaps the stats file read-only and runs the seqlock reader protocol
// from stats_shm.hpp (copy the block; accept only if `seq` was even and unchanged across the
// copy). A wedged, stopped or dead target can therefore never block the monitor, and the
// monitor can never perturb the target's Pthreads kernel.
//
// Usage:  fsup_top [--once] [--interval MS] [PATH]
//         PATH defaults to $FSUP_STATS_SHM.

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include "src/debug/stats_shm.hpp"

namespace {

using fsup::debug::kStatsShmMagic;
using fsup::debug::kStatsShmSize;
using fsup::debug::kStatsShmTopStacks;
using fsup::debug::kStatsShmVersion;
using fsup::debug::StatsShm;
using fsup::debug::StatsShmStack;

// Mirrors fsup::BlockReason (kernel/types.hpp) — kept by hand because this binary must not
// include library headers beyond the freestanding shm layout.
const char* ReasonName(uint8_t r) {
  static const char* kNames[] = {"none", "mutex", "cond", "join",
                                 "sigwait", "delay", "io", "lazy"};
  return r < sizeof(kNames) / sizeof(kNames[0]) ? kNames[r] : "?";
}

int64_t MonotonicNowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// One seqlock read attempt loop. Returns false when no consistent even-sequence copy could be
// obtained (writer continuously mid-update — in practice only a crashed writer that died with
// seq odd).
bool ReadStable(const StatsShm* shared, StatsShm* out) {
  for (int tries = 0; tries < 1000; ++tries) {
    const uint32_t s1 = __atomic_load_n(&shared->seq, __ATOMIC_ACQUIRE);
    if ((s1 & 1u) != 0) {
      continue;  // writer mid-update
    }
    std::memcpy(out, shared, sizeof(*out));
    __atomic_thread_fence(__ATOMIC_ACQUIRE);
    const uint32_t s2 = __atomic_load_n(&shared->seq, __ATOMIC_ACQUIRE);
    if (s1 == s2) {
      return true;
    }
  }
  return false;
}

void PrintStacks(const char* title, const StatsShmStack* rows, bool offcpu) {
  std::printf("%s\n", title);
  bool any = false;
  for (int i = 0; i < kStatsShmTopStacks; ++i) {
    const StatsShmStack& s = rows[i];
    if (s.count == 0) {
      continue;
    }
    any = true;
    if (offcpu) {
      std::printf("  %8.2fms x%-6" PRIu64 " %s#%-6u ",
                  static_cast<double>(s.weight) / 1e6, s.count, ReasonName(s.reason), s.tag);
    } else {
      std::printf("  %8" PRIu64 " samples          ", s.count);
    }
    for (int d = 0; d < s.depth; ++d) {
      std::printf("%s0x%" PRIx64, d == 0 ? "" : ";", s.pcs[d]);
    }
    if (s.depth == 0) {
      std::printf("[unknown]");
    }
    std::printf("\n");
  }
  if (!any) {
    std::printf("  (none)\n");
  }
}

void RenderFrame(const StatsShm& s, const StatsShm* prev, int64_t interval_ns) {
  // A target publishes only while it runs, so an old frame alone means an idle writer; the
  // frame is stale only when the writer is gone.
  const int64_t age_ns = MonotonicNowNs() - s.updated_ns;
  std::printf("fsup_top — pid %d", s.pid);
  if (::kill(s.pid, 0) != 0 && errno == ESRCH) {
    std::printf("  [STALE: pid %d is gone]", s.pid);
  } else if (age_ns > 2000000000) {
    std::printf("  [idle: no publish in %.1fs]", static_cast<double>(age_ns) / 1e9);
  }
  std::printf("\n");
  fsup::counters::Render(s.block, [](const char* text) { std::fputs(text, stdout); });
  if (prev != nullptr && interval_ns > 0) {
    std::printf("per second:");
    for (int c = 0; c < fsup::counters::kCount; ++c) {
      const uint64_t cur = s.block.counters[c];
      const uint64_t old = prev->block.counters[c];
      if (cur > old) {
        std::printf(" %s=%.0f", fsup::counters::kNames[c],
                    static_cast<double>(cur - old) * 1e9 / static_cast<double>(interval_ns));
      }
    }
    std::printf("\n");
  }
  PrintStacks("hottest on-CPU stacks:", s.top_oncpu, false);
  PrintStacks("top blocked (off-CPU):", s.top_offcpu, true);
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  bool once = false;
  long interval_ms = 500;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--once") == 0) {
      once = true;
    } else if (std::strcmp(argv[i], "--interval") == 0 && i + 1 < argc) {
      interval_ms = std::strtol(argv[++i], nullptr, 10);
      if (interval_ms < 50) {
        interval_ms = 50;
      }
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "usage: fsup_top [--once] [--interval MS] [PATH]\n");
      return 2;
    } else {
      path = argv[i];
    }
  }
  if (path == nullptr) {
    path = std::getenv("FSUP_STATS_SHM");
  }
  if (path == nullptr || path[0] == '\0') {
    std::fprintf(stderr, "fsup_top: no stats file (pass PATH or set FSUP_STATS_SHM)\n");
    return 2;
  }

  const int fd = ::open(path, O_RDONLY);
  if (fd < 0) {
    std::fprintf(stderr, "fsup_top: open %s: %s\n", path, std::strerror(errno));
    return 1;
  }
  void* mem = ::mmap(nullptr, kStatsShmSize, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);
  if (mem == MAP_FAILED) {
    std::fprintf(stderr, "fsup_top: mmap %s: %s\n", path, std::strerror(errno));
    return 1;
  }
  const StatsShm* shared = static_cast<const StatsShm*>(mem);

  StatsShm cur{};
  StatsShm prev{};
  bool have_prev = false;
  int64_t prev_read_ns = 0;
  for (;;) {
    // The runtime publishes magic last (release) during segment init; an attach racing init
    // simply sees zeros and reports "not ready yet" instead of garbage.
    if (__atomic_load_n(&shared->magic, __ATOMIC_ACQUIRE) != kStatsShmMagic) {
      if (once) {
        std::fprintf(stderr, "fsup_top: %s: no fsup stats segment (yet)\n", path);
        ::munmap(mem, kStatsShmSize);
        return 1;
      }
      std::printf("\x1b[H\x1b[2Jfsup_top — waiting for %s ...\n", path);
      std::fflush(stdout);
      ::usleep(static_cast<useconds_t>(interval_ms) * 1000);
      continue;
    }
    if (!ReadStable(shared, &cur)) {
      std::fprintf(stderr, "fsup_top: %s: seqlock never settled (writer died mid-update?)\n",
                   path);
      ::munmap(mem, kStatsShmSize);
      return 1;
    }
    if (cur.version != kStatsShmVersion) {
      std::fprintf(stderr, "fsup_top: %s: layout version %u, expected %u\n", path, cur.version,
                   kStatsShmVersion);
      ::munmap(mem, kStatsShmSize);
      return 1;
    }
    const int64_t now = MonotonicNowNs();
    if (!once) {
      std::printf("\x1b[H\x1b[2J");  // home + clear: a top-style refresh
    }
    RenderFrame(cur, have_prev ? &prev : nullptr, have_prev ? now - prev_read_ns : 0);
    std::fflush(stdout);
    if (once) {
      break;
    }
    prev = cur;
    have_prev = true;
    prev_read_ns = now;
    ::usleep(static_cast<useconds_t>(interval_ms) * 1000);
  }
  ::munmap(mem, kStatsShmSize);
  return 0;
}
