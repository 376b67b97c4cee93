// Statistical profiler: on-CPU sampling with symbolizable frame-pointer stacks, off-CPU
// blocked-time attribution to the planted wait object, graceful degradation under injected
// host-call faults, sampling on frames deep in a thread stack, per-session sample counts,
// sidecar files on long dump paths, no lost off-CPU sample in a wake storm, deterministic
// sample counts and counter points under record→replay, an idle session that costs the
// program nothing, the shared-memory stats segment + fsup_top (fresh, idle and stale
// frames), and the capped thread dumps.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/pthread.hpp"
#include "src/debug/profiler.hpp"
#include "src/debug/replay.hpp"
#include "src/debug/stats_shm.hpp"
#include "src/debug/trace.hpp"
#include "src/hostos/fault.hpp"
#include "src/hostos/unix_if.hpp"
#include "src/kernel/stack_pool.hpp"
#include "src/util/dual_loop_timer.hpp"

namespace fsup {
namespace {

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::unsetenv("FSUP_STATS_SHM");
    pt_reinit();
    // Every case starts its own session: one FSUP_PROFILE=1 started at init is stopped first.
    if (pt_profile_active()) {
      pt_profile_stop();
    }
    hostos::fault::Clear();
    debug::trace::Enable(false);
    base_ = std::string(::testing::TempDir()) + "fsup_prof_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() + "." +
            std::to_string(::getpid());
  }

  void TearDown() override {
    if (pt_profile_active()) {
      pt_profile_stop();
    }
    hostos::fault::Clear();
    debug::trace::Enable(false);
    ::unsetenv("FSUP_STATS_SHM");
    ::unsetenv("FSUP_PROFILE");
    for (const char* suffix : {"", ".offcpu", ".maps", ".shm"}) {
      std::remove((base_ + suffix).c_str());
    }
  }

  std::string base_;
};

// -- helpers -----------------------------------------------------------------------------

// Executable address ranges parsed from a /proc/self/maps copy.
std::vector<std::pair<uint64_t, uint64_t>> ExecRanges(const std::string& maps_path) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  FILE* f = std::fopen(maps_path.c_str(), "r");
  if (f == nullptr) {
    return out;
  }
  char line[512];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    uint64_t lo = 0;
    uint64_t hi = 0;
    char perms[8] = {};
    if (std::sscanf(line, "%" PRIx64 "-%" PRIx64 " %7s", &lo, &hi, perms) == 3 &&
        perms[2] == 'x') {
      out.emplace_back(lo, hi);
    }
  }
  std::fclose(f);
  return out;
}

bool InExec(const std::vector<std::pair<uint64_t, uint64_t>>& ranges, uint64_t pc) {
  for (const auto& [lo, hi] : ranges) {
    if (pc >= lo && pc < hi) {
      return true;
    }
  }
  return false;
}

std::string ReadAll(const std::string& path) {
  std::string out;
  if (FILE* f = std::fopen(path.c_str(), "r"); f != nullptr) {
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
      out.append(buf, n);
    }
    std::fclose(f);
  }
  return out;
}

// One folded line: semicolon-separated frames, space, count.
struct FoldedLine {
  std::vector<std::string> frames;
  uint64_t value = 0;
};

std::vector<FoldedLine> ReadFolded(const std::string& path) {
  std::vector<FoldedLine> out;
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return out;
  }
  char line[4096];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    char* space = std::strrchr(line, ' ');
    if (space == nullptr) {
      continue;
    }
    FoldedLine fl;
    fl.value = std::strtoull(space + 1, nullptr, 10);
    *space = '\0';
    for (char* tok = std::strtok(line, ";"); tok != nullptr; tok = std::strtok(nullptr, ";")) {
      fl.frames.emplace_back(tok);
    }
    out.push_back(fl);
  }
  std::fclose(f);
  return out;
}

// CPU burner with a recognizable call chain; noinline so the frames survive optimization.
volatile unsigned g_sink = 0;

__attribute__((noinline)) void BurnLeaf(unsigned iters) {
  unsigned acc = g_sink;
  for (unsigned i = 0; i < iters; ++i) {
    acc = acc * 1664525u + 1013904223u;
  }
  g_sink = acc;
}

__attribute__((noinline)) void BurnMid(unsigned iters) { BurnLeaf(iters); }

void* BurnThread(void*) {
  for (int round = 0; round < 60; ++round) {
    BurnMid(2000000);
    pt_yield();
  }
  return nullptr;
}

// Deep recursion that actually consumes stack.
// The frame must stay live ACROSS the recursive call — `return x + DeepRecurse(d-1)` gets
// flattened to a loop by GCC's accumulator tail-recursion elimination and grows nothing.
__attribute__((noinline)) uint64_t DeepRecurse(int depth) {
  volatile char pad[512];
  pad[0] = static_cast<char>(depth);
  if (depth <= 0) {
    BurnLeaf(20000);  // dwell at max depth so SIGPROF lands on deep frames
    return pad[0];
  }
  const uint64_t r = DeepRecurse(depth - 1);
  pad[511] = static_cast<char>(r);
  return r + pad[511];
}

void* DeepThread(void*) {
  // A few descents keep SIGPROF landing on deep frames.
  uint64_t acc = 0;
  for (int i = 0; i < 8; ++i) {
    acc += DeepRecurse(300);  // ~300 frames x ~600B: ~180 KiB down the stack
  }
  return reinterpret_cast<void*>(acc);
}

// -- on-CPU ------------------------------------------------------------------------------

TEST_F(ProfilerTest, OnCpuSamplesAreMostlySymbolizable) {
  ASSERT_EQ(0, pt_profile_start(2000));
  ASSERT_TRUE(pt_profile_active());
  EXPECT_EQ(EBUSY, pt_profile_start(997));

  pt_thread_t t = nullptr;
  ASSERT_EQ(0, pt_create(&t, nullptr, BurnThread, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
  ASSERT_EQ(0, pt_profile_stop());
  EXPECT_FALSE(pt_profile_active());
  EXPECT_EQ(EINVAL, pt_profile_stop());

  ASSERT_EQ(0, pt_profile_dump(base_.c_str()));
  const auto ranges = ExecRanges(base_ + ".maps");
  ASSERT_FALSE(ranges.empty());
  const auto folded = ReadFolded(base_);
  ASSERT_FALSE(folded.empty());

  uint64_t total = 0;
  uint64_t symbolizable = 0;
  for (const FoldedLine& fl : folded) {
    total += fl.value;
    bool ok = !fl.frames.empty();
    for (const std::string& fr : fl.frames) {
      if (fr == "[unknown]" || !InExec(ranges, std::strtoull(fr.c_str(), nullptr, 16))) {
        ok = false;
        break;
      }
    }
    if (ok) {
      symbolizable += fl.value;
    }
  }
  // ITIMER_PROF delivery is jiffy-limited (~250 Hz effective), so a ~150ms CPU burn yields
  // a few dozen samples; the floor only guards against a dead sampler.
  ASSERT_GT(total, 10u) << "ITIMER_PROF produced almost no samples";
  // The acceptance bar: at least 80% of on-CPU samples attribute every frame to an
  // executable mapping of this process.
  EXPECT_GE(symbolizable * 100, total * 80)
      << "symbolizable=" << symbolizable << " of " << total;
}

// -- off-CPU -----------------------------------------------------------------------------

struct Planted {
  pt_mutex_t mutex;
  pt_thread_t holder = nullptr;
};

void* HoldMutex(void* arg) {
  auto* p = static_cast<Planted*>(arg);
  pt_mutex_lock(&p->mutex);
  pt_delay(60 * 1000 * 1000);  // hold for 60ms while the victim blocks
  pt_mutex_unlock(&p->mutex);
  return nullptr;
}

void* WantMutex(void* arg) {
  auto* p = static_cast<Planted*>(arg);
  pt_mutex_lock(&p->mutex);
  pt_mutex_unlock(&p->mutex);
  return nullptr;
}

TEST_F(ProfilerTest, OffCpuAttributesPlantedMutexContention) {
  Planted p;
  ASSERT_EQ(0, pt_mutex_init(&p.mutex, nullptr));
  const uint32_t tag = p.mutex.tag;
  ASSERT_NE(0u, tag);

  ASSERT_EQ(0, pt_profile_start(0));
  pt_thread_t holder = nullptr;
  pt_thread_t victim = nullptr;
  ASSERT_EQ(0, pt_create(&holder, nullptr, HoldMutex, &p));
  pt_yield();  // let the holder take the mutex first
  ASSERT_EQ(0, pt_create(&victim, nullptr, WantMutex, &p));
  ASSERT_EQ(0, pt_join(holder, nullptr));
  ASSERT_EQ(0, pt_join(victim, nullptr));
  ASSERT_EQ(0, pt_profile_stop());
  ASSERT_EQ(0, pt_profile_dump(base_.c_str()));
  ASSERT_EQ(0, pt_mutex_destroy(&p.mutex));

  // The planted wait must appear as a leaf "mutex#<tag>" with >= ~50ms of blocked time
  // (value column is microseconds).
  char want[32];
  std::snprintf(want, sizeof want, "mutex#%u", tag);
  uint64_t blocked_us = 0;
  for (const FoldedLine& fl : ReadFolded(base_ + ".offcpu")) {
    if (!fl.frames.empty() && fl.frames.back() == want) {
      blocked_us += fl.value;
    }
  }
  EXPECT_GE(blocked_us, 50000u) << "blocked time not attributed to " << want;
}

// -- fault injection ---------------------------------------------------------------------

TEST_F(ProfilerTest, SetitimerFaultUnwindsStart) {
  // Call::kSetitimer is shared with the ITIMER_REAL tick path, so settle the fresh runtime
  // first (init done, no timers armed, nothing to reprogram) and arm the fault immediately
  // before Start — the next setitimer is then necessarily the profiler's ITIMER_PROF.
  pt_yield();
  hostos::fault::FailNth(hostos::Call::kSetitimer, 1, EPERM);
  EXPECT_EQ(EPERM, pt_profile_start(997));
  EXPECT_FALSE(pt_profile_active());
  hostos::fault::Clear();

  // And the runtime is still healthy: a clean start succeeds afterwards.
  EXPECT_EQ(0, pt_profile_start(997));
  EXPECT_EQ(0, pt_profile_stop());
}

TEST_F(ProfilerTest, ShmMapFaultDegradesToProfilingWithoutMonitor) {
  const std::string shm = base_ + ".shm";
  ASSERT_EQ(0, ::setenv("FSUP_STATS_SHM", shm.c_str(), 1));
  hostos::fault::FailNth(hostos::Call::kShmMap, 1, ENOMEM);

  ASSERT_EQ(0, pt_profile_start(997)) << "shm failure must not fail the session";
  ASSERT_TRUE(pt_profile_active());
  hostos::fault::Clear();

  pt_thread_t t = nullptr;
  ASSERT_EQ(0, pt_create(&t, nullptr, BurnThread, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_GT(pt_profile_samples(), 0u);
  ASSERT_EQ(0, pt_profile_stop());
}

// -- deep stacks -------------------------------------------------------------------------

TEST_F(ProfilerTest, SamplingSurvivesDeepStacks) {
  ASSERT_EQ(0, pt_profile_start(2000));
  ThreadAttr attr;
  attr.stack_size = 512 * 1024;
  attr.name = "deep";
  pt_thread_t t = nullptr;
  ASSERT_EQ(0, pt_create(&t, &attr, DeepThread, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
  ASSERT_EQ(0, pt_profile_stop());
  // SIGPROF kept landing on frames far down the stack and the walker stayed inside it.
  EXPECT_GT(pt_profile_samples(), 0u);
}

// -- session count -----------------------------------------------------------------------

TEST_F(ProfilerTest, SampleCountIsPerSession) {
  ASSERT_EQ(0, pt_profile_start(2000));
  pt_thread_t t = nullptr;
  ASSERT_EQ(0, pt_create(&t, nullptr, BurnThread, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
  ASSERT_EQ(0, pt_profile_stop());
  const uint64_t first = pt_profile_samples();
  ASSERT_GT(first, 10u);

  // A new session counts from zero: at most the few samples since its start.
  ASSERT_EQ(0, pt_profile_start(2000));
  EXPECT_LT(pt_profile_samples(), first);
  ASSERT_EQ(0, pt_create(&t, nullptr, BurnThread, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
  const uint64_t before_reinit = pt_profile_samples();
  ASSERT_GT(before_reinit, 10u);

  // The FSUP_PROFILE restart across pt_reinit continues the session's count.
  ASSERT_EQ(0, ::setenv("FSUP_PROFILE", "1", 1));
  pt_reinit();
  pt_yield();  // runs init, which resumes the session
  ASSERT_TRUE(pt_profile_active());
  EXPECT_GE(pt_profile_samples(), before_reinit);
  ::unsetenv("FSUP_PROFILE");
}

TEST_F(ProfilerTest, ProfileHzFromTheEnvironmentSetsTheInitSessionRate) {
  ASSERT_EQ(0, ::setenv("FSUP_PROFILE", "1", 1));
  ASSERT_EQ(0, ::setenv("FSUP_PROFILE_HZ", "250", 1));
  pt_reinit();  // stops any live session; init starts one at FSUP_PROFILE_HZ
  EXPECT_TRUE(pt_profile_active());
  EXPECT_EQ(250u, debug::profiler::SampleHz());
  ::unsetenv("FSUP_PROFILE_HZ");
}

// -- long paths --------------------------------------------------------------------------

TEST_F(ProfilerTest, DumpKeepsSidecarsOnLongPaths) {
  // Two 200-byte directory names and a file name that bring the path to 527 bytes: each
  // sidecar name extends the full path instead of being cut back onto it.
  const std::string d1 = std::string(::testing::TempDir()) + std::string(200, 'd');
  const std::string d2 = d1 + "/" + std::string(200, 'e');
  ASSERT_TRUE(::mkdir(d1.c_str(), 0755) == 0 || errno == EEXIST);
  ASSERT_TRUE(::mkdir(d2.c_str(), 0755) == 0 || errno == EEXIST);
  std::string path = d2 + "/";
  ASSERT_LT(path.size(), 500u);
  path += std::string(527 - path.size(), 'p');

  ASSERT_EQ(0, pt_profile_start(0));
  ASSERT_EQ(0, pt_profile_stop());
  ASSERT_EQ(0, pt_profile_dump(path.c_str()));
  EXPECT_EQ(0, ::access((path + ".offcpu").c_str(), F_OK));
  EXPECT_EQ(0, ::access((path + ".maps").c_str(), F_OK));
  // The on-CPU file holds folded stacks, not the maps copy (every copy has an r-xp line).
  EXPECT_EQ(std::string::npos, ReadAll(path).find("r-xp"));

  for (const char* suffix : {"", ".offcpu", ".maps"}) {
    std::remove((path + suffix).c_str());
  }
  ::rmdir(d2.c_str());
  ::rmdir(d1.c_str());
}

// -- wake storm --------------------------------------------------------------------------

struct Storm {
  pt_mutex_t mutex;
  pt_cond_t cond;
  int parked = 0;
  bool release = false;
};

void* StormThread(void* arg) {
  auto* s = static_cast<Storm*>(arg);
  pt_mutex_lock(&s->mutex);
  ++s->parked;
  while (!s->release) {
    pt_cond_wait(&s->cond, &s->mutex);
  }
  pt_mutex_unlock(&s->mutex);
  return nullptr;
}

TEST_F(ProfilerTest, WakeStormKeepsEveryOffCpuSample) {
  constexpr int kThreads = 4096;
  Storm s;
  ASSERT_EQ(0, pt_mutex_init(&s.mutex, nullptr));
  ASSERT_EQ(0, pt_cond_init(&s.cond));
  // Recording: tick sampling, so no SIGPROF lands. Only the wakes themselves fold their
  // samples.
  debug::replay::StartRecording();
  ASSERT_EQ(0, pt_profile_start(0));

  ThreadAttr attr;
  attr.stack_size = 16 * 1024;
  std::vector<pt_thread_t> threads(kThreads);
  for (pt_thread_t& t : threads) {
    ASSERT_EQ(0, pt_create(&t, &attr, StormThread, &s));
  }
  while (s.parked < kThreads) {
    pt_yield();
  }
  pt_mutex_lock(&s.mutex);
  s.release = true;
  pt_cond_broadcast(&s.cond);
  pt_mutex_unlock(&s.mutex);
  for (pt_thread_t t : threads) {
    ASSERT_EQ(0, pt_join(t, nullptr));
  }
  ASSERT_EQ(0, pt_profile_stop());
  debug::replay::StopRecording();

  const auto snap = pt_metrics_snapshot();
  EXPECT_GE(snap.block[counters::kProfilerOffcpuSamples], static_cast<uint64_t>(kThreads));
  EXPECT_EQ(0u, snap.block[counters::kProfilerDropped]);
  ASSERT_EQ(0, pt_mutex_destroy(&s.mutex));
  ASSERT_EQ(0, pt_cond_destroy(&s.cond));
}

// -- determinism -------------------------------------------------------------------------

void* ReplayWorker(void* arg) {
  auto* m = static_cast<pt_mutex_t*>(arg);
  for (int i = 0; i < 20; ++i) {
    pt_mutex_lock(m);
    pt_delay(1 * 1000 * 1000);
    pt_mutex_unlock(m);
    pt_yield();
  }
  return nullptr;
}

// One session over the two workers; returns its sample count.
uint64_t ReplaySampleCount() {
  EXPECT_EQ(0, pt_profile_start(0));
  pt_mutex_t m;
  EXPECT_EQ(0, pt_mutex_init(&m, nullptr));
  pt_thread_t a = nullptr;
  pt_thread_t b = nullptr;
  EXPECT_EQ(0, pt_create(&a, nullptr, ReplayWorker, &m));
  EXPECT_EQ(0, pt_create(&b, nullptr, ReplayWorker, &m));
  EXPECT_EQ(0, pt_join(a, nullptr));
  EXPECT_EQ(0, pt_join(b, nullptr));
  EXPECT_EQ(0, pt_profile_stop());
  EXPECT_EQ(0, pt_mutex_destroy(&m));
  return pt_profile_samples();
}

TEST_F(ProfilerTest, SampleCountIsDeterministicUnderRecordReplay) {
  const std::string log = base_ + ".rpl";

  debug::replay::StartRecording();
  const uint64_t recorded = ReplaySampleCount();
  debug::replay::StopRecording();
  // Counter points exist under record/replay too: the idle polls in the workers' 40 ms of
  // delays take collection points besides the ones Start and Stop take.
  EXPECT_GT(debug::profiler::CounterSnapshot().size(), 2u);
  ASSERT_EQ(0, debug::replay::SaveLog(log.c_str()));
  ASSERT_GT(recorded, 0u) << "tick sampling produced nothing to compare";

  pt_reinit();
  ASSERT_EQ(0, debug::replay::StartReplay(log.c_str()));
  const uint64_t replayed = ReplaySampleCount();
  EXPECT_EQ(0u, debug::replay::StopReplay());

  // Ticks are recorded decisions and wake events follow the recorded schedule, so the
  // replayed session commits exactly as many samples as the recording did.
  EXPECT_EQ(recorded, replayed);
  std::remove(log.c_str());
}

// -- an idle session --------------------------------------------------------------------

struct IdleCost {
  uint64_t setitimer = 0;
  uint64_t ctx_switches = 0;
  int eintr = 0;
  uint32_t live_threads = 0;
};

// 0.6 s of idleness: a raw blocking read on a pipe that a forked child writes after 300 ms,
// then a 300 ms pt_delay. Returns what the window cost in host timers, switches and EINTRs.
IdleCost IdleWindowCost() {
  int fds[2];
  EXPECT_EQ(0, ::pipe(fds));
  IdleCost cost;
  cost.live_threads = pt_stats().live_threads;
  const uint64_t setitimer = counters::Get(counters::kHostSetitimer);
  const uint64_t ctx_switches = counters::Get(counters::kKernelCtxSwitches);
  const pid_t child = ::fork();
  if (child == 0) {
    ::usleep(300 * 1000);
    (void)!::write(fds[1], "x", 1);
    for (;;) {
      ::pause();  // killed after the window, so its SIGCHLD falls outside it
    }
  }
  EXPECT_GT(child, 0);
  char c = 0;
  for (;;) {
    const ssize_t n = ::read(fds[0], &c, 1);
    if (n < 0 && errno == EINTR) {
      ++cost.eintr;
      continue;
    }
    EXPECT_EQ(1, n);
    break;
  }
  pt_delay(300 * 1000 * 1000);
  cost.setitimer = counters::Get(counters::kHostSetitimer) - setitimer;
  cost.ctx_switches = counters::Get(counters::kKernelCtxSwitches) - ctx_switches;
  ::kill(child, SIGKILL);
  ::waitpid(child, nullptr, 0);
  ::close(fds[0]);
  ::close(fds[1]);
  return cost;
}

TEST_F(ProfilerTest, IdleSessionCostsTheIdleProgramNothing) {
  const IdleCost plain = IdleWindowCost();
  ASSERT_EQ(0, pt_profile_start(997));
  const IdleCost profiled = IdleWindowCost();
  ASSERT_EQ(0, pt_profile_stop());

  // ITIMER_PROF ticks on CPU time only and profiling adds no thread, so an idle program
  // arms no timer, switches no thread and takes no signal it would not take unprofiled.
  EXPECT_EQ(plain.setitimer, profiled.setitimer);
  EXPECT_EQ(plain.ctx_switches, profiled.ctx_switches);
  EXPECT_EQ(0, plain.eintr);
  EXPECT_EQ(0, profiled.eintr);
  EXPECT_EQ(plain.live_threads, profiled.live_threads);
}

// -- shared-memory stats + fsup_top ------------------------------------------------------

TEST_F(ProfilerTest, StatsShmPublishesConsistentFrames) {
  const std::string shm = base_ + ".shm";
  ASSERT_EQ(0, ::setenv("FSUP_STATS_SHM", shm.c_str(), 1));
  ASSERT_EQ(0, pt_profile_start(997));

  pt_thread_t t = nullptr;
  ASSERT_EQ(0, pt_create(&t, nullptr, BurnThread, nullptr));
  pt_delay(50 * 1000 * 1000);  // the burner's samples publish a few frames

  // Read the segment the way fsup_top does: mmap read-only, seqlock copy.
  const int fd = ::open(shm.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);
  void* mem = ::mmap(nullptr, debug::kStatsShmSize, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);
  ASSERT_NE(MAP_FAILED, mem);
  const auto* shared = static_cast<const debug::StatsShm*>(mem);

  debug::StatsShm copy{};
  bool stable = false;
  for (int tries = 0; tries < 1000 && !stable; ++tries) {
    const uint32_t s1 = __atomic_load_n(&shared->seq, __ATOMIC_ACQUIRE);
    if ((s1 & 1u) != 0) {
      continue;
    }
    std::memcpy(&copy, shared, sizeof(copy));
    __atomic_thread_fence(__ATOMIC_ACQUIRE);
    stable = s1 == __atomic_load_n(&shared->seq, __ATOMIC_ACQUIRE);
  }
  ASSERT_TRUE(stable);
  EXPECT_EQ(debug::kStatsShmMagic, copy.magic);
  EXPECT_EQ(debug::kStatsShmVersion, copy.version);
  EXPECT_EQ(::getpid(), copy.pid);
  EXPECT_GE(copy.block[counters::kThreadsLive], 2u);  // main + burner
  EXPECT_EQ(997u, copy.block[counters::kProfilerHz]);
  EXPECT_GT(copy.updated_ns, 0);
  ::munmap(mem, debug::kStatsShmSize);

  ASSERT_EQ(0, pt_join(t, nullptr));
  ASSERT_EQ(0, pt_profile_stop());
}

// Runs `fsup_top --once path` and returns its exit status and output.
int RunFsupTopOnce(const char* bin, const std::string& path, std::string* out) {
  const std::string cmd = std::string(bin) + " --once " + path + " 2>&1";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    return -1;
  }
  char buf[512];
  for (;;) {
    if (std::fgets(buf, sizeof buf, pipe) != nullptr) {
      *out += buf;
    } else if (std::ferror(pipe) && errno == EINTR) {
      // A SIGALRM or SIGPROF (no SA_RESTART) interrupts the blocking read when fsup_top is
      // slow to answer, e.g. on a loaded host.
      std::clearerr(pipe);
    } else {
      break;
    }
  }
  return ::pclose(pipe);
}

// Writes one frame into a fresh stats file the way the runtime lays it out.
void WriteFrame(const std::string& path, pid_t pid, int64_t updated_ns) {
  debug::StatsShm frame;
  frame.magic = debug::kStatsShmMagic;
  frame.version = debug::kStatsShmVersion;
  frame.pid = pid;
  frame.updated_ns = updated_ns;
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(0, ::ftruncate(fd, debug::kStatsShmSize));
  ASSERT_EQ(static_cast<ssize_t>(sizeof(frame)), ::write(fd, &frame, sizeof(frame)));
  ::close(fd);
}

TEST_F(ProfilerTest, FsupTopOnceRendersLiveStats) {
  const char* bin = std::getenv("FSUP_TOP_BIN");
  if (bin == nullptr || bin[0] == '\0') {
    GTEST_SKIP() << "FSUP_TOP_BIN not set";
  }
  const std::string shm = base_ + ".shm";
  ASSERT_EQ(0, ::setenv("FSUP_STATS_SHM", shm.c_str(), 1));
  ASSERT_EQ(0, pt_profile_start(997));
  pt_delay(30 * 1000 * 1000);  // idle: the segment keeps the frame Start published

  // Attach/detach smoke: fsup_top renders one frame from our segment and exits 0 without
  // ever entering this process's Pthreads kernel (it is a separate process, not linked
  // against the library). The frame is fresh and its writer alive: no tag.
  std::string out;
  EXPECT_EQ(0, RunFsupTopOnce(bin, shm, &out)) << out;
  EXPECT_NE(std::string::npos, out.find("fsup_top")) << out;
  EXPECT_NE(std::string::npos, out.find("threads.live=")) << out;
  EXPECT_NE(std::string::npos, out.find("pool.mapped_bytes=")) << out;
  EXPECT_EQ(std::string::npos, out.find("[STALE")) << out;
  EXPECT_EQ(std::string::npos, out.find("[idle")) << out;

  ASSERT_EQ(0, pt_profile_stop());
}

TEST_F(ProfilerTest, FsupTopTellsAnIdleWriterFromAGoneOne) {
  const char* bin = std::getenv("FSUP_TOP_BIN");
  if (bin == nullptr || bin[0] == '\0') {
    GTEST_SKIP() << "FSUP_TOP_BIN not set";
  }
  const std::string shm = base_ + ".shm";

  // A fresh frame whose writer, a forked child, has exited (and been reaped): stale.
  const pid_t child = ::fork();
  if (child == 0) {
    WriteFrame(shm, ::getpid(), NowNs());
    ::_exit(::testing::Test::HasFailure() ? 1 : 0);
  }
  ASSERT_GT(child, 0);
  int status = 0;
  ASSERT_EQ(child, ::waitpid(child, &status, 0));
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  std::string out;
  EXPECT_EQ(0, RunFsupTopOnce(bin, shm, &out)) << out;
  EXPECT_NE(std::string::npos, out.find("[STALE")) << out;

  // A 5 s old frame from a live writer (this process): an idle target, not a stale one.
  WriteFrame(shm, ::getpid(), NowNs() - 5'000'000'000);
  out.clear();
  EXPECT_EQ(0, RunFsupTopOnce(bin, shm, &out)) << out;
  EXPECT_NE(std::string::npos, out.find("[idle")) << out;
  EXPECT_EQ(std::string::npos, out.find("[STALE")) << out;
}

// -- counter tracks in the trace export --------------------------------------------------

TEST_F(ProfilerTest, TraceExportCarriesCounterTracks) {
  debug::trace::Clear();
  debug::trace::Enable(true);
  ASSERT_EQ(0, pt_profile_start(997));
  pt_thread_t t = nullptr;
  ASSERT_EQ(0, pt_create(&t, nullptr, BurnThread, nullptr));
  pt_delay(50 * 1000 * 1000);  // two+ collection periods -> multiple counter points
  ASSERT_EQ(0, pt_join(t, nullptr));
  ASSERT_EQ(0, pt_profile_stop());
  debug::trace::Enable(false);

  const std::string json_path = base_ + ".json";
  ASSERT_EQ(0, pt_trace_dump(json_path.c_str()));
  const std::string json = ReadAll(json_path);
  std::remove(json_path.c_str());

  EXPECT_NE(std::string::npos, json.find("\"ph\":\"C\"")) << "no counter events";
  // Track names come from the counter registry: gauges as they are, counters as rates.
  EXPECT_NE(std::string::npos, json.find("\"name\":\"threads.live\""));
  EXPECT_NE(std::string::npos, json.find("\"name\":\"threads.ready\""));
  EXPECT_NE(std::string::npos, json.find("\"name\":\"pool.mapped_bytes\""));
  EXPECT_NE(std::string::npos, json.find("\"name\":\"profiler.samples/s\""));
}

// -- capped dumps + pool/io surfacing ----------------------------------------------------

struct Parked {
  pt_mutex_t mutex;
  pt_cond_t cond;
  bool release = false;
};

void* ParkThread(void* arg) {
  auto* p = static_cast<Parked*>(arg);
  pt_mutex_lock(&p->mutex);
  while (!p->release) {
    pt_cond_wait(&p->cond, &p->mutex);
  }
  pt_mutex_unlock(&p->mutex);
  return nullptr;
}

TEST_F(ProfilerTest, CappedDumpsReportElidedThreads) {
  Parked p;
  ASSERT_EQ(0, pt_mutex_init(&p.mutex, nullptr));
  ASSERT_EQ(0, pt_cond_init(&p.cond));
  constexpr int kParked = 10;
  pt_thread_t ts[kParked];
  for (pt_thread_t& t : ts) {
    ASSERT_EQ(0, pt_create(&t, nullptr, ParkThread, &p));
  }
  pt_yield();  // let them all park

  // Capped stderr dump: at most 3 "#id" rows plus the "... and N more" marker.
  ::testing::internal::CaptureStderr();
  pt_dump_threads(3);
  const std::string err = ::testing::internal::GetCapturedStderr();
  size_t rows = 0;
  for (size_t pos = err.find("  #"); pos != std::string::npos;
       pos = err.find("  #", pos + 1)) {
    ++rows;
  }
  EXPECT_EQ(3u, rows) << err;
  EXPECT_NE(std::string::npos, err.find("more threads")) << err;
  EXPECT_NE(std::string::npos, err.find("pool.mapped_bytes=")) << err;
  EXPECT_NE(std::string::npos, err.find("io.epoll=")) << err;

  // Capped metrics dump to a file fd.
  const std::string dump_path = base_ + ".metrics";
  const int fd = ::open(dump_path.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(0, pt_metrics_dump(fd, 2));
  ::lseek(fd, 0, SEEK_SET);
  std::string text(65536, '\0');
  const long got = ::read(fd, text.data(), text.size());
  ::close(fd);
  std::remove(dump_path.c_str());
  ASSERT_GT(got, 0);
  text.resize(static_cast<size_t>(got));
  EXPECT_NE(std::string::npos, text.find("more threads")) << text;
  EXPECT_NE(std::string::npos, text.find("pool.mapped_bytes=")) << text;

  // Pool/io stats surfaced through the snapshot (satellite: per-class stats + io extras).
  const auto snap = pt_metrics_snapshot();
  EXPECT_GT(snap.block[counters::kThreadsLive], static_cast<uint64_t>(kParked));
  EXPECT_GT(snap.block[counters::kPoolMappedBytes], 0u);
  EXPECT_GE(snap.block[counters::kPoolMappedHwBytes], snap.block[counters::kPoolMappedBytes]);
  EXPECT_GT(snap.block[counters::kPoolMaps], 0u);
  uint64_t class_traffic = 0;
  for (int c = 0; c < StackPool::kNumClasses; ++c) {
    class_traffic += snap.block[counters::PoolClass(c, counters::kPoolClass0Hits)] +
                     snap.block[counters::PoolClass(c, counters::kPoolClass0Misses)];
  }
  EXPECT_GT(class_traffic, 0u) << "no size class saw any allocation";

  pt_mutex_lock(&p.mutex);
  p.release = true;
  pt_cond_broadcast(&p.cond);
  pt_mutex_unlock(&p.mutex);
  for (pt_thread_t t : ts) {
    ASSERT_EQ(0, pt_join(t, nullptr));
  }
  ASSERT_EQ(0, pt_mutex_destroy(&p.mutex));
  ASSERT_EQ(0, pt_cond_destroy(&p.cond));
}

}  // namespace
}  // namespace fsup
