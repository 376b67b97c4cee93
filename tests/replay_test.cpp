// Deterministic record/replay: a recorded run's trace ring is reproduced bit-exactly by the
// replayed run (same events, operands and decision indices; wall-clock timestamps differ),
// fault-rule firings land at the same decision index without re-arming the rules, replay of
// an epoll-recorded schedule works under the poll backend, a divergent workload aborts with
// the first mismatched decision, and a run that outlives its log falls back to live
// execution. A recording started under an armed exploration gate replays, and a log of an
// older format is refused. Slice ticks and external signals that land in user code replay at
// the kernel-entry gate, and each delay's timer shot is one tick decision. The C entry points
// get a smoke test at the end.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/attr.hpp"
#include "src/core/cinterface.h"
#include "src/core/pthread.hpp"
#include "src/debug/replay.hpp"
#include "src/debug/trace.hpp"
#include "src/hostos/fault.hpp"
#include "src/hostos/unix_if.hpp"
#include "src/sched/perverted.hpp"

namespace fsup {
namespace {

class ReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    pt_reinit();
    hostos::fault::Clear();
    debug::trace::Enable(false);
    path_ = std::string(::testing::TempDir()) + "fsup_replay_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() + "." +
            std::to_string(::getpid()) + ".rpl";
  }

  void TearDown() override {
    EXPECT_EQ(0u, debug::replay::StopReplay());
    debug::replay::StopRecording();
    hostos::fault::Clear();
    debug::trace::Enable(false);
    std::remove(path_.c_str());
  }

  std::string path_;
};

// The comparable part of a trace record: everything but the wall-clock timestamp.
struct Key {
  uint64_t d;
  uint32_t tid;
  uint32_t a;
  uint32_t b;
  debug::trace::Event event;

  bool operator==(const Key&) const = default;
};

std::vector<Key> RingKeys() {
  std::vector<debug::trace::Record> buf(debug::trace::Capacity());
  const size_t n = debug::trace::Snapshot(buf.data(), buf.size());
  std::vector<Key> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(Key{buf[i].d, buf[i].tid, buf[i].a, buf[i].b, buf[i].event});
  }
  return keys;
}

void DumpPrefix(const char* label, const std::vector<Key>& keys, size_t upto) {
  std::fprintf(stderr, "%s:\n", label);
  for (size_t i = 0; i < keys.size() && i < upto; ++i) {
    std::fprintf(stderr, "  [%zu] d=%llu %s tid=%u a=%u b=%u\n", i,
                 static_cast<unsigned long long>(keys[i].d),
                 debug::trace::Name(keys[i].event), keys[i].tid, keys[i].a, keys[i].b);
  }
}

void ExpectSameRing(const std::vector<Key>& rec, const std::vector<Key>& rep) {
  if (rec != rep) {
    DumpPrefix("recorded", rec, 12);
    DumpPrefix("replayed", rep, 12);
  }
  ASSERT_EQ(rec.size(), rep.size());
  for (size_t i = 0; i < rec.size(); ++i) {
    ASSERT_EQ(rec[i].d, rep[i].d) << "ring slot " << i;
    ASSERT_EQ(rec[i].event, rep[i].event) << "ring slot " << i;
    ASSERT_EQ(rec[i].tid, rep[i].tid) << "ring slot " << i;
    ASSERT_EQ(rec[i].a, rep[i].a) << "ring slot " << i;
    ASSERT_EQ(rec[i].b, rep[i].b) << "ring slot " << i;
  }
}

// -- workloads ---------------------------------------------------------------------------
// Each exercises a different decision source. All are data-race-free: every shared access is
// under a mutex or ordered by join, so the replayed run computes identical operands.

struct PingPong {
  Mutex m;
  Cond c;
  int turn = 0;
};

struct PingPongArg {
  PingPong* s;
  int me;
};

void* PingPongThread(void* arg) {
  PingPong* s = static_cast<PingPongArg*>(arg)->s;
  const int me = static_cast<PingPongArg*>(arg)->me;
  for (int i = 0; i < 8; ++i) {
    pt_mutex_lock(&s->m);
    while (s->turn % 3 != me) {
      pt_cond_wait(&s->c, &s->m);
    }
    ++s->turn;
    pt_cond_broadcast(&s->c);
    pt_mutex_unlock(&s->m);
  }
  return nullptr;
}

// Mutex/cond handoff between three threads plus timers (pt_delay) and a random-perverted
// yield storm, all under time slicing.
void SyncWorkload() {
  pt_enable_time_slicing(2000);
  PingPong s;
  pt_mutex_init(&s.m);
  pt_cond_init(&s.c);
  pt_thread_t t[3] = {};
  PingPongArg args[3] = {{&s, 0}, {&s, 1}, {&s, 2}};
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(0, pt_create(&t[i], nullptr, PingPongThread, &args[i]));
  }
  EXPECT_EQ(0, pt_delay(1 * 1000 * 1000));
  pt_set_perverted(PervertedPolicy::kRandom, 42);
  for (int i = 0; i < 16; ++i) {
    pt_yield();
  }
  pt_set_perverted(PervertedPolicy::kNone, 0);
  for (auto& th : t) {
    EXPECT_EQ(0, pt_join(th, nullptr));
  }
  pt_disable_time_slicing();
  pt_mutex_destroy(&s.m);
  pt_cond_destroy(&s.c);
}

struct PipeEnd {
  int fd = -1;
  long n = 0;
};

void* PipeReader(void* arg) {
  auto* p = static_cast<PipeEnd*>(arg);
  char buf[8] = {};
  p->n = pt_read(p->fd, buf, sizeof(buf));
  return nullptr;
}

// Two threads suspend reading empty pipes; timers interleave; main writes to wake them.
void IoWorkload() {
  int p1[2] = {-1, -1};
  int p2[2] = {-1, -1};
  ASSERT_EQ(0, ::pipe(p1));
  ASSERT_EQ(0, ::pipe(p2));
  PipeEnd r1{p1[0], 0};
  PipeEnd r2{p2[0], 0};
  pt_thread_t t1 = nullptr;
  pt_thread_t t2 = nullptr;
  ASSERT_EQ(0, pt_create(&t1, nullptr, PipeReader, &r1));
  ASSERT_EQ(0, pt_create(&t2, nullptr, PipeReader, &r2));
  pt_yield();  // both readers suspend on their empty pipes
  EXPECT_EQ(0, pt_delay(500 * 1000));
  ASSERT_EQ(3, ::write(p2[1], "two", 3));  // second pipe first
  EXPECT_EQ(0, pt_delay(500 * 1000));
  ASSERT_EQ(3, ::write(p1[1], "one", 3));
  EXPECT_EQ(0, pt_join(t1, nullptr));
  EXPECT_EQ(0, pt_join(t2, nullptr));
  EXPECT_EQ(3, r1.n);
  EXPECT_EQ(3, r2.n);
  for (int fd : {p1[0], p1[1], p2[0], p2[1]}) {
    ::close(fd);
  }
}

// Timer traffic with a fault rule on setitimer: every 3rd invocation fails with EINTR, which
// the counted wrapper retries. The rule is armed only while recording — replay must re-inject
// the same failures from the log.
void FaultWorkload() {
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(0, pt_delay(200 * 1000));
  }
}

// Pure computation between kernel entries (a few microseconds): a replayed run repeats it
// exactly, and a tick or signal that lands in it lands in user code, the pre-entry site.
volatile uint64_t g_sink = 0;

uint64_t Spin(uint64_t x) {
  for (int i = 0; i < 2000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  return x;
}

void* Spinner(void*) {
  uint64_t x = 1;
  for (int i = 0; i < 3000; ++i) {
    x = Spin(x);
    pt_testintr();  // a kernel entry: where replay fires what landed in the spin before it
  }
  g_sink = x;
  return nullptr;
}

// Two SCHED_RR spinners under 1 ms slicing: the slice ticks land in user code.
void SpinnerWorkload() {
  pt_enable_time_slicing(1000);
  ThreadAttr rr;
  rr.policy = SchedPolicy::kRr;
  rr.inherit_policy = false;
  pt_thread_t t[2] = {};
  for (auto& th : t) {
    ASSERT_EQ(0, pt_create(&th, &rr, Spinner, nullptr));
  }
  for (auto& th : t) {
    EXPECT_EQ(0, pt_join(th, nullptr));
  }
  pt_disable_time_slicing();
}

int g_usr1 = 0;
int g_chld = 0;

void InstallCountingHandlers() {
  g_usr1 = 0;
  g_chld = 0;
  ASSERT_EQ(0, pt_sigaction(SIGUSR1, +[](int) { ++g_usr1; }, 0));
  ASSERT_EQ(0, pt_sigaction(SIGCHLD, +[](int) { ++g_chld; }, 0));
}

// Main spins until the SIGCHLD of the signalling child has been handled. Replayed, the log
// steers the same signals to the same kernel entries, so the loop ends at the same round.
void SpinUntilChildExits() {
  uint64_t x = 1;
  for (int i = 0; g_chld == 0 && i < 200000; ++i) {
    x = Spin(x);
    pt_testintr();
  }
  g_sink = x;
}

// How many records of `kind` the in-memory log holds; with pre_entry_only, how many of them
// the recorded run took in user code.
size_t Records(debug::replay::Decision kind, bool pre_entry_only = false) {
  std::vector<debug::replay::LogRecord> log(debug::replay::LogSize());
  const size_t n = debug::replay::CopyLog(log.data(), log.size());
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    const bool in_dispatcher = (log[i].b & debug::replay::kSiteDispatcher) != 0;
    if (log[i].kind == kind && !(pre_entry_only && in_dispatcher)) {
      ++count;
    }
  }
  return count;
}

// -- tests -------------------------------------------------------------------------------

TEST_F(ReplayTest, SyncWorkloadReplaysBitExactly) {
  debug::trace::Clear();
  debug::trace::Enable(true);
  debug::replay::StartRecording();
  SyncWorkload();
  const size_t logged = debug::replay::StopRecording();
  ASSERT_EQ(0, debug::replay::SaveLog(path_.c_str()));
  const std::vector<Key> recorded = RingKeys();
  ASSERT_GT(logged, 0u);
  ASSERT_FALSE(debug::replay::LogTruncated());

  pt_reinit();
  debug::trace::Clear();
  ASSERT_EQ(0, debug::replay::StartReplay(path_.c_str()));
  SyncWorkload();
  EXPECT_EQ(0u, debug::replay::StopReplay());
  const std::vector<Key> replayed = RingKeys();

  ASSERT_FALSE(recorded.empty());
  ExpectSameRing(recorded, replayed);
}

TEST_F(ReplayTest, IoWorkloadReplaysBitExactly) {
  debug::trace::Clear();
  debug::trace::Enable(true);
  debug::replay::StartRecording();
  IoWorkload();
  debug::replay::StopRecording();
  ASSERT_EQ(0, debug::replay::SaveLog(path_.c_str()));
  const std::vector<Key> recorded = RingKeys();

  pt_reinit();
  debug::trace::Clear();
  ASSERT_EQ(0, debug::replay::StartReplay(path_.c_str()));
  IoWorkload();
  EXPECT_EQ(0u, debug::replay::StopReplay());

  ASSERT_FALSE(recorded.empty());
  ExpectSameRing(recorded, RingKeys());
}

// An epoll-backend recording replays under the poll backend: the idle poll is virtualized in
// replay, so the log is backend-independent.
TEST_F(ReplayTest, EpollRecordingReplaysUnderPollBackend) {
  ASSERT_EQ(0, ::setenv("FSUP_IO_BACKEND", "epoll", 1));
  pt_reinit();
  debug::trace::Clear();
  debug::trace::Enable(true);
  debug::replay::StartRecording();
  IoWorkload();
  debug::replay::StopRecording();
  ASSERT_EQ(0, debug::replay::SaveLog(path_.c_str()));
  const std::vector<Key> recorded = RingKeys();

  ASSERT_EQ(0, ::setenv("FSUP_IO_BACKEND", "poll", 1));
  pt_reinit();  // re-resolves the backend from the environment
  debug::trace::Clear();
  ASSERT_EQ(0, debug::replay::StartReplay(path_.c_str()));
  IoWorkload();
  EXPECT_EQ(0u, debug::replay::StopReplay());
  ASSERT_EQ(0, ::unsetenv("FSUP_IO_BACKEND"));

  ASSERT_FALSE(recorded.empty());
  ExpectSameRing(recorded, RingKeys());
}

// Satellite: fault-rule firings are themselves logged decisions. The recording runs with a
// rule armed; the replay runs with no rule armed and must inject the same errors at the same
// decision indices, reproducing the kFault trace records bit-exactly.
TEST_F(ReplayTest, FaultFiringsAreReplayStable) {
  debug::trace::Clear();
  debug::trace::Enable(true);
  hostos::fault::FailEveryKth(hostos::Call::kSetitimer, 3, EINTR);
  debug::replay::StartRecording();
  FaultWorkload();
  debug::replay::StopRecording();
  hostos::fault::Clear();
  ASSERT_EQ(0, debug::replay::SaveLog(path_.c_str()));
  const std::vector<Key> recorded = RingKeys();

  size_t fault_records = 0;
  for (const Key& k : recorded) {
    if (k.event == debug::trace::Event::kFault) {
      ++fault_records;
      EXPECT_EQ(static_cast<uint32_t>(hostos::Call::kSetitimer), k.a);
      EXPECT_EQ(static_cast<uint32_t>(EINTR), k.b);
    }
  }
  ASSERT_GT(fault_records, 0u) << "workload produced no fault firings to replay";

  pt_reinit();
  debug::trace::Clear();
  ASSERT_EQ(0, debug::replay::StartReplay(path_.c_str()));
  FaultWorkload();  // note: no rule armed this time
  EXPECT_EQ(0u, debug::replay::StopReplay());

  ExpectSameRing(recorded, RingKeys());
}

// Each delay's deadline is one interval-timer shot, served by one tick: a recording of N
// delays on a lone thread holds exactly N tick decisions, each expiring the sleeper.
TEST_F(ReplayTest, EachDelayRecordsOneTick) {
  constexpr int kDelays = 20;
  debug::replay::StartRecording();
  for (int i = 0; i < kDelays; ++i) {
    ASSERT_EQ(0, pt_delay(50 * 1000));
  }
  debug::replay::StopRecording();
  EXPECT_EQ(static_cast<size_t>(kDelays), Records(debug::replay::Decision::kTick));
}

// Slice ticks that preempted a spinner in user code were taken by the universal handler
// before any kernel entry; replay fires them at the entry gate (kernel::Enter) of the same
// kernel section.
TEST_F(ReplayTest, UserCodeSliceTicksReplayAtTheEntryGate) {
  debug::trace::Clear();
  debug::trace::Enable(true);
  debug::replay::StartRecording();
  SpinnerWorkload();
  debug::replay::StopRecording();
  ASSERT_EQ(0, debug::replay::SaveLog(path_.c_str()));
  ASSERT_GT(Records(debug::replay::Decision::kTick, /*pre_entry_only=*/true), 0u)
      << "no slice tick landed in user code";
  const std::vector<Key> recorded = RingKeys();

  pt_reinit();
  debug::trace::Clear();
  ASSERT_EQ(0, debug::replay::StartReplay(path_.c_str()));
  SpinnerWorkload();
  EXPECT_EQ(0u, debug::replay::StopReplay());

  ExpectSameRing(recorded, RingKeys());
}

// External signals from another process (a forked child's SIGUSR1s, then its SIGCHLD) that
// reached a handler in user code replay at the entry gate without the child.
TEST_F(ReplayTest, UserCodeExternalSignalsReplayWithoutTheSender) {
  debug::trace::Clear();
  debug::trace::Enable(true);
  InstallCountingHandlers();
  debug::replay::StartRecording();
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    for (int i = 0; i < 5; ++i) {
      ::usleep(2000);
      ::kill(::getppid(), SIGUSR1);
    }
    ::_exit(0);
  }
  SpinUntilChildExits();
  debug::replay::StopRecording();
  ASSERT_EQ(child, ::waitpid(child, nullptr, 0));
  ASSERT_EQ(0, debug::replay::SaveLog(path_.c_str()));
  ASSERT_EQ(1, g_chld);
  ASSERT_GT(g_usr1, 0);
  const int recorded_usr1 = g_usr1;
  ASSERT_GT(Records(debug::replay::Decision::kExtSignal, /*pre_entry_only=*/true), 0u)
      << "no external signal landed in user code";
  const std::vector<Key> recorded = RingKeys();

  pt_reinit();
  debug::trace::Clear();
  InstallCountingHandlers();
  ASSERT_EQ(0, debug::replay::StartReplay(path_.c_str()));
  SpinUntilChildExits();
  EXPECT_EQ(0u, debug::replay::StopReplay());

  EXPECT_EQ(recorded_usr1, g_usr1);
  EXPECT_EQ(1, g_chld);
  ExpectSameRing(recorded, RingKeys());
}

// Divergence: replaying one workload's log against a different workload aborts, naming the
// first mismatched decision and dumping state.
TEST_F(ReplayTest, DivergentWorkloadAborts) {
  debug::replay::StartRecording();
  SyncWorkload();
  debug::replay::StopRecording();
  ASSERT_EQ(0, debug::replay::SaveLog(path_.c_str()));

  EXPECT_DEATH(
      {
        pt_reinit();
        debug::replay::StartReplay(path_.c_str());
        IoWorkload();  // not the recorded workload
      },
      "DIVERGENCE");
}

// A run that outlives its log continues live: the log covers only the first phase; the
// second phase must still run to completion, with replay mode off.
TEST_F(ReplayTest, TruncatedLogFallsBackToLiveExecution) {
  debug::replay::StartRecording();
  SyncWorkload();
  debug::replay::StopRecording();
  ASSERT_EQ(0, debug::replay::SaveLog(path_.c_str()));

  pt_reinit();
  ASSERT_EQ(0, debug::replay::StartReplay(path_.c_str()));
  SyncWorkload();  // consumes the log
  IoWorkload();    // runs past its end — live
  EXPECT_EQ(debug::replay::Mode::kOff, debug::replay::CurrentMode());
  EXPECT_EQ(0u, debug::replay::StopReplay());  // no-op: exhaustion already left replay mode
}

// Both session starts rewind the exploration gate's ordinal: a recording started after the
// gate was armed (and had counted a whole workload's exits) logs ordinals a replay re-derives.
TEST_F(ReplayTest, RecordingStartedUnderArmedGateReplays) {
  EXPECT_EXIT(
      {
        sched::SetPerturbRandom(7, 300);
        SyncWorkload();
        debug::replay::StartRecording();
        SyncWorkload();
        debug::replay::StopRecording();
        if (debug::replay::SaveLog(path_.c_str()) != 0 ||
            debug::replay::StartReplay(path_.c_str()) != 0) {
          std::exit(2);
        }
        SyncWorkload();
        if (debug::replay::StopReplay() != 0) {
          std::exit(3);
        }
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

// Log format 3 dropped the rng decision kinds: a version-2 log is refused, not misread.
TEST_F(ReplayTest, OlderLogVersionIsRefused) {
  debug::replay::StartRecording();
  SyncWorkload();
  debug::replay::StopRecording();
  ASSERT_EQ(0, debug::replay::SaveLog(path_.c_str()));
  size_t count = 0;
  ASSERT_EQ(0, debug::replay::ReadLogFile(path_.c_str(), nullptr, 0, &count));

  // The header starts with the 64-bit magic, then the 32-bit version.
  FILE* f = std::fopen(path_.c_str(), "r+b");
  ASSERT_NE(nullptr, f);
  const uint32_t v2 = 2;
  ASSERT_EQ(0, std::fseek(f, sizeof(uint64_t), SEEK_SET));
  ASSERT_EQ(1u, std::fwrite(&v2, sizeof(v2), 1, f));
  ASSERT_EQ(0, std::fclose(f));

  EXPECT_EQ(EINVAL, debug::replay::ReadLogFile(path_.c_str(), nullptr, 0, &count));
  pt_reinit();
  EXPECT_EQ(EINVAL, debug::replay::StartReplay(path_.c_str()));
  EXPECT_EQ(debug::replay::Mode::kOff, debug::replay::CurrentMode());
}

// The decision counter advances in off mode too, and every trace record carries it.
TEST_F(ReplayTest, DecisionCounterStampsTraceRecords) {
  debug::trace::Clear();
  debug::trace::Enable(true);
  const uint64_t before = debug::replay::DecisionCount();
  SyncWorkload();
  const uint64_t after = debug::replay::DecisionCount();
  EXPECT_GT(after, before);
  const std::vector<Key> keys = RingKeys();
  ASSERT_FALSE(keys.empty());
  for (size_t i = 1; i < keys.size(); ++i) {
    EXPECT_LE(keys[i - 1].d, keys[i].d) << "decision stamps must be nondecreasing";
  }
  EXPECT_LE(keys.back().d, after);
}

// C interface smoke: record through fsup_*, replay through fsup_*, counter visible.
TEST_F(ReplayTest, CInterfaceRoundTrip) {
  fsup_replay_record_start();
  SyncWorkload();
  const uint64_t recorded_decisions = fsup_replay_decisions();
  ASSERT_EQ(0, fsup_replay_record_save(path_.c_str()));
  EXPECT_GT(recorded_decisions, 0u);

  pt_reinit();
  ASSERT_EQ(0, fsup_replay_start(path_.c_str()));
  SyncWorkload();
  EXPECT_EQ(0u, fsup_replay_stop());
  EXPECT_EQ(debug::replay::Mode::kOff, debug::replay::CurrentMode());
}

}  // namespace
}  // namespace fsup
