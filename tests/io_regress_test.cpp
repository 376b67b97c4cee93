// Regression pins for the satellite fixes that rode along with the epoll readiness core:
//
//   1. The poll-fallback timeout is clamped to INT_MAX ms: a multi-week deadline used to
//      overflow the static_cast<int> (3.6e9 ms → a negative int → an *infinite* poll where a
//      bounded one was asked for).
//   2. Cancelling the head deadline disarms/reprograms ITIMER_REAL: a create/cancel storm
//      used to leave the interval timer programmed and fire stale SIGALRM ticks.
//   3. sig::ExternalWakeupPossible runs on counters: handler-install churn and sigwait wake
//      (and cancellation) cycles must leave the counters balanced, or deadlock detection
//      either misfires or goes blind.
//   4. A reused fd number wakes its reader: closing an fd drops its epoll registration in the
//      kernel, but the interest cache used to keep claiming it, so a later wait on a new file
//      with the same number was a cache hit and slept forever.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdlib>
#include <ostream>
#include <string>

#include "src/core/pthread.hpp"
#include "src/hostos/unix_if.hpp"
#include "src/io/io.hpp"

namespace fsup {
namespace {

class IoRegressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    pt_reinit();
  }
};

TEST_F(IoRegressTest, PollTimeoutClampsInsteadOfOverflowing) {
  // A six-week deadline: 3.63e15 ns ≈ 3.63e9 ms, which does not fit in int. The seed's
  // static_cast<int> produced a negative value — poll(2) treats that as "block forever".
  const int64_t six_weeks_ns = int64_t{6} * 7 * 24 * 3600 * 1'000'000'000;
  EXPECT_EQ(INT_MAX, hostos::ClampedPollTimeoutMs(six_weeks_ns));

  // Round-up and floor behaviour around the edges.
  EXPECT_EQ(0, hostos::ClampedPollTimeoutMs(0));
  EXPECT_EQ(0, hostos::ClampedPollTimeoutMs(-1));
  EXPECT_EQ(1, hostos::ClampedPollTimeoutMs(1));          // 1 ns still sleeps, never spins
  EXPECT_EQ(1, hostos::ClampedPollTimeoutMs(1'000'000));  // exactly 1 ms
  EXPECT_EQ(2, hostos::ClampedPollTimeoutMs(1'000'001));
  // The round-up itself must not overflow: (ns + 999999) wraps negative near INT64_MAX, and a
  // negative poll timeout means "block forever".
  EXPECT_EQ(INT_MAX, hostos::ClampedPollTimeoutMs(INT64_MAX));
  EXPECT_EQ(INT_MAX, hostos::ClampedPollTimeoutMs(INT64_MAX - 999'998));
  const int64_t just_fits_ns = int64_t{INT_MAX - 1} * 1'000'000;
  EXPECT_EQ(INT_MAX - 1, hostos::ClampedPollTimeoutMs(just_fits_ns));
  EXPECT_EQ(INT_MAX, hostos::ClampedPollTimeoutMs(just_fits_ns + 1));
}

pt_thread_t g_far_sleeper;

void* FarFutureSleeper(void*) {
  pt_delay(int64_t{6} * 7 * 24 * 3600 * 1'000'000'000);  // cancelled by the test
  return nullptr;
}

int g_clamp_fd = -1;
long g_clamp_n = 0;

void* ClampReader(void*) {
  char b;
  g_clamp_n = pt_read(g_clamp_fd, &b, 1);
  return nullptr;
}

TEST_F(IoRegressTest, PollBackendIdlesWithClampedTimeoutUnderFarFutureDeadline) {
  ASSERT_EQ(0, ::setenv("FSUP_IO_BACKEND", "poll", 1));
  pt_reinit();

  int fds[2];
  ASSERT_EQ(0, ::pipe(fds));
  g_clamp_fd = fds[0];
  g_clamp_n = 0;

  // One thread sleeps six weeks out (the armed deadline the idle loop must budget for), one
  // blocks on the pipe.
  pt_thread_t reader;
  ASSERT_EQ(0, pt_create(&g_far_sleeper, nullptr, &FarFutureSleeper, nullptr));
  ASSERT_EQ(0, pt_create(&reader, nullptr, &ClampReader, nullptr));
  pt_yield();  // both suspend

  // Joining blocks main too, so the dispatcher idles in poll(2) with the six-week budget —
  // the readable pipe wakes it immediately, but the *timeout it passed* is what we pin.
  ASSERT_EQ(1, ::write(fds[1], "x", 1));
  ASSERT_EQ(0, pt_join(reader, nullptr));
  EXPECT_EQ(1, g_clamp_n);
  EXPECT_EQ(INT_MAX, hostos::LastPollTimeoutMs());

  ASSERT_EQ(0, pt_cancel(g_far_sleeper));
  ASSERT_EQ(0, pt_join(g_far_sleeper, nullptr));
  ::close(fds[0]);
  ::close(fds[1]);
  ASSERT_EQ(0, ::unsetenv("FSUP_IO_BACKEND"));
  pt_reinit();
}

int g_sw_rc = 0;

void* SigwaitWithTimeout(void* timeout_ns) {
  int signo = 0;
  g_sw_rc = pt_sigwait(SigBit(SIGUSR2), &signo,
                       reinterpret_cast<intptr_t>(timeout_ns));
  return nullptr;
}

TEST_F(IoRegressTest, CancellingHeadDeadlineReprogramsItimer) {
  // One deterministic cycle: arming the 10 s sigwait timeout programs ITIMER_REAL (1), the
  // signal arrives long before the deadline and the cancellation must now DISARM it (2). The
  // seed stopped at (1) and left the shot live.
  const uint64_t before = hostos::CallCount(hostos::Call::kSetitimer);
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, &SigwaitWithTimeout,
                         reinterpret_cast<void*>(intptr_t{10'000'000'000})));
  pt_yield();  // the waiter blocks, timer armed
  ASSERT_EQ(0, pt_kill(t, SIGUSR2));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(0, g_sw_rc);
  EXPECT_EQ(before + 2, hostos::CallCount(hostos::Call::kSetitimer));
}

TEST_F(IoRegressTest, CancelStormFiresNoStaleSigalrmTicks) {
  pt_metrics_enable(true);  // counts OnTimerTick invocations

  // Storm: every iteration arms a 60 ms deadline and cancels it microseconds later.
  constexpr int kIters = 30;
  for (int i = 0; i < kIters; ++i) {
    pt_thread_t t;
    ASSERT_EQ(0, pt_create(&t, nullptr, &SigwaitWithTimeout,
                           reinterpret_cast<void*>(intptr_t{60'000'000})));
    pt_yield();
    ASSERT_EQ(0, pt_kill(t, SIGUSR2));
    ASSERT_EQ(0, pt_join(t, nullptr));
    ASSERT_EQ(0, g_sw_rc);
  }
  const uint64_t ticks_after_storm = pt_metrics_snapshot().block[counters::kMetricsTimerTicks];

  // Sit past every cancelled deadline. With the interval timer correctly disarmed nothing
  // fires; the seed's leftover programming delivered a stale SIGALRM right about now.
  ::usleep(150'000);
  pt_yield();
  EXPECT_EQ(ticks_after_storm, pt_metrics_snapshot().block[counters::kMetricsTimerTicks]);
  pt_metrics_enable(false);
}

pt_thread_t g_dl_t1;

void* DlBlockForever(void*) {
  static pt_sem_t sem;
  pt_sem_init(&sem, 0);
  pt_sem_wait(&sem);  // nobody posts
  return nullptr;
}

void* DlJoinT1(void*) {
  pt_join(g_dl_t1, nullptr);
  return nullptr;
}

void RunDeadlockAfterChurn() {
  // Handler churn: install/uninstall cycles must leave handlers_installed at zero...
  for (int i = 0; i < 25; ++i) {
    pt_sigaction(SIGUSR1, +[](int) {}, 0);
    pt_sigaction(SIGUSR1, nullptr, 0);  // back to default disposition
  }
  // ...and sigwait wake + cancellation cycles must leave sigwait_blocked at zero. The
  // cancellation path is the treacherous one: the fake call exits the thread without ever
  // returning into the sigwait loop.
  for (int i = 0; i < 5; ++i) {
    pt_thread_t t;
    pt_create(&t, nullptr, &SigwaitWithTimeout, reinterpret_cast<void*>(intptr_t{-1}));
    pt_yield();
    if (i % 2 == 0) {
      pt_kill(t, SIGUSR2);
    } else {
      pt_cancel(t);
    }
    pt_join(t, nullptr);
  }
  // Counters balanced → ExternalWakeupPossible() is false → the full deadlock below must
  // still be detected. A leaked count would leave the process idling forever instead.
  pt_thread_t t2;
  pt_create(&g_dl_t1, nullptr, &DlBlockForever, nullptr);
  pt_create(&t2, nullptr, &DlJoinT1, nullptr);
  pt_join(t2, nullptr);
}

TEST_F(IoRegressTest, DeadlockDetectionSurvivesHandlerAndSigwaitChurn) {
  EXPECT_DEATH(RunDeadlockAfterChurn(), "DEADLOCK");
}

// ---- fd-number reuse under the interest cache ------------------------------------------

enum class FdKind { kPipe, kSocketpair };
struct ReuseCase {
  FdKind kind;
  const char* backend;
};

void PrintTo(const ReuseCase& c, std::ostream* os) {
  *os << (c.kind == FdKind::kPipe ? "pipe" : "socketpair") << "/" << c.backend;
}

int MakeFdPair(FdKind kind, int fds[2]) {
  return kind == FdKind::kPipe ? ::pipe(fds) : ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds);
}

struct ReuseReader {
  int fd = -1;
  long n = 0;
  int err = 0;
  char byte = 0;
};
ReuseReader g_reuse_reader;
int g_reuse_wfd = -1;

void* ReuseRead(void*) {
  ReuseReader& r = g_reuse_reader;
  r.n = pt_read(r.fd, &r.byte, 1);
  r.err = r.n < 0 ? errno : 0;
  return nullptr;
}

void* ReuseLateWriter(void*) {
  pt_delay(20'000'000);  // the process sleeps in the readiness call first
  ::write(g_reuse_wfd, "b", 1);
  return nullptr;
}

pt_thread_t g_reuse_victim;

void* ReuseWatchdog(void*) {
  pt_delay(2'000'000'000);  // cancelled as soon as the reader finishes
  pt_kill(g_reuse_victim, SIGUSR1);  // a hung reader fails with EINTR instead of hanging
  return nullptr;
}

class IoFdReuseTest : public ::testing::TestWithParam<ReuseCase> {
 protected:
  void SetUp() override {
    ASSERT_EQ(0, ::setenv("FSUP_IO_BACKEND", GetParam().backend, 1));
    pt_reinit();
    ASSERT_EQ(0, pt_sigaction(SIGUSR1, +[](int) {}, 0));
  }
  void TearDown() override {
    ::unsetenv("FSUP_IO_BACKEND");
    pt_reinit();
  }
};

TEST_P(IoFdReuseTest, ReaderOnReusedFdNumberWakes) {
  const FdKind kind = GetParam().kind;
  int a[2];
  ASSERT_EQ(0, MakeFdPair(kind, a));
  const int number = a[0];

  // 1. A reader waits once on `number`, which registers it (and leaves it in the cache).
  g_reuse_reader = ReuseReader{};
  g_reuse_reader.fd = number;
  pt_thread_t reader;
  ASSERT_EQ(0, pt_create(&reader, nullptr, &ReuseRead, nullptr));
  pt_yield();
  ASSERT_EQ(1, ::write(a[1], "a", 1));
  ASSERT_EQ(0, pt_join(reader, nullptr));
  ASSERT_EQ(1, g_reuse_reader.n);

  // 2. Close both ends: the kernel drops the registration with the last reference.
  ::close(a[0]);
  ::close(a[1]);

  // 3. A new file gets the same number.
  int b[2];
  ASSERT_EQ(0, MakeFdPair(kind, b));
  if (b[0] != number) {
    ASSERT_EQ(number, ::dup2(b[0], number));
    ::close(b[0]);
    b[0] = number;
  }

  // 4. Read it while another thread writes after the process has gone to sleep.
  g_reuse_reader = ReuseReader{};
  g_reuse_reader.fd = number;
  g_reuse_wfd = b[1];
  pt_thread_t writer, watchdog;
  ASSERT_EQ(0, pt_create(&reader, nullptr, &ReuseRead, nullptr));
  g_reuse_victim = reader;
  ASSERT_EQ(0, pt_create(&watchdog, nullptr, &ReuseWatchdog, nullptr));
  ASSERT_EQ(0, pt_create(&writer, nullptr, &ReuseLateWriter, nullptr));
  ASSERT_EQ(0, pt_join(reader, nullptr));
  pt_cancel(watchdog);
  ASSERT_EQ(0, pt_join(watchdog, nullptr));
  ASSERT_EQ(0, pt_join(writer, nullptr));

  EXPECT_EQ(1, g_reuse_reader.n) << "reader on the reused fd never woke (errno "
                                 << g_reuse_reader.err << ")";
  EXPECT_EQ('b', g_reuse_reader.byte);
  ::close(b[0]);
  ::close(b[1]);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, IoFdReuseTest,
    ::testing::Values(ReuseCase{FdKind::kPipe, "epoll"}, ReuseCase{FdKind::kSocketpair, "epoll"},
                      ReuseCase{FdKind::kPipe, "poll"}, ReuseCase{FdKind::kSocketpair, "poll"}),
    [](const ::testing::TestParamInfo<ReuseCase>& info) {
      return std::string(info.param.kind == FdKind::kPipe ? "Pipe" : "Socketpair") +
             (info.param.backend[0] == 'e' ? "Epoll" : "Poll");
    });

}  // namespace
}  // namespace fsup
