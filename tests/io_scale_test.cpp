// The lifted waiter cap and the epoll interest cache (ISSUE 4 tentpole coverage).
//
// The seed kept a fixed 64-slot waiter table: the 65th simultaneous fd wait failed with
// EAGAIN. Waiters now hang off per-fd FdState nodes through the TCB's wait link, so these
// tests drive well past 64 concurrent waiters, mix event masks on one fd, interrupt an
// epoll-registered waiter with a fake call, and pin the interest-cache contract: steady-state
// waits make zero epoll_ctl calls, and a readiness report that wakes nobody is demoted out of
// the kernel's interest set exactly once. The whole suite also runs under FSUP_IO_BACKEND=poll
// (a ctest variant), where the epoll-only assertions step aside.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>

#include "src/core/pthread.hpp"
#include "src/hostos/fault.hpp"
#include "src/hostos/unix_if.hpp"
#include "src/io/io.hpp"

namespace fsup {
namespace {

class IoScaleTest : public ::testing::Test {
 protected:
  void SetUp() override { pt_reinit(); }
  void TearDown() override { hostos::fault::Clear(); }
};

// > 64 threads blocked on distinct fds at once — the seed's AllocSlot would have answered
// EAGAIN for every waiter past the 64th.
TEST_F(IoScaleTest, ManyWaitersBeyondSeedCap) {
  constexpr int kThreads = 80;
  static int pipes[kThreads][2];
  static long got[kThreads];
  static char bytes[kThreads];
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_EQ(0, ::pipe(pipes[i]));
    got[i] = 0;
    bytes[i] = 0;
  }
  auto reader = +[](void* ap) -> void* {
    const int i = static_cast<int>(reinterpret_cast<intptr_t>(ap));
    got[i] = pt_read(pipes[i][0], &bytes[i], 1);
    return nullptr;
  };
  pt_thread_t t[kThreads];
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_EQ(0, pt_create(&t[i], nullptr, reader, reinterpret_cast<void*>(intptr_t{i})));
  }
  pt_yield();  // every reader runs and suspends on its empty pipe
  EXPECT_EQ(kThreads, io::GetStats().active_waiters);
  for (int i = 0; i < kThreads; ++i) {
    const char c = static_cast<char>('a' + i % 26);
    ASSERT_EQ(1, ::write(pipes[i][1], &c, 1));
  }
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_EQ(0, pt_join(t[i], nullptr));
    EXPECT_EQ(1, got[i]) << "reader " << i;
    EXPECT_EQ(static_cast<char>('a' + i % 26), bytes[i]) << "reader " << i;
  }
  EXPECT_EQ(0, io::GetStats().active_waiters);
  for (int i = 0; i < kThreads; ++i) {
    ::close(pipes[i][0]);
    ::close(pipes[i][1]);
  }
}

// Two waiters on the SAME fd with distinct masks: one needs POLLIN, one needs POLLOUT. Each
// must wake only on its own readiness (a socketpair end can be unreadable and unwritable at
// the same time once its send buffer is full).
TEST_F(IoScaleTest, SameFdDistinctEventMasks) {
  int sv[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
  const int sndbuf = 4096;
  ASSERT_EQ(0, ::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf)));

  struct Arg {
    int fd;
    long n = 0;
    char byte = 0;
  };
  static Arg rd, wr;
  rd = Arg{};
  wr = Arg{};
  rd.fd = sv[0];
  wr.fd = sv[0];

  // Fill sv[0]'s send side so the writer thread must block for POLLOUT.
  long stuffed = 0;
  {
    char chunk[1024] = {};
    for (;;) {
      const long n = ::send(sv[0], chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n < 0) {
        ASSERT_EQ(EAGAIN, errno);
        break;
      }
      stuffed += n;
    }
    ASSERT_GT(stuffed, 0);
  }

  auto reader = +[](void*) -> void* {
    rd.n = pt_read(rd.fd, &rd.byte, 1);  // blocks: peer has sent nothing
    return nullptr;
  };
  auto writer = +[](void*) -> void* {
    wr.byte = 'W';
    wr.n = pt_write(wr.fd, &wr.byte, 1);  // blocks: send buffer is full
    return nullptr;
  };
  pt_thread_t tr, tw;
  ASSERT_EQ(0, pt_create(&tr, nullptr, reader, nullptr));
  ASSERT_EQ(0, pt_create(&tw, nullptr, writer, nullptr));
  pt_yield();
  EXPECT_EQ(2, io::GetStats().active_waiters);

  // Drain the peer: sv[0] becomes writable, which must complete the writer but NOT the reader.
  char sink[2048];
  long drained = 0;
  while (drained < stuffed) {
    const long n = ::recv(sv[1], sink, sizeof(sink), MSG_DONTWAIT);
    if (n <= 0) {
      break;
    }
    drained += n;
  }
  ASSERT_EQ(0, pt_join(tw, nullptr));
  EXPECT_EQ(1, wr.n);
  EXPECT_EQ(1, io::GetStats().active_waiters);  // the reader still waits

  // Now satisfy the reader from the peer side.
  ASSERT_EQ(1, ::send(sv[1], "R", 1, 0));
  ASSERT_EQ(0, pt_join(tr, nullptr));
  EXPECT_EQ(1, rd.n);
  EXPECT_EQ('R', rd.byte);
  EXPECT_EQ(0, io::GetStats().active_waiters);

  ::close(sv[0]);
  ::close(sv[1]);
}

// A fake call (user signal handler) interrupting an epoll-registered waiter must leave no
// stale wait-list entry, and the fd must remain fully usable afterwards.
TEST_F(IoScaleTest, HandlerInterruptionLeavesNoStaleWaiterState) {
  int fds[2];
  ASSERT_EQ(0, ::pipe(fds));
  static int handled;
  handled = 0;
  ASSERT_EQ(0, pt_sigaction(SIGUSR1, +[](int) { ++handled; }, 0));

  struct Arg {
    int fd;
    long n = 0;
    int err = 0;
  };
  static Arg a;
  a = Arg{};
  a.fd = fds[0];
  auto reader = +[](void*) -> void* {
    char buf[4];
    a.n = pt_read(a.fd, buf, sizeof(buf));
    a.err = errno;
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, reader, nullptr));
  pt_yield();
  EXPECT_EQ(1, io::GetStats().active_waiters);
  ASSERT_EQ(0, pt_kill(t, SIGUSR1));  // fake call unblocks the waiter via ForgetThread
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(1, handled);
  EXPECT_EQ(-1, a.n);
  EXPECT_EQ(EINTR, a.err);
  EXPECT_EQ(0, io::GetStats().active_waiters);  // no stale wait-list entry

  // The interest cache may still hold the fd (that is the point of the cache); readiness on
  // it with no waiter must be absorbed (demoted), not crash or spin, and a fresh wait on the
  // same fd must work.
  ASSERT_EQ(1, ::write(fds[1], "x", 1));
  pt_delay(1'000'000);  // forces idle passes with the stale readiness outstanding
  char buf[4] = {};
  EXPECT_EQ(1, pt_read(fds[0], buf, sizeof(buf)));
  EXPECT_EQ('x', buf[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

// The acceptance criterion in miniature: once an fd's registration is cached, wait/wake
// cycles make ZERO epoll_ctl calls — the interest set is kernel-owned and persistent.
TEST_F(IoScaleTest, SteadyStateWaitsMakeZeroEpollCtlCalls) {
  int data[2], ack[2];
  ASSERT_EQ(0, ::pipe(data));
  ASSERT_EQ(0, ::pipe(ack));

  struct Arg {
    int rfd, wfd;
    int rounds = 0;
  };
  static Arg a;
  a = Arg{};
  a.rfd = data[0];
  a.wfd = ack[1];
  auto echo = +[](void*) -> void* {
    char b;
    while (pt_read(a.rfd, &b, 1) == 1 && b != 'q') {
      pt_write(a.wfd, &b, 1);
      ++a.rounds;
    }
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, echo, nullptr));

  auto round = [&](char c) {
    char b = 0;
    ASSERT_EQ(1, pt_write(data[1], &c, 1));
    ASSERT_EQ(1, pt_read(ack[0], &b, 1));
    ASSERT_EQ(c, b);
  };
  for (int i = 0; i < 5; ++i) {
    round('w');  // warm the interest cache for all four pipe ends involved
  }
  if (!io::GetStats().epoll_backend) {
    ASSERT_EQ(1, pt_write(data[1], "q", 1));
    ASSERT_EQ(0, pt_join(t, nullptr));
    GTEST_SKIP() << "interest-cache contract applies to the epoll backend only";
  }

  const uint64_t ctl_before = hostos::CallCount(hostos::Call::kEpollCtl);
  const io::IoStats before = io::GetStats();
  constexpr int kRounds = 50;
  for (int i = 0; i < kRounds; ++i) {
    round('s');
  }
  const uint64_t ctl_after = hostos::CallCount(hostos::Call::kEpollCtl);
  const io::IoStats after = io::GetStats();

  EXPECT_EQ(ctl_before, ctl_after) << "steady-state waits must not touch epoll_ctl";
  // Each round suspends both the echo thread (data pipe) and main (ack pipe).
  EXPECT_EQ(before.waits + 2 * kRounds, after.waits);
  EXPECT_EQ(before.cache_hits + 2 * kRounds, after.cache_hits);
  EXPECT_EQ(after.cache_misses, before.cache_misses);

  ASSERT_EQ(1, pt_write(data[1], "q", 1));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(5 + kRounds, a.rounds);
  ::close(data[0]);
  ::close(data[1]);
  ::close(ack[0]);
  ::close(ack[1]);
}

// Readiness that wakes no waiter (data arrived for a cached fd nobody currently reads) must
// be demoted out of the interest set exactly once — not reported again on every idle pass.
TEST_F(IoScaleTest, StaleReadinessIsDemotedOnce) {
  int fds[2], other[2];
  ASSERT_EQ(0, ::pipe(fds));
  ASSERT_EQ(0, ::pipe(other));

  // Register fds[0] in the interest cache via a completed read.
  static int rfd;
  rfd = fds[0];
  auto reader = +[](void*) -> void* {
    char b;
    pt_read(rfd, &b, 1);
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, reader, nullptr));
  pt_yield();
  ASSERT_EQ(1, ::write(fds[1], "1", 1));
  ASSERT_EQ(0, pt_join(t, nullptr));
  if (!io::GetStats().epoll_backend) {
    GTEST_SKIP() << "demotion exists only where a kernel-owned interest set does";
  }

  // Leave a byte nobody reads, then drive idle passes by sleeping: the first pass reports
  // fds[0], wakes nobody, and demotes it; later passes must not see it again.
  ASSERT_EQ(1, ::write(fds[1], "2", 1));
  const uint64_t demotions_before = io::GetStats().demotions;
  pt_delay(2'000'000);
  pt_delay(2'000'000);
  pt_delay(2'000'000);
  const uint64_t demotions_after = io::GetStats().demotions;
  EXPECT_EQ(demotions_before + 1, demotions_after);

  // The fd still works: a fresh wait re-registers and completes.
  char buf[4] = {};
  EXPECT_EQ(1, pt_read(fds[0], buf, 1));
  EXPECT_EQ('2', buf[0]);
  ::close(fds[0]);
  ::close(fds[1]);
  ::close(other[0]);
  ::close(other[1]);
}

// An injected epoll_ctl failure surfaces as a clean EAGAIN from the wait, leaks no waiter,
// and the next (uninjected) wait on the same fd succeeds.
TEST_F(IoScaleTest, EpollCtlFaultFailsWaitCleanly) {
  int fds[2];
  ASSERT_EQ(0, ::pipe(fds));
  {  // resolve the backend before arming the fault, so the probe below is meaningful: only a
     // read that waits resolves it (one that finds data never reaches the registry)
    static int pfd;
    pfd = fds[0];
    auto probe = +[](void*) -> void* {
      char b;
      pt_read(pfd, &b, 1);
      return nullptr;
    };
    pt_thread_t p;
    ASSERT_EQ(0, pt_create(&p, nullptr, probe, nullptr));
    pt_yield();
    ASSERT_EQ(1, ::write(fds[1], "p", 1));
    ASSERT_EQ(0, pt_join(p, nullptr));
  }
  if (!io::GetStats().epoll_backend) {
    GTEST_SKIP() << "injects at the epoll boundary";
  }

  int second[2];
  ASSERT_EQ(0, ::pipe(second));  // an fd the cache has never seen: the wait MUST call ctl
  hostos::fault::FailNth(hostos::Call::kEpollCtl, 1, ENOMEM);
  static int sfd;
  sfd = second[0];
  static long n;
  static int err;
  auto reader = +[](void*) -> void* {
    char b;
    errno = 0;
    n = pt_read(sfd, &b, 1);
    err = errno;
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, reader, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(-1, n);
  EXPECT_EQ(EAGAIN, err);
  EXPECT_EQ(0, io::GetStats().active_waiters);
  hostos::fault::Clear();

  ASSERT_EQ(0, pt_create(&t, nullptr, reader, nullptr));
  pt_yield();
  ASSERT_EQ(1, ::write(second[1], "y", 1));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(1, n);
  ::close(fds[0]);
  ::close(fds[1]);
  ::close(second[0]);
  ::close(second[1]);
}

}  // namespace
}  // namespace fsup
