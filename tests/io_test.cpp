// Asynchronous I/O: pt_read/pt_write suspend only the calling thread; other threads keep
// running; readiness wakes the sleeper from the idle loop's poll. Pipes take the O_NONBLOCK
// path, sockets the MSG_DONTWAIT path that never touches the socket's flags, one fd number
// can move between the two, and other fd kinds still work.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "src/core/pthread.hpp"
#include "src/io/io.hpp"

namespace fsup {
namespace {

enum class FdKind { kPipe, kSocketpair };

// fds[0] reads, fds[1] writes; a socketpair's ends are also usable the other way round.
int MakeFdPair(FdKind kind, int fds[2]) {
  return kind == FdKind::kPipe ? ::pipe(fds) : ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds);
}

// Every case runs over a pipe (the F_GETFL/O_NONBLOCK path) and over an AF_UNIX socketpair
// (recv/send with MSG_DONTWAIT).
class IoTest : public ::testing::TestWithParam<FdKind> {
 protected:
  void SetUp() override {
    pt_reinit();
    ASSERT_EQ(0, MakeFdPair(GetParam(), fds_));
  }
  void TearDown() override {
    for (const int fd : fds_) {
      if (fd >= 0) {
        ::close(fd);
      }
    }
  }

  int fds_[2];
};

TEST_P(IoTest, ReadReturnsAvailableData) {
  ASSERT_EQ(5, ::write(fds_[1], "hello", 5));
  char buf[16] = {};
  EXPECT_EQ(5, pt_read(fds_[0], buf, sizeof(buf)));
  EXPECT_STREQ("hello", buf);
}

TEST_P(IoTest, ReadBlocksOnlyTheCallingThread) {
  struct Arg {
    int fd;
    char buf[16] = {};
    long n = 0;
  };
  static Arg a;
  a = Arg{};
  a.fd = fds_[0];
  auto reader = +[](void*) -> void* {
    a.n = pt_read(a.fd, a.buf, sizeof(a.buf));
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, reader, nullptr));
  pt_yield();  // reader suspends on the empty pipe
  EXPECT_EQ(0, a.n);
  // We are clearly still running; produce the data and let the reader finish.
  ASSERT_EQ(4, ::write(fds_[1], "data", 4));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(4, a.n);
  EXPECT_STREQ("data", a.buf);
}

TEST_P(IoTest, TwoReadersOnDifferentFdsBothComplete) {
  int fds2[2];
  ASSERT_EQ(0, MakeFdPair(GetParam(), fds2));
  struct Arg {
    int fd;
    long n = 0;
    char buf[8] = {};
  };
  static Arg a1, a2;
  a1 = Arg{};
  a2 = Arg{};
  a1.fd = fds_[0];
  a2.fd = fds2[0];
  auto reader = +[](void* ap) -> void* {
    auto* a = static_cast<Arg*>(ap);
    a->n = pt_read(a->fd, a->buf, sizeof(a->buf));
    return nullptr;
  };
  pt_thread_t t1, t2;
  ASSERT_EQ(0, pt_create(&t1, nullptr, reader, &a1));
  ASSERT_EQ(0, pt_create(&t2, nullptr, reader, &a2));
  pt_yield();
  ASSERT_EQ(2, ::write(fds2[1], "BB", 2));  // second pipe first
  ASSERT_EQ(1, ::write(fds_[1], "A", 1));
  ASSERT_EQ(0, pt_join(t1, nullptr));
  ASSERT_EQ(0, pt_join(t2, nullptr));
  EXPECT_EQ(1, a1.n);
  EXPECT_EQ(2, a2.n);
  ::close(fds2[0]);
  ::close(fds2[1]);
}

TEST_P(IoTest, WriteToFullBufferSuspendsUntilDrained) {
  // Shrink the pipe or the socket send buffer to its minimum and fill it; the writer must
  // suspend, and draining from the main thread lets it finish.
  if (GetParam() == FdKind::kPipe) {
    ::fcntl(fds_[1], F_SETPIPE_SZ, 4096);
  } else {
    const int small = 4096;
    ASSERT_EQ(0, ::setsockopt(fds_[1], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small)));
  }
  constexpr long kTotal = 16 * 1024;
  struct Arg {
    int fd;
    long total = 0;
    bool done = false;
  };
  static Arg a;
  a = Arg{};
  a.fd = fds_[1];
  auto writer = +[](void*) -> void* {
    char chunk[1024];
    std::memset(chunk, 'x', sizeof(chunk));
    while (a.total < kTotal) {  // a socket may take part of a chunk
      const long want = std::min<long>(sizeof(chunk), kTotal - a.total);
      const long n = pt_write(a.fd, chunk, static_cast<size_t>(want));
      if (n < 0) {
        break;
      }
      a.total += n;
    }
    a.done = true;
    return nullptr;
  };
  const uint64_t waits = io::GetStats().waits;
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, writer, nullptr));
  pt_yield();  // writer fills the buffer and suspends
  EXPECT_FALSE(a.done);
  EXPECT_LT(waits, io::GetStats().waits);
  char sink[2048];
  long drained = 0;
  while (!a.done) {
    const long n = pt_read(fds_[0], sink, sizeof(sink));
    ASSERT_GT(n, 0);
    drained += n;
    pt_yield();
  }
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(kTotal, a.total);
  // Drain the remainder.
  while (drained < a.total) {
    const long n = pt_read(fds_[0], sink, sizeof(sink));
    ASSERT_GT(n, 0);
    drained += n;
  }
  EXPECT_EQ(a.total, drained);
}

TEST_P(IoTest, ReadInterruptedByHandlerReturnsEintr) {
  static int handled = 0;
  handled = 0;
  auto handler = +[](int) { ++handled; };
  ASSERT_EQ(0, pt_sigaction(SIGUSR1, handler, 0));
  struct Arg {
    int fd;
    long n = 0;
    int err = 0;
  };
  static Arg a;
  a = Arg{};
  a.fd = fds_[0];
  auto reader = +[](void*) -> void* {
    char buf[8];
    a.n = pt_read(a.fd, buf, sizeof(buf));
    a.err = errno;
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, reader, nullptr));
  pt_yield();
  ASSERT_EQ(0, pt_kill(t, SIGUSR1));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(1, handled);
  EXPECT_EQ(-1, a.n);
  EXPECT_EQ(EINTR, a.err);
}

TEST_P(IoTest, CancellationCutsReadShort) {
  struct Arg {
    int fd;
  };
  static Arg a;
  a.fd = fds_[0];
  auto reader = +[](void*) -> void* {
    char buf[8];
    pt_read(a.fd, buf, sizeof(buf));  // interruption point while suspended
    ADD_FAILURE() << "not reached";
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, reader, nullptr));
  pt_yield();
  ASSERT_EQ(0, pt_cancel(t));
  void* ret = nullptr;
  ASSERT_EQ(0, pt_join(t, &ret));
  EXPECT_EQ(kCanceled, ret);
}

TEST_P(IoTest, EofReturnsZero) {
  ::close(fds_[1]);
  fds_[1] = -1;
  char buf[8];
  EXPECT_EQ(0, pt_read(fds_[0], buf, sizeof(buf)));
}

TEST_P(IoTest, WriteToClosedPeerWithSigpipeIgnoredGivesEpipe) {
  ASSERT_EQ(0, pt_sigignore(SIGPIPE));
  ::close(fds_[0]);
  fds_[0] = -1;
  EXPECT_EQ(-1, pt_write(fds_[1], "x", 1));
  EXPECT_EQ(EPIPE, errno);
}

TEST_P(IoTest, WriteToClosedPeerRaisesSigpipe) {
  // send(2) runs without MSG_NOSIGNAL: a broken socket signals exactly as a broken pipe does.
  static int handled = 0;
  handled = 0;
  ASSERT_EQ(0, pt_sigaction(SIGPIPE, +[](int) { ++handled; }, 0));
  ::close(fds_[0]);
  fds_[0] = -1;
  EXPECT_EQ(-1, pt_write(fds_[1], "x", 1));
  EXPECT_EQ(EPIPE, errno);
  EXPECT_EQ(1, handled);
  ASSERT_EQ(0, pt_sigaction(SIGPIPE, nullptr, 0));
}

INSTANTIATE_TEST_SUITE_P(Fds, IoTest, ::testing::Values(FdKind::kPipe, FdKind::kSocketpair),
                         [](const ::testing::TestParamInfo<FdKind>& info) {
                           return info.param == FdKind::kPipe ? "Pipe" : "Socketpair";
                         });

// ---- sockets: recv/send with MSG_DONTWAIT ----------------------------------------------

bool NonBlocking(int fd) { return (::fcntl(fd, F_GETFL) & O_NONBLOCK) != 0; }

struct ReadArg {
  int fd = -1;
  long n = 0;
  int err = 0;
  char buf[16] = {};
};

void* ReadOnce(void* ap) {
  auto* a = static_cast<ReadArg*>(ap);
  a->n = pt_read(a->fd, a->buf, sizeof(a->buf));
  a->err = a->n < 0 ? errno : 0;
  return nullptr;
}

// Suspends a reader on fd, then writes `msg` to wfd and joins it: the read must have waited
// (one io wait) and then returned exactly msg.
void ExpectWaitedRead(int fd, int wfd, const char* msg) {
  ReadArg a;
  a.fd = fd;
  const uint64_t waits = io::GetStats().waits;
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, &ReadOnce, &a));
  pt_yield();
  EXPECT_EQ(waits + 1, io::GetStats().waits) << "reader did not suspend";
  const long len = static_cast<long>(std::strlen(msg));
  ASSERT_EQ(len, ::write(wfd, msg, len));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(len, a.n) << "errno " << a.err;
  EXPECT_EQ(0, std::memcmp(msg, a.buf, len));
}

TEST(IoSocketTest, FlagsStayAsTheUserSetThem) {
  pt_reinit();
  int sv[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
  ASSERT_FALSE(NonBlocking(sv[0]));
  const io::IoStats before = io::GetStats();
  ExpectWaitedRead(sv[0], sv[1], "x");
  ASSERT_EQ(2, pt_write(sv[0], "yz", 2));
  char buf[4];
  ASSERT_EQ(2, pt_read(sv[1], buf, sizeof(buf)));
  EXPECT_FALSE(NonBlocking(sv[0]));
  EXPECT_FALSE(NonBlocking(sv[1]));
  const io::IoStats after = io::GetStats();
  EXPECT_EQ(before.mode_calls, after.mode_calls) << "a socket transfer made an fcntl call";
  EXPECT_EQ(before.notsock_probes, after.notsock_probes);

  // A socket the user made non-blocking keeps that flag too.
  ASSERT_EQ(0, ::fcntl(sv[1], F_SETFL, ::fcntl(sv[1], F_GETFL) | O_NONBLOCK));
  ExpectWaitedRead(sv[1], sv[0], "nb");
  EXPECT_TRUE(NonBlocking(sv[1]));
  ::close(sv[0]);
  ::close(sv[1]);
}

// One fd number moves socket → pipe → socket through dup2. Every stale "socket or not" hint
// and every stale interest-cache entry along the way must be harmless, and every read waits.
TEST(IoSocketTest, FdNumberMovesBetweenSocketAndPipe) {
  pt_reinit();
  int sv[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
  const int x = sv[0];
  ExpectWaitedRead(x, sv[1], "sock");

  int p[2];
  ASSERT_EQ(0, ::pipe(p));
  ASSERT_EQ(x, ::dup2(p[0], x));  // the socket end closes; x is now the only pipe read end
  ::close(p[0]);
  const uint64_t probes = io::GetStats().notsock_probes;
  ExpectWaitedRead(x, p[1], "pipe");
  ExpectWaitedRead(x, p[1], "again");
  EXPECT_EQ(probes + 1, io::GetStats().notsock_probes) << "one ENOTSOCK, then remembered";
  EXPECT_TRUE(NonBlocking(x));  // pipes still get O_NONBLOCK

  int s2[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, s2));
  ASSERT_EQ(x, ::dup2(s2[0], x));  // the pipe closes; x is a socket again
  ::close(s2[0]);
  ExpectWaitedRead(x, s2[1], "sock2");
  EXPECT_EQ(probes + 1, io::GetStats().notsock_probes);
  EXPECT_FALSE(NonBlocking(x)) << "the stale hint set O_NONBLOCK on a socket";
  ASSERT_EQ(3, pt_write(x, "out", 3));
  char buf[4] = {};
  ASSERT_EQ(3, pt_read(s2[1], buf, sizeof(buf)));
  EXPECT_STREQ("out", buf);

  ::close(x);
  ::close(sv[1]);
  ::close(p[1]);
  ::close(s2[1]);
}

TEST(IoOtherFdTest, EventfdDevNullAndRegularFileStillWork) {
  pt_reinit();
  const int efd = ::eventfd(0, 0);
  ASSERT_GE(efd, 0);
  uint64_t v = 42;
  ASSERT_EQ(8, pt_write(efd, &v, sizeof(v)));
  v = 0;
  ASSERT_EQ(8, pt_read(efd, &v, sizeof(v)));
  EXPECT_EQ(42u, v);
  ::close(efd);

  const int null = ::open("/dev/null", O_RDWR);
  ASSERT_GE(null, 0);
  EXPECT_EQ(5, pt_write(null, "hello", 5));
  char buf[8];
  EXPECT_EQ(0, pt_read(null, buf, sizeof(buf)));
  ::close(null);

  FILE* f = std::tmpfile();
  ASSERT_NE(nullptr, f);
  const int fd = ::fileno(f);
  EXPECT_EQ(6, pt_write(fd, "regfil", 6));
  ASSERT_EQ(0, ::lseek(fd, 0, SEEK_SET));
  char rb[8] = {};
  EXPECT_EQ(6, pt_read(fd, rb, sizeof(rb)));
  EXPECT_STREQ("regfil", rb);
  std::fclose(f);
}

}  // namespace
}  // namespace fsup
