// Deterministic count gate for the transfer path: exact host-call counts per warm round trip,
// not timings. One round trip is main pt_write → echo thread pt_read/pt_write → main pt_read,
// so it is four pt_* calls and six transfer attempts: main's write, main's read (EAGAIN, then
// the retry after its wait), the echo thread's retry read, its reply write, and its next read
// (EAGAIN). Both suspensions end in an idle pass that finds the other side ready.
//
//   socketpair: every attempt is one recv/send; no fcntl and no ENOTSOCK probe.
//   pipe:       one F_GETFL per pt_* call (exactly as before MSG_DONTWAIT), no probe.
//
// Under epoll, each idle pass is one zero-timeout probe that finds the peer ready, so the
// steady state makes no epoll_ctl call and one epoll_wait per suspension. Under either
// backend an idle pass makes no sigprocmask call: signals are already unblocked, and the
// shadowed mask knows it. (ctest runs this binary once per backend.)

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>

#include "src/core/pthread.hpp"
#include "src/hostos/unix_if.hpp"
#include "src/io/io.hpp"

namespace fsup {
namespace {

constexpr int kWarmRounds = 5;
constexpr uint64_t kRounds = 100;

struct Channel {
  int main_rfd, main_wfd;  // main writes requests and reads replies here
  int echo_rfd, echo_wfd;  // the echo thread reads requests and writes replies here
};

Channel g_ch;

void* Echo(void*) {
  char b;
  while (pt_read(g_ch.echo_rfd, &b, 1) == 1 && b != 'q') {
    pt_write(g_ch.echo_wfd, &b, 1);
  }
  return nullptr;
}

struct Delta {
  uint64_t transfers, mode_calls, notsock_probes, waits, epoll_ctl, epoll_wait, sigprocmask;
};

// Runs warm-up rounds, then kRounds measured ones, and returns the counter deltas.
Delta MeasureRoundTrips(const Channel& ch) {
  g_ch = ch;
  pt_thread_t t;
  EXPECT_EQ(0, pt_create(&t, nullptr, &Echo, nullptr));
  auto round = [&](char c) {
    char b = 0;
    EXPECT_EQ(1, pt_write(ch.main_wfd, &c, 1));
    EXPECT_EQ(1, pt_read(ch.main_rfd, &b, 1));
    EXPECT_EQ(c, b);
  };
  for (int i = 0; i < kWarmRounds; ++i) {
    round('w');
  }
  const io::IoStats s0 = io::GetStats();
  const uint64_t ctl0 = hostos::CallCount(hostos::Call::kEpollCtl);
  const uint64_t ew0 = hostos::CallCount(hostos::Call::kEpollWait);
  const uint64_t mask0 = hostos::CallCount(hostos::Call::kSigprocmask);
  for (uint64_t i = 0; i < kRounds; ++i) {
    round('s');
  }
  const io::IoStats s1 = io::GetStats();
  Delta d{s1.transfers - s0.transfers,
          s1.mode_calls - s0.mode_calls,
          s1.notsock_probes - s0.notsock_probes,
          s1.waits - s0.waits,
          hostos::CallCount(hostos::Call::kEpollCtl) - ctl0,
          hostos::CallCount(hostos::Call::kEpollWait) - ew0,
          hostos::CallCount(hostos::Call::kSigprocmask) - mask0};
  EXPECT_EQ(1, pt_write(ch.main_wfd, "q", 1));
  EXPECT_EQ(0, pt_join(t, nullptr));
  return d;
}

void ExpectIdlePassCounts(const Delta& d) {
  EXPECT_EQ(2 * kRounds, d.waits);
  EXPECT_EQ(0u, d.sigprocmask) << "an idle pass changed a mask that was already unblocked";
  if (!io::GetStats().epoll_backend) {
    return;
  }
  EXPECT_EQ(0u, d.epoll_ctl) << "steady-state waits must not touch epoll_ctl";
  EXPECT_EQ(2 * kRounds, d.epoll_wait) << "one probe per suspension";
}

TEST(IoCountTest, WarmSocketpairRoundTripIsOneCallPerAttempt) {
  pt_reinit();
  int sv[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
  const Delta d = MeasureRoundTrips(Channel{sv[0], sv[0], sv[1], sv[1]});
  EXPECT_EQ(6 * kRounds, d.transfers);
  EXPECT_EQ(0u, d.mode_calls) << "a socket transfer made an fcntl call";
  EXPECT_EQ(0u, d.notsock_probes);
  ExpectIdlePassCounts(d);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(IoCountTest, WarmPipeRoundTripMakesOneGetflPerCall) {
  pt_reinit();
  int req[2], rep[2];
  ASSERT_EQ(0, ::pipe(req));
  ASSERT_EQ(0, ::pipe(rep));
  const Delta d = MeasureRoundTrips(Channel{rep[0], req[1], req[0], rep[1]});
  EXPECT_EQ(6 * kRounds, d.transfers);
  EXPECT_EQ(4 * kRounds, d.mode_calls) << "one F_GETFL per pt_read/pt_write call";
  EXPECT_EQ(0u, d.notsock_probes) << "a known pipe probed recv/send again";
  ExpectIdlePassCounts(d);
  ::close(req[0]);
  ::close(req[1]);
  ::close(rep[0]);
  ::close(rep[1]);
}

}  // namespace
}  // namespace fsup
