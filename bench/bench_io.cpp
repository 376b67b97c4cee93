// I/O readiness scaling: waits/sec and syscalls/wakeup as the registered-waiter count grows.
//
// N threads each block reading their own pipe; one shared ack pipe carries replies back to
// the driver. Every round wakes exactly ONE waiter (round-robin single-byte write) and then
// blocks the driver on the ack — so each round costs two suspensions and two idle-loop
// readiness probes while N-1 threads stay registered. That shape is the discriminator: the
// epoll backend pays O(ready)=O(1) per probe against a persistent interest set, while the
// poll fallback rebuilds and scans all N+1 registered fds per probe, so its per-wait cost
// grows with N. The acceptance criterion (ISSUE 4): epoll waits/sec at N=4096 within 2x of
// N=8, and >=90% of steady-state waits performing zero epoll_ctl calls.
//
// A second table prices the transfer path: one warm single-waiter round trip (main writes,
// an echo thread reads and replies, main reads the reply) over a pipe and over an AF_UNIX
// socketpair, in ns per round trip and in I/O host calls per round trip (transfer attempts
// plus fcntl mode calls, from io::IoStats). Sockets take recv/send with MSG_DONTWAIT and no
// fcntl; pipes keep one F_GETFL per pt_read/pt_write call.
//
// Usage: bench_io [--json PATH]. Writes BENCH_io.json unless --json names another file: one
// row per backend x N, and one round-trip row per fd kind.

#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>

#include "bench/bench_args.hpp"
#include "src/core/pthread.hpp"
#include "src/hostos/unix_if.hpp"
#include "src/io/io.hpp"
#include "src/util/dual_loop_timer.hpp"

namespace fsup {
namespace {

constexpr int kCounts[] = {8, 64, 512, 4096};
constexpr int kMaxThreads = 4096;

struct Row {
  const char* backend;
  int n = 0;
  int rounds = 0;
  double elapsed_s = 0;
  double waits_per_sec = 0;
  double ctl_per_wait = 0;    // epoll_ctl syscalls per wait (steady state: ~0)
  double probes_per_wait = 0; // readiness syscalls (epoll_wait or poll) per wait
  double ctl_free_fraction = 0;  // waits served purely from the interest cache
  bool valid = false;
};

struct Echo {
  int rfd = -1;
  int ack_wfd = -1;
};

Echo g_echo[kMaxThreads];

void* EchoThread(void* ap) {
  const Echo* e = static_cast<const Echo*>(ap);
  char b;
  while (pt_read(e->rfd, &b, 1) == 1 && b != 'q') {
    pt_write(e->ack_wfd, &b, 1);
  }
  return nullptr;
}

// Fewer rounds where a single round is expensive (the poll backend at large N), enough rounds
// everywhere for stable rates.
int RoundsFor(bool epoll, int n) {
  if (epoll) {
    return 4000;
  }
  if (n <= 64) {
    return 4000;
  }
  return n <= 512 ? 1500 : 400;
}

bool RaiseFdLimitFor(int n) {
  const rlim_t need = static_cast<rlim_t>(2 * n + 64);
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) {
    return false;
  }
  if (rl.rlim_cur >= need) {
    return true;
  }
  if (rl.rlim_max < need) {
    return false;
  }
  rl.rlim_cur = need;
  return ::setrlimit(RLIMIT_NOFILE, &rl) == 0;
}

Row RunOne(const char* backend, int n) {
  Row row;
  row.backend = backend;
  row.n = n;
  if (!RaiseFdLimitFor(n)) {
    std::fprintf(stderr, "bench_io: fd limit too low for N=%d, skipping\n", n);
    return row;
  }
  pt_reinit();  // fresh interest cache + io counters under the requested backend

  static int pipes[kMaxThreads][2];
  int ack[2];
  if (::pipe(ack) != 0) {
    std::perror("pipe");
    return row;
  }
  static pt_thread_t threads[kMaxThreads];
  ThreadAttr attr;
  attr.stack_size = 32 * 1024;  // the echo loop is shallow; keep 4096 stacks affordable
  for (int i = 0; i < n; ++i) {
    if (::pipe(pipes[i]) != 0) {
      std::perror("pipe");
      return row;
    }
    g_echo[i].rfd = pipes[i][0];
    g_echo[i].ack_wfd = ack[1];
    if (pt_create(&threads[i], &attr, &EchoThread, &g_echo[i]) != 0) {
      std::fprintf(stderr, "bench_io: pt_create failed at %d\n", i);
      return row;
    }
  }

  auto round = [&](int i) {
    char b = 'x';
    pt_write(pipes[i][1], &b, 1);
    pt_read(ack[0], &b, 1);
  };

  // Warmup: one wake per thread registers every pipe read end (plus the ack end) in the
  // interest cache, so the measured window is the steady state the cache is built for.
  for (int i = 0; i < n; ++i) {
    round(i);
  }

  const int rounds = RoundsFor(io::GetStats().epoll_backend, n);
  row.rounds = rounds;
  const io::IoStats s0 = io::GetStats();
  const uint64_t ctl0 = hostos::CallCount(hostos::Call::kEpollCtl);
  const uint64_t ew0 = hostos::CallCount(hostos::Call::kEpollWait);
  const uint64_t pl0 = hostos::CallCount(hostos::Call::kPoll);
  const int64_t t0 = NowNs();
  for (int r = 0; r < rounds; ++r) {
    round(r % n);
  }
  const int64_t t1 = NowNs();
  const io::IoStats s1 = io::GetStats();
  const uint64_t waits = s1.waits - s0.waits;
  const uint64_t ctl = hostos::CallCount(hostos::Call::kEpollCtl) - ctl0;
  const uint64_t probes =
      (hostos::CallCount(hostos::Call::kEpollWait) - ew0) +
      (hostos::CallCount(hostos::Call::kPoll) - pl0);

  row.elapsed_s = static_cast<double>(t1 - t0) / 1e9;
  row.waits_per_sec = row.elapsed_s > 0 ? static_cast<double>(waits) / row.elapsed_s : 0;
  row.ctl_per_wait = waits > 0 ? static_cast<double>(ctl) / static_cast<double>(waits) : 0;
  row.probes_per_wait =
      waits > 0 ? static_cast<double>(probes) / static_cast<double>(waits) : 0;
  row.ctl_free_fraction =
      waits > 0 ? static_cast<double>(s1.cache_hits - s0.cache_hits) /
                      static_cast<double>(waits)
                : 0;
  row.valid = true;

  for (int i = 0; i < n; ++i) {
    char q = 'q';
    pt_write(pipes[i][1], &q, 1);
  }
  for (int i = 0; i < n; ++i) {
    pt_join(threads[i], nullptr);
  }
  for (int i = 0; i < n; ++i) {
    ::close(pipes[i][0]);
    ::close(pipes[i][1]);
  }
  ::close(ack[0]);
  ::close(ack[1]);
  return row;
}

// ---- warm round trips over one fd pair ---------------------------------------------------

constexpr int kRtReps = 5;
constexpr int kRtRounds = 20000;

struct RoundTrip {
  const char* kind;
  double ns = 0;          // mean over kRtReps repetitions
  double ns_stderr = 0;
  double io_calls = 0;    // transfers + mode_calls per round trip
  double transfers = 0;   // recv/send/read/write attempts per round trip
  double mode_calls = 0;  // fcntl calls per round trip
  double probes = 0;      // ENOTSOCK probes per round trip
  bool valid = false;
};

struct RtChannel {
  int main_rfd, main_wfd, echo_rfd, echo_wfd;
};
RtChannel g_rt;

void* RtEcho(void*) {
  char b;
  while (pt_read(g_rt.echo_rfd, &b, 1) == 1 && b != 'q') {
    pt_write(g_rt.echo_wfd, &b, 1);
  }
  return nullptr;
}

RoundTrip RunRoundTrip(const char* kind) {
  RoundTrip rt;
  rt.kind = kind;
  pt_reinit();
  int a[2], b[2] = {-1, -1};
  const bool socket = std::strcmp(kind, "socketpair") == 0;
  if (socket ? ::socketpair(AF_UNIX, SOCK_STREAM, 0, a) != 0 : ::pipe(a) != 0 || ::pipe(b) != 0) {
    std::perror(kind);
    return rt;
  }
  g_rt = socket ? RtChannel{a[0], a[0], a[1], a[1]} : RtChannel{b[0], a[1], a[0], b[1]};
  pt_thread_t t;
  if (pt_create(&t, nullptr, &RtEcho, nullptr) != 0) {
    return rt;
  }
  auto rounds = [](int n) {
    for (int i = 0; i < n; ++i) {
      char c = 'x';
      pt_write(g_rt.main_wfd, &c, 1);
      pt_read(g_rt.main_rfd, &c, 1);
    }
  };
  rounds(1000);  // warm: registrations cached, the pipe's ENOTSOCK remembered
  const io::IoStats s0 = io::GetStats();
  double ns[kRtReps];
  double sum = 0;
  for (double& x : ns) {
    const int64_t t0 = NowNs();
    rounds(kRtRounds);
    x = static_cast<double>(NowNs() - t0) / kRtRounds;
    sum += x;
  }
  const io::IoStats s1 = io::GetStats();
  rt.ns = sum / kRtReps;
  double var = 0;
  for (const double x : ns) {
    var += (x - rt.ns) * (x - rt.ns);
  }
  rt.ns_stderr = std::sqrt(var / (kRtReps - 1) / kRtReps);
  const double n = static_cast<double>(kRtReps) * kRtRounds;
  rt.transfers = static_cast<double>(s1.transfers - s0.transfers) / n;
  rt.mode_calls = static_cast<double>(s1.mode_calls - s0.mode_calls) / n;
  rt.probes = static_cast<double>(s1.notsock_probes - s0.notsock_probes) / n;
  rt.io_calls = rt.transfers + rt.mode_calls;
  rt.valid = true;

  char q = 'q';
  pt_write(g_rt.main_wfd, &q, 1);
  pt_join(t, nullptr);
  for (const int fd : {a[0], a[1], b[0], b[1]}) {
    if (fd >= 0) {
      ::close(fd);
    }
  }
  return rt;
}

void PrintRoundTrip(const RoundTrip& r) {
  if (!r.valid) {
    std::printf("| %-10s |   (failed)\n", r.kind);
    return;
  }
  std::printf("| %-10s | %8.0f ± %4.0f | %8.2f | %9.2f | %10.2f | %6.2f |\n", r.kind, r.ns,
              r.ns_stderr, r.io_calls, r.transfers, r.mode_calls, r.probes);
}

void Print(const Row& r) {
  if (!r.valid) {
    std::printf("| %-5s | %5d |   (skipped)\n", r.backend, r.n);
    return;
  }
  std::printf("| %-5s | %5d | %6d | %12.0f | %10.4f | %10.2f | %8.1f%% |\n", r.backend, r.n,
              r.rounds, r.waits_per_sec, r.ctl_per_wait, r.probes_per_wait,
              100.0 * r.ctl_free_fraction);
}

void WriteJson(const char* path, const Row* rows, size_t nrows, double scaling,
               double ctl_free, const RoundTrip* rts, size_t nrts) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_io: cannot write %s\n", path);
    return;
  }
  std::fputs("{\"bench\":\"io_readiness\",\"rows\":[\n", f);
  bool first = true;
  for (size_t i = 0; i < nrows; ++i) {
    const Row& r = rows[i];
    if (!r.valid) {
      continue;
    }
    if (!first) {
      std::fputs(",\n", f);
    }
    first = false;
    std::fprintf(f,
                 "  {\"backend\":\"%s\",\"n\":%d,\"rounds\":%d,\"elapsed_s\":%.4f,"
                 "\"waits_per_sec\":%.1f,\"epoll_ctl_per_wait\":%.5f,"
                 "\"probe_syscalls_per_wait\":%.3f,\"ctl_free_wait_fraction\":%.4f}",
                 r.backend, r.n, r.rounds, r.elapsed_s, r.waits_per_sec, r.ctl_per_wait,
                 r.probes_per_wait, r.ctl_free_fraction);
  }
  std::fputs("\n],\"round_trips\":[\n", f);
  first = true;
  for (size_t i = 0; i < nrts; ++i) {
    const RoundTrip& r = rts[i];
    if (!r.valid) {
      continue;
    }
    std::fprintf(f,
                 "%s  {\"fd\":\"%s\",\"rounds\":%d,\"ns_per_round_trip\":%.1f,"
                 "\"stderr_ns\":%.1f,\"io_calls_per_round_trip\":%.3f,"
                 "\"transfers_per_round_trip\":%.3f,\"fcntl_per_round_trip\":%.3f,"
                 "\"enotsock_probes_per_round_trip\":%.3f}",
                 first ? "" : ",\n", r.kind, kRtReps * kRtRounds, r.ns, r.ns_stderr,
                 r.io_calls, r.transfers, r.mode_calls, r.probes);
    first = false;
  }
  std::fprintf(f,
               "\n],\"epoll_scaling_8_to_4096\":%.4f,"
               "\"epoll_steady_state_ctl_free\":%.4f}\n",
               scaling, ctl_free);
  std::fclose(f);
}

}  // namespace
}  // namespace fsup

int main(int argc, char** argv) {
  using namespace fsup;
  const BenchArgs args = ParseBenchArgs(argc, argv, "BENCH_io.json", /*has_smoke=*/false);
  pt_init();

  constexpr size_t kNCounts = sizeof(kCounts) / sizeof(kCounts[0]);
  Row rows[2 * kNCounts];
  size_t nrows = 0;

  std::printf("I/O readiness scaling — serial single-waiter wakes against N registered "
              "waiters\n");
  std::printf("| bknd  |     N | rounds |    waits/sec | ctl/wait  | probe/wait |  ctl-free "
              "|\n");

  ::setenv("FSUP_IO_BACKEND", "epoll", 1);
  for (size_t i = 0; i < kNCounts; ++i) {
    rows[nrows] = RunOne("epoll", kCounts[i]);
    Print(rows[nrows]);
    ++nrows;
  }
  ::setenv("FSUP_IO_BACKEND", "poll", 1);
  for (size_t i = 0; i < kNCounts; ++i) {
    rows[nrows] = RunOne("poll", kCounts[i]);
    Print(rows[nrows]);
    ++nrows;
  }
  ::unsetenv("FSUP_IO_BACKEND");
  pt_reinit();

  // Acceptance summary: epoll rate at 4096 registered waiters vs 8, and the fraction of
  // steady-state waits that made zero epoll_ctl calls.
  double wps8 = 0, wps4096 = 0, ctl_free = 0;
  int ctl_free_rows = 0;
  for (size_t i = 0; i < nrows; ++i) {
    if (std::strcmp(rows[i].backend, "epoll") != 0 || !rows[i].valid) {
      continue;
    }
    if (rows[i].n == 8) {
      wps8 = rows[i].waits_per_sec;
    }
    if (rows[i].n == 4096) {
      wps4096 = rows[i].waits_per_sec;
    }
    ctl_free += rows[i].ctl_free_fraction;
    ++ctl_free_rows;
  }
  const double scaling = wps8 > 0 ? wps4096 / wps8 : 0;
  if (ctl_free_rows > 0) {
    ctl_free /= ctl_free_rows;
  }
  std::printf("\n  epoll waits/sec ratio N=4096 vs N=8: %.2f (acceptance: >= 0.50)  -> %s\n",
              scaling, scaling >= 0.50 ? "PASS" : "FAIL");
  std::printf("  epoll steady-state ctl-free waits:   %.1f%% (acceptance: >= 90%%) -> %s\n",
              100.0 * ctl_free, ctl_free >= 0.90 ? "PASS" : "FAIL");

  std::printf("\nWarm single-waiter round trip (default backend)\n");
  std::printf("| fd         |     ns/round trip | io calls | transfers | fcntl      | probes |\n");
  RoundTrip rts[] = {RunRoundTrip("pipe"), RunRoundTrip("socketpair")};
  for (const RoundTrip& r : rts) {
    PrintRoundTrip(r);
  }

  WriteJson(args.json, rows, nrows, scaling, ctl_free, rts, sizeof(rts) / sizeof(rts[0]));
  return 0;
}
