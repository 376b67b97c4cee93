// The count table: the exact per-op cost of every Table 2 operation, and of the signal, I/O
// and thread-lifecycle paths around it. A row is a warm scenario of `ops` operations. Columns:
// every hostos.* call, kernel.ctx_switches, kernel.kernel_entries, kernel.timer_ticks,
// ras.restarts, io.transfers/mode_calls/notsock_probes/waits, and operator new/delete. A row
// lists its non-zero columns per op; every other must read 0. A timing-dependent count is a
// lower bound (AtLeast), as are kernel entries and RAS restarts while FSUP_PROFILE samples.
// FSUP_IO_BACKEND=poll moves epoll_wait's value to hostos.poll. --json PATH writes the table.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/ledger.hpp"
#include "src/core/pthread.hpp"
#include "src/debug/replay.hpp"
#include "src/io/io.hpp"
#include "src/util/counters.hpp"

// Every replaceable form, so that no sanitizer's own operator new meets std::free.
namespace {
uint64_t g_news = 0, g_deletes = 0;

void* CountedNew(std::size_t n, std::align_val_t a, bool throws = true) {
  ++g_news;
  const auto align = static_cast<std::size_t>(a);
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n == 0 ? 1 : n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr && throws) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return CountedNew(n, {}); }
void* operator new[](std::size_t n) { return CountedNew(n, {}); }
void* operator new(std::size_t n, std::align_val_t a) { return CountedNew(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) { return CountedNew(n, a); }
void* operator new(size_t n, const std::nothrow_t&) noexcept { return CountedNew(n, {}, false); }
void* operator new[](size_t n, const std::nothrow_t&) noexcept { return CountedNew(n, {}, false); }
void operator delete(void* p) noexcept {
  g_deletes += p != nullptr;
  std::free(p);
}
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::align_val_t) noexcept { operator delete(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { operator delete(p); }

namespace fsup {
namespace {

using namespace counters;

constexpr int kNew = kCount;  // the heap columns follow the registry's counters
constexpr int kDelete = kCount + 1;
constexpr int kColumns = kCount + 2;
constexpr int kSw = kKernelCtxSwitches;
constexpr int kEnt = kKernelEntries;
constexpr int kIdleWait = kHostEpollWait;  // hostos.poll under FSUP_IO_BACKEND=poll
constexpr int kWarm = 5;

bool IsColumn(int c) {
  static constexpr int kNamed[] = {kSw, kEnt, kKernelTimerTicks, kRasRestarts, kIoTransfers,
                                   kIoModeCalls, kIoNotsockProbes, kIoWaits, kNew, kDelete};
  return std::find(kNamed, kNamed + 10, c) != kNamed + 10 ||
         (c < kCount && SameGroup(kNames[c], "hostos"));
}

const char* ColumnName(int c) {
  return c == kNew ? "heap.new" : c == kDelete ? "heap.delete" : kNames[c];
}

// The counter block and the heap counts at the window's two edges.
struct Window {
  bool sampled = false;  // a profiling session was live when the window opened
  uint64_t at[2][kColumns] = {};

  void Take(int edge) {
    sampled = edge == 0 ? pt_profile_active() : sampled;
    std::copy_n(g_block, kCount, at[edge]);
    at[edge][kNew] = g_news;
    at[edge][kDelete] = g_deletes;
  }
  uint64_t Delta(int c) const { return at[1][c] - at[0][c]; }
};

struct Cell {
  int col;
  uint64_t per_op;
  bool at_least;
};
constexpr Cell Eq(int col, uint64_t per_op) { return {col, per_op, false}; }
constexpr Cell AtLeast(int col, uint64_t per_op) { return {col, per_op, true}; }

// A row runs `op` through the window while `peers` threads at `peer_prio` call `peer` until
// g_stop, which one more op lets each see. With `slice_us` set they are round-robin spinners
// instead: the window spans main's joins, where they run, and the last one sets g_stop.
struct Row {
  const char* name;
  int ops;
  std::vector<Cell> cells;  // the non-zero columns
  void (*op)() = nullptr;
  int work = 0;  // g_count per op: handlers run, echoes checked, threads reaped, turns taken
  void (*peer)() = nullptr;
  int peers = 1;
  int peer_prio = kDefaultPrio;
  void (*setup)() = [] {};  // before the peers start
  int64_t slice_us = 0;
};

pt_mutex_t g_m;
pt_cond_t g_c;
pt_sem_t g_s1, g_s2;
pt_thread_t g_peer;  // the first peer
volatile bool g_stop = false;
volatile int g_count = 0;  // work done
int g_turn = 0;            // the cond round trip: 1 = the peer's move, 0 = main's
int g_ops = 0;             // the running row's ops
bool g_sampling = false;   // the row started the sampler's recording session

void* PeerLoop(void* row) {
  while (!g_stop) {
    static_cast<const Row*>(row)->peer();
  }
  return nullptr;
}

// Passes the turn back with a signal each time main passes it over. With a timeout, each wait
// has that deadline and meets it early: every wait arms a timer and every wakeup cancels it.
void CondEcho(int64_t timeout_ns) {
  pt_mutex_lock(&g_m);
  while (!g_stop) {
    while (g_turn != 1) {
      if (timeout_ns < 0) {
        pt_cond_wait(&g_c, &g_m);
      } else {
        EXPECT_EQ(0, pt_cond_timedwait(&g_c, &g_m, timeout_ns));
      }
    }
    g_turn = 0;
    pt_cond_signal(&g_c);
  }
  pt_mutex_unlock(&g_m);
}

// Passes the turn over to the CondEcho peer and waits until it comes back.
void CondRoundTrip() {
  pt_mutex_lock(&g_m);
  g_turn = 1;
  pt_cond_signal(&g_c);
  while (g_turn != 0) {
    pt_cond_wait(&g_c, &g_m);
  }
  pt_mutex_unlock(&g_m);
}

// Answers a V on g_s1 with a V on g_s2, locking the mutex in between: Table 2's contended
// lock/unlock (bench/table2_report) when main holds it.
void SemEcho() {
  pt_sem_wait(&g_s1);
  pt_mutex_lock(&g_m);
  pt_mutex_unlock(&g_m);
  pt_sem_post(&g_s2);
}

// Waits on the cond until main broadcasts, or until a pt_kill's handler ends the wait with
// EINTR, and waits again. A cancellation acted on in the wait unlocks the mutex too.
void CondWaiter() {
  pt_cleanup_push(+[](void*) { pt_mutex_unlock(&g_m); }, nullptr);
  pt_mutex_lock(&g_m);
  while (!g_stop) {
    pt_cond_wait(&g_c, &g_m);
  }
  pt_cleanup_pop(1);
}

void Sigwaiter() {
  int signo = 0;
  g_count = g_count + (pt_sigwait(SigBit(SIGUSR2), &signo) == 0 && signo == SIGUSR2);
}

// A kill(2), which hostos does not count, readies the pt_sigwait peer. At equal priority main
// yields until the peer has run; a higher one preempts main through the preemption thunk.
void KillToSigwaiter() {
  const int before = g_count;
  ::kill(::getpid(), SIGUSR2);
  while (g_count == before) {
    pt_yield();
  }
}

// An echo round trip makes six transfer attempts: main's write, main's read (EAGAIN, then the
// retry after its wait), the peer's retry read, its reply write and its next read (EAGAIN).
// Each wait ends in an idle pass that finds the other side ready, so no epoll_ctl.
struct Channel {
  int main_rfd, main_wfd, echo_rfd, echo_wfd;
  size_t msg, read;  // bytes per request, and bytes each pt_read asks for
};
Channel g_ch;
std::vector<int> g_fds;  // closed after the row

void Echo() {
  char b[64];
  const ssize_t n = pt_read(g_ch.echo_rfd, b, g_ch.read);
  pt_write(g_ch.echo_wfd, b, n > 0 ? static_cast<size_t>(n) : 0);
}

void EchoRoundTrip() {
  char b[64] = {'s'}, reply[64] = {};
  EXPECT_EQ(static_cast<ssize_t>(g_ch.msg), pt_write(g_ch.main_wfd, b, g_ch.msg));
  EXPECT_EQ(static_cast<ssize_t>(g_ch.msg), pt_read(g_ch.main_rfd, reply, g_ch.read));
  g_count = g_count + (reply[0] == 's');
}

// A socketpair, or two pipes: a pipe is no socket, so one F_GETFL per pt_read/pt_write call.
void OpenChannel(bool pipes, size_t msg, size_t read) {
  int a[2], b[2];
  ASSERT_EQ(0, pipes ? ::pipe(a) : ::socketpair(AF_UNIX, SOCK_STREAM, 0, a));
  ASSERT_EQ(0, pipes ? ::pipe(b) : 0);
  g_ch = pipes ? Channel{b[0], a[1], a[0], b[1], msg, read}
               : Channel{a[0], a[0], a[1], a[1], msg, read};
  g_fds = pipes ? std::vector<int>{a[0], a[1], b[0], b[1]} : std::vector<int>{a[0], a[1]};
}

pt_key_t g_key;
int g_destructed = 0, g_cleaned = 0;

// Once every stack class, the TCB slab and the cleanup-node list are warm, a create → TSD set
// → cleanup push/pop → lock/unlock → exit → join cycle allocates nothing and makes no host
// call. The cycles rotate over the five classes perfbench's spawn workload uses.
void LifecycleCycle() {
  ThreadAttr attr;
  attr.stack_size = size_t{16} << (10 + g_count % 5);  // 16 KiB .. 256 KiB
  pt_thread_t t;
  void* ret = nullptr;
  EXPECT_EQ(0, pt_create(&t, &attr, +[](void* arg) -> void* {
    pt_setspecific(g_key, arg);
    pt_cleanup_push(+[](void*) { ++g_cleaned; }, arg);
    pt_cleanup_pop(1);
    pt_mutex_lock(&g_m);
    g_count = g_count + 1;
    pt_mutex_unlock(&g_m);
    return arg;
  }, &g_key));
  EXPECT_EQ(0, pt_join(t, &ret));
  EXPECT_EQ(&g_key, ret);
  EXPECT_EQ(g_count, g_destructed);
  EXPECT_EQ(g_count, g_cleaned);
}

// A turn: a spinner noticing it runs after the other. Every switch between the spinners is a
// SIGALRM that ends a slice.
void TakeTurns() {
  static const int* volatile last = nullptr;
  const int me = 0;  // its address names the spinner
  while (g_count < g_ops) {
    if (last != &me) {
      last = &me;
      g_count = g_count + 1;
    }
  }
  g_stop = true;
}

// A recording session samples on the timer tick: every sample is taken and folded in the
// kernel entry of a SIGALRM, on the stack of the thread it interrupted, where re-entering the
// allocator is not safe. TEST_P stops the session.
void StartSampling() {
  if (pt_profile_active()) {  // FSUP_PROFILE=1 started one at init
    ASSERT_EQ(0, pt_profile_stop());
  }
  debug::replay::StartRecording();
  g_sampling = true;
  ASSERT_EQ(0, pt_profile_start(0));
}

void AwaitSamples() {
  while (pt_profile_samples() < static_cast<uint64_t>(g_ops)) {
  }
  g_stop = true;
}

const Row kRows[] = {
    // Table 2's operations, then cond signal, broadcast and cancel.
    {.name = "YieldAlone", .ops = 1000, .cells = {Eq(kEnt, 1)}, .op = [] { pt_yield(); }},
    {.name = "UncontendedLockUnlock", .ops = 1000, .cells = {}, .op = [] {
       pt_mutex_lock(&g_m);
       pt_mutex_unlock(&g_m);
     }},
    {.name = "YieldWithAPeer", .ops = 1000, .cells = {Eq(kSw, 2), Eq(kEnt, 2)},
     .op = [] { pt_yield(); }, .peer = [] { pt_yield(); }},
    {.name = "SemaphoreRoundTrip", .ops = 1000, .cells = {Eq(kSw, 2), Eq(kEnt, 4)}, .op = [] {
       pt_sem_post(&g_s1);
       pt_sem_wait(&g_s2);
     }, .peer = &SemEcho},
    {.name = "CreateJoin", .ops = 1000, .cells = {Eq(kSw, 2), Eq(kEnt, 4)}, .op = [] {
       pt_thread_t t;
       EXPECT_EQ(0, pt_create(&t, nullptr, +[](void*) -> void* { return nullptr; }, nullptr));
       EXPECT_EQ(0, pt_join(t, nullptr));
     }},
    {.name = "CondSignalRoundTrip", .ops = 1000, .cells = {Eq(kSw, 2), Eq(kEnt, 4)},
     .op = &CondRoundTrip, .peer = [] { CondEcho(-1); }},
    // The same with a 1-s timed wait met early: the interval timer is programmed once, cold,
    // and neither the cancel nor the next arm touches it.
    {.name = "TimedWaitMetEarly", .ops = 1000, .cells = {Eq(kSw, 2), Eq(kEnt, 4)},
     .op = &CondRoundTrip, .peer = [] { CondEcho(1000 * 1000 * 1000); }},
    {.name = "ContendedHandoff", .ops = 1000, .cells = {Eq(kSw, 4), Eq(kEnt, 7)}, .op = [] {
       pt_mutex_lock(&g_m);
       pt_sem_post(&g_s1);
       pt_yield();  // the peer runs until it blocks on the mutex
       pt_mutex_unlock(&g_m);
       pt_sem_wait(&g_s2);
     }, .peer = &SemEcho},
    // A round: main's unlock hands the mutex to the waiter the broadcast picked; each waiter
    // hands it on as it waits again, and main's next lock queues behind the last of them.
    {.name = "BroadcastToFourWaiters", .ops = 1000, .cells = {Eq(kSw, 6), Eq(kEnt, 8)}, .op = [] {
       pt_mutex_lock(&g_m);
       pt_cond_broadcast(&g_c);
       pt_mutex_unlock(&g_m);
       pt_yield();
     }, .peer = &CondWaiter, .peers = 4},
    // A thread that blocks in a cond wait, cancelled there and joined.
    {.name = "CancelCondWaiter", .ops = 1000, .cells = {Eq(kSw, 4), Eq(kEnt, 7)}, .op = [] {
       pt_thread_t t;
       EXPECT_EQ(0, pt_create(&t, nullptr, +[](void*) -> void* {
         CondWaiter();
         return nullptr;
       }, nullptr));
       pt_yield();  // it blocks in the wait
       EXPECT_EQ(0, pt_cancel(t));
       void* ret = nullptr;
       EXPECT_EQ(0, pt_join(t, &ret));
       g_count = g_count + (ret == kCanceled);
     }, .work = 1},
    // A pt_kill fake-calls the handler into the peer blocked in a cond wait.
    {.name = "PtKillToCondWaiter", .ops = 1000, .cells = {Eq(kSw, 2), Eq(kEnt, 5)}, .op = [] {
       pt_kill(g_peer, SIGUSR1);
       pt_yield();
     }, .work = 1, .peer = &CondWaiter},
    // Table 2's external signal, a raw kill(2), to a pt_sigaction handler that runs on the
    // thread it interrupted; and its internal signal, the same handler sent with pt_kill.
    {.name = "KillToHandlerOnRunningThread", .ops = 200, .cells = {Eq(kEnt, 3)},
     .op = [] { ::kill(::getpid(), SIGUSR1); }, .work = 1},
    {.name = "PtKillToHandlerOnRunningThread", .ops = 1000, .cells = {Eq(kEnt, 3)},
     .op = [] { pt_kill(pt_self(), SIGUSR1); }, .work = 1},
    // External signals to a pt_sigwait thread, and the slice and delay timers.
    {.name = "KillToEqualPrioSigwaitThread", .ops = 200, .cells = {Eq(kSw, 2), Eq(kEnt, 3)},
     .op = &KillToSigwaiter, .work = 1, .peer = &Sigwaiter},
    {.name = "KillToHigherPrioSigwaitThread", .ops = 200, .cells = {Eq(kSw, 2), Eq(kEnt, 2)},
     .op = &KillToSigwaiter, .work = 1, .peer = &Sigwaiter, .peer_prio = kDefaultPrio + 1},
    {.name = "RoundRobinSliceSwitch", .ops = 60,
     .cells = {AtLeast(kSw, 1), AtLeast(kEnt, 0), AtLeast(kHostSetitimer, 0),
               AtLeast(kKernelTimerTicks, 0), AtLeast(kRasRestarts, 0)},
     .work = 1, .peer = &TakeTurns, .peers = 2, .slice_us = 1000},
    // The idle wait sleeps until the interval timer's SIGALRM: one shot, one tick. Whether the
    // shot lands in the idle wait or before it is timing.
    {.name = "DelayOnALoneThread", .ops = 200,
     .cells = {AtLeast(kEnt, 1), Eq(kKernelTimerTicks, 1), Eq(kHostSetitimer, 1),
               AtLeast(kIdleWait, 0)},
     .op = [] { EXPECT_EQ(0, pt_delay(50 * 1000)); }},
    // The transfer path. 16-byte requests read into a 64-byte buffer come back short, which
    // proves the socket drained, yet each side's next read still makes its EAGAIN attempt.
    {.name = "SocketpairRoundTrip", .ops = 100,
     .cells = {Eq(kSw, 2), Eq(kEnt, 2), Eq(kIoTransfers, 6), Eq(kIoWaits, 2), Eq(kIdleWait, 2)},
     .op = &EchoRoundTrip, .work = 1, .peer = &Echo, .setup = [] { OpenChannel(false, 1, 1); }},
    {.name = "SocketpairRoundTripShortReads", .ops = 100,
     .cells = {Eq(kSw, 2), Eq(kEnt, 2), Eq(kIoTransfers, 6), Eq(kIoWaits, 2), Eq(kIdleWait, 2)},
     .op = &EchoRoundTrip, .work = 1, .peer = &Echo, .setup = [] { OpenChannel(false, 16, 64); }},
    {.name = "PipeRoundTrip", .ops = 100,
     .cells = {Eq(kSw, 2), Eq(kEnt, 2), Eq(kIoTransfers, 6), Eq(kIoWaits, 2),
               Eq(kIdleWait, 2), Eq(kIoModeCalls, 4)},
     .op = &EchoRoundTrip, .work = 1, .peer = &Echo, .setup = [] { OpenChannel(true, 1, 1); }},
    {.name = "WarmLifecycleCycle", .ops = 1000, .cells = {Eq(kSw, 2), Eq(kEnt, 4)},
     .op = &LifecycleCycle, .work = 1},
    {.name = "ProfilerSampling", .ops = 4000,
     .cells = {AtLeast(kSw, 0), AtLeast(kEnt, 0), AtLeast(kHostSetitimer, 0),
               AtLeast(kKernelTimerTicks, 0), AtLeast(kRasRestarts, 0)},
     .peer = &AwaitSamples, .peers = 2, .setup = &StartSampling, .slice_us = 100},
};

void RunRow(const Row& row, Window& w) {
  row.setup();
  ThreadAttr attr;
  attr.priority = row.peer_prio;
  if (row.slice_us != 0) {
    attr.inherit_policy = false;
    attr.policy = SchedPolicy::kRr;
    pt_enable_time_slicing(row.slice_us);
  }
  std::vector<pt_thread_t> peers(row.peer != nullptr ? row.peers : 0);
  for (pt_thread_t& t : peers) {
    ASSERT_EQ(0, pt_create(&t, &attr, &PeerLoop, const_cast<Row*>(&row)));
  }
  g_peer = peers.empty() ? pt_thread_t{} : peers[0];
  if (row.slice_us != 0) {
    w.Take(0);
  } else {
    pt_yield();  // the peers block
    for (int i = 0; i < kWarm + row.ops; ++i) {  // kWarm unmeasured ops, then the measured ones
      if (i == kWarm) {
        w.Take(0);
      }
      row.op();
    }
    w.Take(1);
    EXPECT_EQ(row.work * (kWarm + row.ops), g_count) << "work done";
    g_stop = true;
    if (!peers.empty()) {
      row.op();
    }
  }
  for (pt_thread_t t : peers) {
    EXPECT_EQ(0, pt_join(t, nullptr));
  }
  if (row.slice_us != 0) {
    w.Take(1);
    pt_disable_time_slicing();
    EXPECT_GE(g_count, row.work * row.ops) << "turns taken";
  }
}

std::optional<Ledger> g_ledger;  // with --json: the rows run

class OpCountTest : public ::testing::TestWithParam<Row> {};

TEST_P(OpCountTest, ExactPerOpCounts) {
  const Row& row = GetParam();
  pt_reinit();
  pt_mutex_init(&g_m);
  pt_cond_init(&g_c);
  pt_sem_init(&g_s1, 0);
  pt_sem_init(&g_s2, 0);
  ASSERT_EQ(0, pt_key_create(&g_key, +[](void*) { ++g_destructed; }));
  ASSERT_EQ(0, pt_sigaction(SIGUSR1, +[](int) { g_count = g_count + 1; }, 0));
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kBlock, SigBit(SIGUSR2), nullptr));  // pt_sigwait's
  g_stop = false;
  g_count = g_turn = g_destructed = g_cleaned = 0;
  g_ops = row.ops;
  Window w;
  RunRow(row, w);
  if (std::exchange(g_sampling, false)) {
    EXPECT_EQ(0, pt_profile_stop());
    debug::replay::StopRecording();
    EXPECT_GE(pt_profile_samples(), static_cast<uint64_t>(row.ops));
  }
  for (int fd : std::exchange(g_fds, {})) {
    ::close(fd);
  }
  const bool epoll = io::GetStats().epoll_backend;
  if (g_ledger) {
    g_ledger->Row(row.name).Set("ops", row.ops);
  }
  for (int c = 0; c < kColumns; ++c) {
    Cell cell = Eq(c, 0);
    for (const Cell& listed : row.cells) {  // under the poll backend, poll stands in for it
      if ((!epoll && listed.col == kIdleWait ? kHostPoll : listed.col) == c) {
        cell = listed;
      }
    }
    const uint64_t want = cell.per_op * row.ops;
    if (!IsColumn(c)) {
      continue;
    } else if (cell.at_least || (w.sampled && (c == kEnt || c == kRasRestarts))) {
      EXPECT_GE(w.Delta(c), want) << ColumnName(c) << " over " << row.ops << " ops";
    } else {
      EXPECT_EQ(want, w.Delta(c)) << ColumnName(c) << " over " << row.ops << " ops";
    }
    if (!g_ledger) {
      continue;
    } else if (cell.at_least) {
      g_ledger->Set(ColumnName(c), (">=" + std::to_string(cell.per_op)).c_str());
    } else if (w.Delta(c) != 0) {
      g_ledger->Set(ColumnName(c), w.Delta(c) / row.ops);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Table, OpCountTest, ::testing::ValuesIn(kRows),
                         [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace fsup

// Usage: op_count_test [gtest flags] [--json PATH]
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);  // leaves the arguments it does not know
  if (argc == 3 && std::strcmp(argv[1], "--json") == 0) {
    fsup::g_ledger.emplace(argv[2], "op_counts", /*timings=*/false);
  }
  const int rc = RUN_ALL_TESTS();
  return fsup::g_ledger ? fsup::g_ledger->Close(rc) : rc;
}
