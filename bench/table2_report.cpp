// Reproduces the paper's Table 2 ("Performance Metrics") using the paper's own methodology —
// dual-loop timing — on modern hardware. Prints the same rows the paper reports, with two
// comparison columns per row where applicable:
//
//   fsup   — this library (the paper's "Ours" column)
//   native — the host kernel implementation (NPTL / raw processes), playing the role the
//            SunOS-LWP and LynxOS columns play in the paper
//
// Absolute numbers are 30 years newer; what must reproduce is the *shape*: entering the
// library kernel is orders of magnitude cheaper than entering the OS kernel, uncontended
// mutex operations cost nanoseconds, thread operations beat their process/kernel-thread
// equivalents, and external (demultiplexed) signal handling is the expensive outlier.
//
// Usage: table2_report [--json PATH]. Writes BENCH_table2.json unless --json names another
// file.

#include <fcntl.h>
#include <pthread.h>
#include <semaphore.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csetjmp>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench/bench_args.hpp"
#include "src/core/attr.hpp"
#include "src/core/bench_probes.hpp"
#include "src/core/pthread.hpp"
#include "src/util/dual_loop_timer.hpp"

namespace fsup {
namespace {

struct Row {
  const char* metric;
  double fsup_us;
  double native_us;
  const char* note;
};

constexpr double kNone = -1.0;

double ToUs(double ns) { return ns / 1000.0; }

// ---------------------------------------------------------------------------------------
// Row 1/2: enter+exit the Pthreads kernel vs the UNIX kernel.
// ---------------------------------------------------------------------------------------

Row RowKernelEnterExit() {
  DualLoopTimer t(2'000'000, 5);
  const double fsup_ns = t.MeasureNs([] { probe::KernelEnterExit(); });
  return {"enter and exit Pthreads kernel", ToUs(fsup_ns), kNone, ""};
}

Row RowUnixKernelEnterExit() {
  DualLoopTimer t(200'000, 5);
  const double ns = t.MeasureNs([] { probe::UnixKernelEnterExit(); });
  return {"enter and exit UNIX kernel", kNone, ToUs(ns), "raw getpid(2)"};
}

// ---------------------------------------------------------------------------------------
// Row 3: mutex lock/unlock without contention. Native column: pthread_mutex.
// ---------------------------------------------------------------------------------------

Row RowMutexNoContention() {
  pt_mutex_t m;
  pt_mutex_init(&m);
  DualLoopTimer t(2'000'000, 5);
  const double fsup_ns = t.MeasureNs([&] {
    pt_mutex_lock(&m);
    pt_mutex_unlock(&m);
  });
  pt_mutex_destroy(&m);

  pthread_mutex_t pm = PTHREAD_MUTEX_INITIALIZER;
  const double native_ns = t.MeasureNs([&] {
    pthread_mutex_lock(&pm);
    pthread_mutex_unlock(&pm);
  });
  return {"mutex lock/unlock, no contention", ToUs(fsup_ns), ToUs(native_ns), "native=NPTL"};
}

// ---------------------------------------------------------------------------------------
// Row 4: mutex lock/unlock under contention — the interval between thread A's unlock and
// thread B's return from lock. Two threads alternate through two mutexes so every iteration
// is one contended handoff + context switch.
// ---------------------------------------------------------------------------------------

struct ContendState {
  pt_mutex_t m;
  pt_sem_t go;    // A → B: the mutex is held, come and block on it
  pt_sem_t done;  // B → A: round complete
  int rounds;
  int64_t unlock_at;     // timestamp A takes just before unlocking
  double total_ns;       // accumulated unlock→lock-return intervals (measured by B)
};

void* ContendPartner(void* sp) {
  auto* s = static_cast<ContendState*>(sp);
  for (int i = 0; i < s->rounds; ++i) {
    pt_sem_wait(&s->go);
    pt_mutex_lock(&s->m);  // blocks; A unlocks and we resume via handoff
    s->total_ns += static_cast<double>(NowNs() - s->unlock_at);
    pt_mutex_unlock(&s->m);
    pt_sem_post(&s->done);
  }
  return nullptr;
}

Row RowMutexContention() {
  // The paper's exact metric: "the interval between an unlock by thread A and the return
  // from a lock operation by thread B (which was suspended while A held the mutex)".
  constexpr int kRounds = 50'000;
  static ContendState s{};
  pt_mutex_init(&s.m);
  pt_sem_init(&s.go, 0);
  pt_sem_init(&s.done, 0);
  s.rounds = kRounds;
  s.total_ns = 0;
  pt_thread_t partner;
  pt_create(&partner, nullptr, &ContendPartner, &s);

  for (int i = 0; i < kRounds; ++i) {
    pt_mutex_lock(&s.m);
    pt_sem_post(&s.go);
    pt_yield();  // equal priority: B runs until it blocks on the mutex
    s.unlock_at = NowNs();
    pt_mutex_unlock(&s.m);  // direct handoff to B
    pt_sem_wait(&s.done);   // blocks: dispatcher runs B, whose lock now returns
  }
  pt_join(partner, nullptr);
  const double per_handoff = s.total_ns / kRounds;
  pt_mutex_destroy(&s.m);
  pt_sem_destroy(&s.go);
  pt_sem_destroy(&s.done);
  return {"mutex lock/unlock, contention", ToUs(per_handoff), kNone,
          "unlock(A)->lock-return(B)"};
}

// ---------------------------------------------------------------------------------------
// Row 5: semaphore synchronization — one P plus one V. Native column: POSIX sem_t.
// ---------------------------------------------------------------------------------------

Row RowSemaphore() {
  pt_sem_t s;
  pt_sem_init(&s, 1);
  DualLoopTimer t(1'000'000, 5);
  const double fsup_ns = t.MeasureNs([&] {
    pt_sem_wait(&s);
    pt_sem_post(&s);
  });
  pt_sem_destroy(&s);

  sem_t ns;
  sem_init(&ns, 0, 1);
  const double native_ns = t.MeasureNs([&] {
    sem_wait(&ns);
    sem_post(&ns);
  });
  sem_destroy(&ns);
  return {"semaphore synchronization (P+V)", ToUs(fsup_ns), ToUs(native_ns), "native=sem_t"};
}

// ---------------------------------------------------------------------------------------
// Row 6: thread creation without context switch (pool warm, lower priority so the child
// does not run). Native column: pthread_create of a detached kernel thread.
// ---------------------------------------------------------------------------------------

void* NopThread(void*) { return nullptr; }

Row RowCreate() {
  constexpr int kBatch = 64;
  constexpr int kBatches = 50;
  ThreadAttr attr = MakeThreadAttr(kDefaultPrio - 1);  // lower: no switch at creation

  // Warm the pool.
  pt_thread_t warm[kBatch];
  for (auto& t : warm) {
    pt_create(&t, &attr, &NopThread, nullptr);
  }
  for (auto& t : warm) {
    pt_join(t, nullptr);
  }

  double total_ns = 0;
  for (int b = 0; b < kBatches; ++b) {
    pt_thread_t ts[kBatch];
    const int64_t start = NowNs();
    for (auto& t : ts) {
      pt_create(&t, &attr, &NopThread, nullptr);
    }
    total_ns += static_cast<double>(NowNs() - start);
    for (auto& t : ts) {
      pt_join(t, nullptr);
    }
  }
  const double fsup_ns = total_ns / (static_cast<double>(kBatch) * kBatches);

  // Native: create+join (a fair "create" alone is hard to isolate for kernel threads).
  const int64_t nstart = NowNs();
  constexpr int kNative = 200;
  for (int i = 0; i < kNative; ++i) {
    pthread_t t;
    pthread_create(&t, nullptr, &NopThread, nullptr);
    pthread_join(t, nullptr);
  }
  const double native_ns = static_cast<double>(NowNs() - nstart) / kNative;
  return {"thread create, no context switch", ToUs(fsup_ns), ToUs(native_ns),
          "native=create+join"};
}

// ---------------------------------------------------------------------------------------
// Row 7: setjmp/longjmp pair (the paper's lower bound on a context switch).
// ---------------------------------------------------------------------------------------

Row RowSetjmpLongjmp() {
  DualLoopTimer t(1'000'000, 5);
  const double ns = t.MeasureNs([] {
    jmp_buf env;
    if (setjmp(env) == 0) {
      longjmp(env, 1);
    }
  });
  return {"setjmp/longjmp pair", ToUs(ns), ToUs(ns), "same libc for both"};
}

// ---------------------------------------------------------------------------------------
// Row 8: thread context switch via yield between two equal-priority threads.
// ---------------------------------------------------------------------------------------

void* Yielder(void* rounds_p) {
  const auto rounds = reinterpret_cast<intptr_t>(rounds_p);
  for (intptr_t i = 0; i < rounds; ++i) {
    pt_yield();
  }
  return nullptr;
}

Row RowThreadSwitch() {
  constexpr intptr_t kRounds = 200'000;
  pt_thread_t partner;
  pt_create(&partner, nullptr, &Yielder, reinterpret_cast<void*>(kRounds));
  const int64_t start = NowNs();
  for (intptr_t i = 0; i < kRounds; ++i) {
    pt_yield();
  }
  const double per_switch = static_cast<double>(NowNs() - start) / (2.0 * kRounds);
  pt_join(partner, nullptr);
  return {"thread context switch (yield)", ToUs(per_switch), kNone, ""};
}

// ---------------------------------------------------------------------------------------
// Row 9: UNIX process context switch — two processes alternating through pipes (the modern
// form of the paper's signal-exchange measurement), halved per switch.
// ---------------------------------------------------------------------------------------

Row RowProcessSwitch() {
  constexpr int kRounds = 20'000;
  int ping[2], pong[2];
  if (::pipe(ping) != 0 || ::pipe(pong) != 0) {
    return {"UNIX process context switch", kNone, kNone, "pipe failed"};
  }
  const pid_t child = ::fork();
  char byte = 'x';
  if (child == 0) {
    for (int i = 0; i < kRounds; ++i) {
      if (::read(ping[0], &byte, 1) != 1 || ::write(pong[1], &byte, 1) != 1) {
        ::_exit(1);
      }
    }
    ::_exit(0);
  }
  const int64_t start = NowNs();
  for (int i = 0; i < kRounds; ++i) {
    if (::write(ping[1], &byte, 1) != 1 || ::read(pong[0], &byte, 1) != 1) {
      break;
    }
  }
  const double per_switch = static_cast<double>(NowNs() - start) / (2.0 * kRounds);
  int status = 0;
  ::waitpid(child, &status, 0);
  ::close(ping[0]);
  ::close(ping[1]);
  ::close(pong[0]);
  ::close(pong[1]);
  return {"UNIX process context switch", kNone, ToUs(per_switch), "pipe ping-pong"};
}

// ---------------------------------------------------------------------------------------
// Rows 10/11: thread signal handling, internal (pt_kill within the process, no OS involved)
// and external (a real UNIX signal demultiplexed by the universal handler).
// ---------------------------------------------------------------------------------------

volatile sig_atomic_t g_sig_hits = 0;

void CountingHandler(int) { g_sig_hits = g_sig_hits + 1; }

Row RowSignalInternal() {
  pt_sigaction(SIGUSR1, &CountingHandler, 0);
  DualLoopTimer t(200'000, 5);
  const double ns = t.MeasureNs([] { pt_kill(pt_self(), SIGUSR1); });
  pt_sigaction(SIGUSR1, nullptr, 0);
  return {"thread signal handler (internal)", ToUs(ns), kNone, "pt_kill, send->handled"};
}

Row RowSignalExternal() {
  pt_sigaction(SIGUSR1, &CountingHandler, 0);
  const pid_t self = ::getpid();
  DualLoopTimer t(50'000, 5);
  const double ns = t.MeasureNs([&] { ::kill(self, SIGUSR1); });
  pt_sigaction(SIGUSR1, nullptr, 0);
  return {"thread signal handler (external)", ToUs(ns), kNone, "kill(2) -> demultiplex"};
}

Row RowSignalUnix() {
  // Raw OS handler on a signal the library does not claim (a realtime signal).
  struct sigaction sa{};
  sa.sa_handler = &CountingHandler;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGRTMIN, &sa, nullptr);
  const pid_t self = ::getpid();
  DualLoopTimer t(50'000, 5);
  const double ns = t.MeasureNs([&] { ::kill(self, SIGRTMIN); });
  struct sigaction dfl{};
  dfl.sa_handler = SIG_DFL;
  ::sigaction(SIGRTMIN, &dfl, nullptr);
  return {"UNIX signal handler", kNone, ToUs(ns), "raw sigaction"};
}

void Print(const Row& r) {
  auto cell = [](double v, char* buf, size_t n) {
    if (v < 0) {
      snprintf(buf, n, "%10s", "-");
    } else {
      snprintf(buf, n, "%10.3f", v);
    }
  };
  char a[32], b[32];
  cell(r.fsup_us, a, sizeof(a));
  cell(r.native_us, b, sizeof(b));
  std::printf("| %-34s | %s | %s | %-24s |\n", r.metric, a, b, r.note);
}

// Machine-readable companion to the printed table, for dashboards and regression tracking.
// One object per row; -1 (the kNone sentinel) becomes null.
void WriteJson(const char* path, const Row* rows, size_t n) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "table2_report: cannot write %s\n", path);
    return;
  }
  auto cell = [&](double v) {
    if (v < 0) {
      std::fputs("null", f);
    } else {
      std::fprintf(f, "%.3f", v);
    }
  };
  std::fputs("{\"unit\":\"us\",\"rows\":[\n", f);
  for (size_t i = 0; i < n; ++i) {
    std::fprintf(f, "  {\"metric\":\"%s\",\"fsup_us\":", rows[i].metric);
    cell(rows[i].fsup_us);
    std::fputs(",\"native_us\":", f);
    cell(rows[i].native_us);
    std::fprintf(f, ",\"note\":\"%s\"}%s\n", rows[i].note, i + 1 < n ? "," : "");
  }
  std::fputs("]}\n", f);
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace
}  // namespace fsup

int main(int argc, char** argv) {
  using namespace fsup;
  const BenchArgs args = ParseBenchArgs(argc, argv, "BENCH_table2.json", /*has_smoke=*/false);
  pt_init();
  std::printf("Table 2 — Performance Metrics (microseconds, dual-loop timing)\n");
  std::printf("reproduction of: Mueller, \"A Library Implementation of POSIX Threads under "
              "UNIX\", USENIX 1993\n\n");
  std::printf("| %-34s | %10s | %10s | %-24s |\n", "Performance Metric", "fsup [us]",
              "native[us]", "note");
  std::printf("|------------------------------------|------------|------------|--------------------------|\n");

  const Row rows[] = {
      RowKernelEnterExit(), RowUnixKernelEnterExit(), RowMutexNoContention(),
      RowMutexContention(), RowSemaphore(),           RowCreate(),
      RowSetjmpLongjmp(),   RowThreadSwitch(),        RowProcessSwitch(),
      RowSignalInternal(),  RowSignalExternal(),      RowSignalUnix(),
  };
  for (const Row& r : rows) {
    Print(r);
  }

  std::printf("\nShape checks (the paper's qualitative claims):\n");
  std::printf("  * Pthreads kernel entry << UNIX kernel entry\n");
  std::printf("  * uncontended mutex ops approach a test-and-set\n");
  std::printf("  * thread context switch < UNIX process context switch\n");
  std::printf("  * internal thread signal << external (demultiplexed) thread signal\n");

  WriteJson(args.json, rows, sizeof(rows) / sizeof(rows[0]));
  return 0;
}
