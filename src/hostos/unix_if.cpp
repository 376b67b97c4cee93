#include "src/hostos/unix_if.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <climits>

#include "src/debug/replay.hpp"
#include "src/hostos/fault.hpp"
#include "src/util/assert.hpp"
#include "src/util/counters.hpp"

namespace fsup::hostos {
namespace {

static_assert(counters::kHostShmMap - counters::kHostSigaction + 1 ==
                  static_cast<int>(Call::kCount),
              "the registry's hostos group must list every Call, in Call order");

int g_last_poll_timeout_ms = 0;

counters::Counter Slot(Call c) {
  return static_cast<counters::Counter>(counters::kHostSigaction + static_cast<int>(c));
}

void Bump(Call c) { counters::Bump(Slot(c)); }

// Cap on EINTR retries per wrapper invocation: keeps an every-invocation injection rule (or a
// pathological host) from spinning forever while still absorbing any realistic interrupt storm.
constexpr int kMaxEintrRetries = 64;

// Shared shape of the retrying wrappers: count once per semantic call, then loop — an injected
// EINTR takes the same retry edge as a real one (exercising exactly the path the injector is
// meant to test), any other injected errno surfaces, and raw EINTR retries the raw call.
template <typename RawFn>
int CountedRetryingCall(Call c, RawFn raw) {
  Bump(c);
  for (int attempt = 0;; ++attempt) {
    const int injected = fault::ShouldFail(c);
    if (injected != 0) {
      if (injected == EINTR && attempt < kMaxEintrRetries) {
        continue;
      }
      errno = injected;
      return -1;
    }
    const int rc = raw();
    if (rc != 0 && errno == EINTR && attempt < kMaxEintrRetries) {
      continue;
    }
    return rc;
  }
}

}  // namespace

uint64_t CallCount(Call c) { return counters::Get(Slot(c)); }

uint64_t TotalCallCount() {
  uint64_t total = 0;
  for (int c = 0; c < static_cast<int>(Call::kCount); ++c) {
    total += CallCount(static_cast<Call>(c));
  }
  return total;
}

void ResetCallCounts() { counters::ResetGroup("hostos"); }

int Sigaction(int signo, const struct sigaction* act, struct sigaction* old) {
  return CountedRetryingCall(Call::kSigaction,
                             [&] { return ::sigaction(signo, act, old); });
}

int Sigprocmask(int how, const sigset_t* set, sigset_t* old) {
  return CountedRetryingCall(Call::kSigprocmask,
                             [&] { return ::sigprocmask(how, set, old); });
}

int Setitimer(int which, const itimerval* value, itimerval* old) {
  // A replayed run takes every tick from the schedule log; arming the physical interval timer
  // would only race a spurious SIGALRM against it. The fault hook still runs — the recorded
  // run may have had faults injected here, and those decisions must be consumed at the same
  // index — but the raw syscall is skipped. Leaving replay re-arms from the live timer heap
  // (StopReplay / log exhaustion).
  if (debug::replay::Replaying()) {
    Bump(Call::kSetitimer);
    for (int attempt = 0;; ++attempt) {
      const int injected = fault::ShouldFail(Call::kSetitimer);
      if (injected == 0) {
        return 0;
      }
      if (injected != EINTR || attempt >= kMaxEintrRetries) {
        errno = injected;
        return -1;
      }
    }
  }
  return CountedRetryingCall(Call::kSetitimer,
                             [&] { return ::setitimer(which, value, old); });
}

int SigaltStack(const stack_t* ss, stack_t* old) {
  return CountedRetryingCall(Call::kSigaltstack,
                             [&] { return ::sigaltstack(ss, old); });
}

int Kill(pid_t pid, int signo) {
  return CountedRetryingCall(Call::kKill, [&] { return ::kill(pid, signo); });
}

int Poll(struct pollfd* fds, nfds_t n, int timeout_ms) {
  Bump(Call::kPoll);
  g_last_poll_timeout_ms = timeout_ms;
  const int injected = fault::ShouldFail(Call::kPoll);
  if (injected != 0) {
    errno = injected;
    return -1;
  }
  return ::poll(fds, n, timeout_ms);
}

int EpollCreate() {
  Bump(Call::kEpollCreate);
  const int injected = fault::ShouldFail(Call::kEpollCreate);
  if (injected != 0) {
    errno = injected;
    return -1;
  }
  return ::epoll_create1(EPOLL_CLOEXEC);
}

int EpollCtl(int epfd, int op, int fd, struct epoll_event* ev) {
  Bump(Call::kEpollCtl);
  const int injected = fault::ShouldFail(Call::kEpollCtl);
  if (injected != 0) {
    errno = injected;
    return -1;
  }
  return ::epoll_ctl(epfd, op, fd, ev);
}

int EpollPwait2(int epfd, struct epoll_event* events, int maxevents, int64_t timeout_ns) {
  Bump(Call::kEpollWait);
  const int injected = fault::ShouldFail(Call::kEpollWait);
  if (injected != 0) {
    errno = injected;
    return -1;
  }
  // Host support for epoll_pwait2 is probed on first use and remembered: a kernel without it
  // answers ENOSYS forever, so every later sleep goes straight to the ms fallback.
  static bool pwait2_works = true;
  if (pwait2_works) {
    timespec ts;
    timespec* tsp = nullptr;
    if (timeout_ns >= 0) {
      ts.tv_sec = timeout_ns / 1000000000;
      ts.tv_nsec = timeout_ns % 1000000000;
      tsp = &ts;
    }
    const int rc = ::epoll_pwait2(epfd, events, maxevents, tsp, nullptr);
    if (rc >= 0 || errno != ENOSYS) {
      return rc;
    }
    pwait2_works = false;
  }
  const int timeout_ms = timeout_ns < 0 ? -1 : ClampedPollTimeoutMs(timeout_ns);
  g_last_poll_timeout_ms = timeout_ms;
  return ::epoll_wait(epfd, events, maxevents, timeout_ms);
}

int LastPollTimeoutMs() { return g_last_poll_timeout_ms; }

int ClampedPollTimeoutMs(int64_t remaining_ns) {
  if (remaining_ns <= 0) {
    return 0;
  }
  // Round up without adding first: (ns + 999999) overflows for ns near INT64_MAX.
  const int64_t ms = remaining_ns / 1000000 + (remaining_ns % 1000000 != 0 ? 1 : 0);
  return ms > INT_MAX ? INT_MAX : static_cast<int>(ms);
}

void* ShmMapStats(const char* path, size_t size) {
  Bump(Call::kShmMap);
  if (const int injected = fault::ShouldFail(Call::kShmMap); injected != 0) {
    errno = injected;
    return nullptr;
  }
  const int fd = ::open(path, O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return nullptr;
  }
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return nullptr;
  }
  void* addr = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  return addr == MAP_FAILED ? nullptr : addr;
}

void ShmUnmapStats(void* addr, size_t size) { ::munmap(addr, size); }

size_t PageSize() {
  static const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

void* MapStack(size_t usable_size, size_t* mapped_size_out) {
  const size_t page = PageSize();
  const size_t usable = (usable_size + page - 1) & ~(page - 1);
  const size_t total = usable + page;  // one guard page at the low end

  Bump(Call::kMmap);
  if (const int injected = fault::ShouldFail(Call::kMmap); injected != 0) {
    errno = injected;
    return nullptr;
  }
  void* base = ::mmap(nullptr, total, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK | MAP_NORESERVE, -1, 0);
  if (base == MAP_FAILED) {
    return nullptr;
  }
  Bump(Call::kMprotect);
  if (const int injected = fault::ShouldFail(Call::kMprotect); injected != 0) {
    // Simulated protect failure: release the fresh mapping, exactly as the real path does.
    Bump(Call::kMunmap);
    ::munmap(base, total);
    errno = injected;
    return nullptr;
  }
  if (::mprotect(base, page, PROT_NONE) != 0) {
    Bump(Call::kMunmap);
    ::munmap(base, total);
    return nullptr;
  }
  *mapped_size_out = usable;
  return static_cast<char*>(base) + page;
}

void UnmapStack(void* usable_base, size_t mapped_size) {
  const size_t page = PageSize();
  Bump(Call::kMunmap);
  if (fault::ShouldFail(Call::kMunmap) != 0) {
    return;  // simulated munmap failure: the mapping leaks, callers must tolerate it
  }
  ::munmap(static_cast<char*>(usable_base) - page, mapped_size + page);
}

bool InGuardPage(const void* addr, const void* usable_base) {
  const char* guard_lo = static_cast<const char*>(usable_base) - PageSize();
  const char* p = static_cast<const char*>(addr);
  return p >= guard_lo && p < static_cast<const char*>(usable_base);
}

int RawGetpid() { return static_cast<int>(::syscall(SYS_getpid)); }

int RawGettid() { return static_cast<int>(::syscall(SYS_gettid)); }

}  // namespace fsup::hostos
