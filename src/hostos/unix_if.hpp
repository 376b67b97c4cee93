// The UNIX interface of the library.
//
// The paper makes "few operating system calls" a first-class design objective and reports that
// the implementation uses about 20 UNIX services, most only during initialization, with exactly
// two sigsetmask calls per externally delivered signal (fsup makes none on a delivery that does
// not switch away from its handler frame: see signals/universal_handler.cpp). Every kernel
// call the library makes goes through this module, which counts invocations per service so
// that tests and benches can *verify* those claims rather than assert them in prose.

#ifndef FSUP_SRC_HOSTOS_UNIX_IF_HPP_
#define FSUP_SRC_HOSTOS_UNIX_IF_HPP_

#include <poll.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/time.h>

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace fsup::hostos {

enum class Call : int {
  kSigaction = 0,
  kSigprocmask,
  kSetitimer,
  kMmap,
  kMunmap,
  kMprotect,
  kSigaltstack,
  kKill,
  kPoll,
  kEpollCreate,
  kEpollCtl,
  kEpollWait,
  kShmMap,
  kCount,
};

// Per-service invocation counts: the "hostos" group of the counter registry
// (util/counters.hpp), zeroed only by ResetCallCounts.
uint64_t CallCount(Call c);
uint64_t TotalCallCount();
void ResetCallCounts();

// Counted wrappers. All return 0 on success / -1 with errno like their raw counterparts.
// Every wrapper consults the fault injector (hostos/fault) after counting, so an armed rule
// fails the call deterministically by invocation ordinal. The signal/timer wrappers retry the
// raw call on EINTR (bounded) — a benign interrupt must never surface as a spurious failure.
int Sigaction(int signo, const struct sigaction* act, struct sigaction* old);
int Sigprocmask(int how, const sigset_t* set, sigset_t* old);
int Setitimer(int which, const itimerval* value, itimerval* old);
int SigaltStack(const stack_t* ss, stack_t* old);
int Kill(pid_t pid, int signo);

// The idle sleeps below run as a restartable sequence over `deferred`, the kernel's set of
// signals logged while in the kernel (arch/ras.hpp, fsup_ras_idle_syscall): a nonzero set,
// including one a signal sets just before the syscall, fails the call with EINTR instead of
// sleeping.

// Counted poll(2). Returns like the raw call; EINTR is NOT retried here because an interrupt
// is meaningful to the idle loop (a deferred signal must be replayed) — io::PollOnce decides.
int Poll(struct pollfd* fds, nfds_t n, int timeout_ms, const std::atomic<uint64_t>* deferred);

// Counted epoll wrappers for the io readiness core. EpollCreate returns the epoll fd (with
// CLOEXEC) or -1. EpollCtl does not retry EINTR (epoll_ctl cannot block). EpollPwait2 sleeps
// with nanosecond precision via epoll_pwait2(2) where the host supports it, deciding once and
// thereafter falling back to ms-rounded (clamped) epoll_wait(2); timeout_ns < 0 blocks until
// an event or a signal. Like Poll, EINTR is NOT retried — the idle loop owns that decision.
int EpollCreate();
int EpollCtl(int epfd, int op, int fd, struct epoll_event* ev);
int EpollPwait2(int epfd, struct epoll_event* events, int maxevents, int64_t timeout_ns,
                const std::atomic<uint64_t>* deferred);

// Telemetry for tests: the millisecond timeout handed to the most recent Poll (or ms-fallback
// EpollPwait2) call. Pins the far-future-deadline clamp without racing real time.
int LastPollTimeoutMs();

// Converts a remaining-time budget to a poll(2)/epoll_wait(2) millisecond timeout: rounds up
// (a short sleep must not busy-spin) and clamps to INT_MAX (a far-future deadline must not
// overflow int, which would turn a bounded wait into an infinite or zero-timeout poll).
// A budget <= 0 gives 0. Defined for every int64_t, INT64_MAX included.
int ClampedPollTimeoutMs(int64_t remaining_ns);

// Creates-or-opens `path`, sizes it to `size` and maps it MAP_SHARED read-write — the
// runtime side of the FSUP_STATS_SHM stats segment (tools/fsup_top maps the same file
// read-only on its own, outside the library). One counted, fault-injectable composite call
// (open + ftruncate + mmap; the fd is closed before returning — the mapping keeps the file
// alive). Returns the mapping or nullptr with errno set.
void* ShmMapStats(const char* path, size_t size);
void ShmUnmapStats(void* addr, size_t size);

// Maps a thread stack with an inaccessible guard page at the low end; returns the *usable*
// base (just above the guard) or nullptr. usable_size is rounded up to the page size.
//
// The whole range is mapped read-write with MAP_NORESERVE (untouched pages cost no RSS, so a
// deep stack pays only for the pages it uses) and the guard page is then protected PROT_NONE.
// One counted mmap plus one counted mprotect.
void* MapStack(size_t usable_size, size_t* mapped_size_out);
void UnmapStack(void* usable_base, size_t mapped_size);

// True if addr falls inside the guard page of the given stack mapping.
bool InGuardPage(const void* addr, const void* usable_base);

size_t PageSize();

// Raw getpid via syscall(2), bypassing any libc caching — used by the Table 2 row
// "enter and exit UNIX kernel".
int RawGetpid();

}  // namespace fsup::hostos

#endif  // FSUP_SRC_HOSTOS_UNIX_IF_HPP_
