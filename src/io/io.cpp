#include "src/io/io.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <new>

#include "src/cancel/cancel.hpp"
#include "src/debug/obs.hpp"
#include "src/debug/replay.hpp"
#include "src/hostos/unix_if.hpp"
#include "src/kernel/kernel.hpp"
#include "src/signals/sigmodel.hpp"
#include "src/util/assert.hpp"
#include "src/util/counters.hpp"
#include "src/util/dual_loop_timer.hpp"
#include "src/util/intrusive_list.hpp"

namespace fsup::io {
namespace {

enum class Backend : uint8_t { kUnresolved, kEpoll, kPoll };

// Power of two; fd-keyed registries are small (the node count tracks *waited* fds, not open
// ones), so collisions just lengthen a short chain.
constexpr uint32_t kHashBuckets = 128;
constexpr int kMaxEventsPerWait = 64;

// fds below this number remember "not a socket" in one byte each (16 KiB, untouched pages
// cost no RSS); fds past it probe with recv/send on every attempt.
constexpr unsigned kNotSocketSlots = 16384;

// One node per fd that currently has (or recently had) waiters. Under the epoll backend the
// node IS the interest cache: `interest` mirrors what the kernel's interest set holds for this
// fd, so a wait whose mask fits inside it makes no epoll_ctl call at all. Waiting threads hang
// off `waiters` through Tcb::link (a thread blocks on at most one wait queue), which lifts the
// seed's 64-waiter cap and makes enqueue/dequeue/ForgetThread O(1).
struct FdState {
  int fd = -1;
  uint32_t interest = 0;    // epoll event mask the kernel currently watches for us
  bool registered = false;  // fd is present in the kernel's epoll interest set
  uint32_t waiter_count = 0;
  IntrusiveList<Tcb, &Tcb::link> waiters;
  FdState* next = nullptr;  // hash chain / freelist link
  // Linked on g_unverified while a waiter sleeps on a cache hit the kernel has not confirmed
  // since: the fd number may have been closed and reused, which silently drops the
  // registration while the cache still claims it.
  ListNode unverified;
};

Backend g_backend = Backend::kUnresolved;
int g_epfd = -1;
FdState* g_buckets[kHashBuckets] = {};
FdState* g_free = nullptr;  // recycled nodes; allocation happens only on first use of an fd
int g_active = 0;           // threads suspended on some fd
int g_cached = 0;           // live FdState nodes (== interest-cache entries under epoll)
IntrusiveList<FdState, &FdState::unverified> g_unverified;  // only nodes with waiters

// 1 = the last attempt on this fd answered ENOTSOCK. Any other value means "try recv/send";
// a stale entry either way is safe (see FirstAttempt).
uint8_t g_not_socket[kNotSocketSlots];

// poll-backend scratch, rebuilt each pass like the seed but dynamically sized.
pollfd* g_pollfds = nullptr;
FdState** g_pollslots = nullptr;
uint32_t g_pollcap = 0;

uint32_t BucketOf(int fd) {
  return (static_cast<uint32_t>(fd) * 2654435761u) >> 25;  // top 7 bits: 128 buckets
}

uint32_t ToEpollMask(short events) {
  uint32_t m = 0;
  if ((events & POLLIN) != 0) {
    m |= EPOLLIN;
  }
  if ((events & POLLOUT) != 0) {
    m |= EPOLLOUT;
  }
  if ((events & POLLPRI) != 0) {
    m |= EPOLLPRI;
  }
  return m;
}

uint32_t PollReventsToEpoll(short revents) {
  uint32_t m = ToEpollMask(revents);
  if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
    m |= EPOLLERR;  // error-class readiness wakes every waiter, as in poll(2)
  }
  return m;
}

void ResolveBackend() {
  if (g_backend != Backend::kUnresolved) {
    return;
  }
  const char* v = std::getenv("FSUP_IO_BACKEND");
  if (v != nullptr && v[0] == 'p') {
    g_backend = Backend::kPoll;
    return;
  }
  g_epfd = hostos::EpollCreate();
  // No epoll instance (injected fault, exotic host): the poll path serves every wait.
  g_backend = g_epfd >= 0 ? Backend::kEpoll : Backend::kPoll;
}

FdState* GetOrCreate(int fd) {
  FdState** bucket = &g_buckets[BucketOf(fd)];
  for (FdState* s = *bucket; s != nullptr; s = s->next) {
    if (s->fd == fd) {
      return s;
    }
  }
  FdState* s = g_free;
  if (s != nullptr) {
    g_free = s->next;
  } else {
    s = new (std::nothrow) FdState();
    if (s == nullptr) {
      return nullptr;
    }
  }
  s->fd = fd;
  s->interest = 0;
  s->registered = false;
  s->waiter_count = 0;
  s->next = *bucket;
  *bucket = s;
  ++g_cached;
  return s;
}

void FreeFdState(FdState* s) {
  FSUP_ASSERT(s->waiter_count == 0 && !s->unverified.linked());
  FdState** at = &g_buckets[BucketOf(s->fd)];
  while (*at != s) {
    at = &(*at)->next;
  }
  *at = s->next;
  s->fd = -1;
  s->next = g_free;
  g_free = s;
  --g_cached;
}

// Frees a node that holds neither waiters nor a kernel registration. A *registered* empty
// node is deliberately kept: it is the interest cache that lets the next wait on this fd skip
// epoll_ctl entirely.
void MaybeReclaim(FdState* s) {
  if (s->waiter_count == 0 && !s->registered) {
    FreeFdState(s);
  }
}

// Makes the kernel's interest set cover `mask` for s->fd. The common case — fd already
// registered with a superset — is a pure cache hit: zero syscalls. The ctl is self-healing
// against close/reopen races the cache cannot see: the kernel auto-removes a closed fd, so a
// MOD can answer ENOENT (retry as ADD) and an ADD can answer EEXIST (retry as MOD).
int EnsureInterest(FdState* s, uint32_t mask) {
  if (s->registered && (s->interest & mask) == mask) {
    counters::Bump(counters::kIoCacheHits);
    if (!s->unverified.linked()) {
      g_unverified.PushBack(s);
    }
    return 0;
  }
  counters::Bump(counters::kIoCacheMisses);
  const uint32_t want = s->interest | mask;
  epoll_event ev{};
  ev.events = want;
  ev.data.ptr = s;
  int rc = hostos::EpollCtl(g_epfd, s->registered ? EPOLL_CTL_MOD : EPOLL_CTL_ADD, s->fd, &ev);
  if (rc != 0 && errno == ENOENT) {
    rc = hostos::EpollCtl(g_epfd, EPOLL_CTL_ADD, s->fd, &ev);
  } else if (rc != 0 && errno == EEXIST) {
    rc = hostos::EpollCtl(g_epfd, EPOLL_CTL_MOD, s->fd, &ev);
  }
  if (rc != 0) {
    return -1;
  }
  s->registered = true;
  s->interest = want;
  s->unverified.Unlink();  // the kernel just confirmed this registration
  return 0;
}

void DetachWaiter(FdState* s, Tcb* t) {
  t->link.Unlink();
  FSUP_ASSERT(s->waiter_count > 0);
  --s->waiter_count;
  --g_active;
  t->io_wait_node = nullptr;
  if (s->waiter_count == 0) {
    s->unverified.Unlink();  // a stale registration can only strand a waiter
  }
}

// Wakes every waiter on s whose mask intersects the reported readiness (error-class events
// wake all, as poll(2) reports POLLERR/POLLHUP regardless of the requested mask).
int WakeMatching(FdState* s, uint32_t revents) {
  int woke = 0;
  s->waiters.ForEachSafe([&](Tcb* t) {
    if ((revents & (EPOLLERR | EPOLLHUP)) != 0 ||
        (revents & ToEpollMask(t->io_events)) != 0) {
      debug::obs::Emit(debug::obs::Event::kIoWake, t, t->id, revents);
      DetachWaiter(s, t);
      t->io_ready = true;
      kernel::MakeReady(t);
      counters::Bump(counters::kIoWakeups);
      ++woke;
    }
  });
  return woke;
}

// A level-triggered readiness report that woke nobody would repeat on every idle pass and
// busy-spin the process. Narrow the kernel-side interest to what the remaining waiters
// actually want (none → drop error-only fds from the set entirely). This runs only on the
// zero-wake path, so the steady state — waits served from the cache, wakes consuming the
// readiness — still makes no epoll_ctl calls.
void DemoteStale(FdState* s, uint32_t revents) {
  counters::Bump(counters::kIoDemotions);
  uint32_t want = 0;
  for (Tcb* t : s->waiters) {
    want |= ToEpollMask(t->io_events);
  }
  if (want == 0 && (revents & (EPOLLERR | EPOLLHUP)) != 0) {
    // ERR/HUP cannot be masked away; with no waiters left, deregister and forget the fd.
    hostos::EpollCtl(g_epfd, EPOLL_CTL_DEL, s->fd, nullptr);
    s->registered = false;
    s->interest = 0;
    MaybeReclaim(s);
    return;
  }
  epoll_event ev{};
  ev.events = want;
  ev.data.ptr = s;
  if (hostos::EpollCtl(g_epfd, EPOLL_CTL_MOD, s->fd, &ev) == 0) {
    s->interest = want;
  } else if (errno == ENOENT) {
    s->registered = false;  // the kernel already dropped it (fd closed)
    s->interest = 0;
    MaybeReclaim(s);
  }
}

// A deferred signal or a pending dispatch: the idle loop must regain control to replay it.
bool KernelWorkPending() {
  const KernelState& k = kernel::ks();
  return k.sigs_caught_in_kernel.load(std::memory_order_relaxed) != 0 || k.dispatch_pending != 0;
}

// Shared EINTR policy, identical to the seed: an interrupt that carries a deferred signal or a
// pending dispatch must return to the idle loop for replay; a bare one (stray or injected)
// retries with the remaining budget. Returns true if the caller should keep sleeping.
bool RetryAfterEintr(int64_t deadline_ns) {
  if (errno != EINTR || KernelWorkPending()) {
    return false;
  }
  return deadline_ns < 0 || NowNs() < deadline_ns;
}

// One epoll_pwait2 with the remaining budget (0: a non-blocking probe, deadline < 0: no
// limit), then O(ready) dispatch: only fds the kernel reported are touched, however many are
// registered. Returns the number of threads woken.
int WaitAndWake(int64_t deadline_ns) {
  epoll_event evs[kMaxEventsPerWait];
  int rc;
  for (;;) {
    int64_t budget_ns = -1;
    if (deadline_ns >= 0) {
      const int64_t remaining = deadline_ns - NowNs();
      budget_ns = remaining > 0 ? remaining : 0;
    }
    // Signals are unblocked here (the idle loop ensures it). One that lands during the sleep
    // ends it, and one logged before the sleep began keeps it from starting (the call runs
    // as a restartable sequence over the deferred set); the dispatcher replays both.
    rc = hostos::EpollPwait2(g_epfd, evs, kMaxEventsPerWait, budget_ns,
                             &kernel::ks().sigs_caught_in_kernel);
    if (rc >= 0) {
      break;
    }
    if (!RetryAfterEintr(deadline_ns)) {
      return 0;
    }
  }
  int woke = 0;
  for (int i = 0; i < rc; ++i) {
    FdState* s = static_cast<FdState*>(evs[i].data.ptr);
    const int w = WakeMatching(s, evs[i].events);
    if (w == 0) {
      DemoteStale(s, evs[i].events);
    }
    woke += w;
  }
  return woke;
}

// Re-asserts every unverified registration before the process sleeps on it. A live one
// answers the MOD; one the kernel dropped when its fd was closed answers ENOENT and is
// re-added for the file that now holds the number. A registration the kernel refuses (the
// fd is closed, or is a file epoll cannot poll) wakes its waiters, whose retry then gets
// the fd's own answer instead of sleeping on nothing.
int RevalidateInterest() {
  int woke = 0;
  while (FdState* s = g_unverified.PopFront()) {
    epoll_event ev{};
    ev.events = s->interest;
    ev.data.ptr = s;
    int rc = hostos::EpollCtl(g_epfd, EPOLL_CTL_MOD, s->fd, &ev);
    if (rc != 0 && errno == ENOENT) {
      rc = hostos::EpollCtl(g_epfd, EPOLL_CTL_ADD, s->fd, &ev);
    }
    if (rc == 0) {
      s->registered = true;
      continue;
    }
    s->registered = false;
    s->interest = 0;
    woke += WakeMatching(s, EPOLLERR);
    MaybeReclaim(s);
  }
  return woke;
}

int EpollPass(int64_t deadline_ns) {
  // Validate-before-sleep. A cache-hit wait trusts a registration the kernel may have dropped
  // (fd closed, number reused), and sleeping on it could hang forever. So before a sleep with
  // unverified waiters, probe without blocking first: in the steady state something is ready
  // and no epoll_ctl runs. Only an empty probe pays one MOD per unverified node.
  if (!g_unverified.empty() && (deadline_ns < 0 || deadline_ns > NowNs())) {
    const int woke = WaitAndWake(0);
    if (woke > 0 || KernelWorkPending()) {
      return woke;
    }
    const int refused = RevalidateInterest();
    if (refused > 0) {
      return refused;
    }
  }
  return WaitAndWake(deadline_ns);
}

bool GrowPollScratch(uint32_t need) {
  if (need <= g_pollcap) {
    return true;
  }
  uint32_t cap = g_pollcap == 0 ? 64 : g_pollcap;
  while (cap < need) {
    cap *= 2;
  }
  auto* fds = new (std::nothrow) pollfd[cap];
  auto* slots = new (std::nothrow) FdState*[cap];
  if (fds == nullptr || slots == nullptr) {
    delete[] fds;
    delete[] slots;
    return false;
  }
  delete[] g_pollfds;
  delete[] g_pollslots;
  g_pollfds = fds;
  g_pollslots = slots;
  g_pollcap = cap;
  return true;
}

int PollPass(int64_t deadline_ns) {
  // The seed's strategy, cap lifted: rebuild a pollfd array from every fd that has waiters
  // (O(registered) per pass — the cost the epoll backend exists to avoid).
  nfds_t n = 0;
  if (GrowPollScratch(static_cast<uint32_t>(g_cached))) {
    for (FdState* bucket : g_buckets) {
      for (FdState* s = bucket; s != nullptr; s = s->next) {
        if (s->waiter_count == 0) {
          continue;
        }
        short ev = 0;
        for (Tcb* t : s->waiters) {
          ev |= t->io_events;
        }
        g_pollfds[n].fd = s->fd;
        g_pollfds[n].events = ev;
        g_pollfds[n].revents = 0;
        g_pollslots[n] = s;
        ++n;
      }
    }
    // Hash-chain order depends on node recycling history; sort by fd so the pass order —
    // and with it the wake order of same-readiness fds — is a stable function of the fd set.
    for (nfds_t i = 1; i < n; ++i) {
      pollfd pf = g_pollfds[i];
      FdState* sl = g_pollslots[i];
      nfds_t j = i;
      for (; j > 0 && g_pollfds[j - 1].fd > pf.fd; --j) {
        g_pollfds[j] = g_pollfds[j - 1];
        g_pollslots[j] = g_pollslots[j - 1];
      }
      g_pollfds[j] = pf;
      g_pollslots[j] = sl;
    }
  }
  int rc;
  for (;;) {
    int timeout_ms = -1;
    if (deadline_ns >= 0) {
      timeout_ms = hostos::ClampedPollTimeoutMs(deadline_ns - NowNs());
    }
    rc = hostos::Poll(n > 0 ? g_pollfds : nullptr, n, timeout_ms,
                      &kernel::ks().sigs_caught_in_kernel);
    if (rc >= 0) {
      break;
    }
    if (!RetryAfterEintr(deadline_ns)) {
      return 0;
    }
  }
  if (rc == 0) {
    return 0;  // timeout
  }
  int woke = 0;
  for (nfds_t i = 0; i < n; ++i) {
    if (g_pollfds[i].revents == 0) {
      continue;
    }
    FdState* s = g_pollslots[i];
    woke += WakeMatching(s, PollReventsToEpoll(g_pollfds[i].revents));
    MaybeReclaim(s);  // poll nodes hold no kernel registration worth caching
  }
  return woke;
}

enum class Dir : uint8_t { kRead, kWrite };

ssize_t SocketAttempt(int fd, void* buf, size_t count, Dir dir) {
  counters::Bump(counters::kIoTransfers);
  // No MSG_NOSIGNAL: a write to a broken connection raises SIGPIPE, exactly as write(2) does.
  return dir == Dir::kRead ? ::recv(fd, buf, count, MSG_DONTWAIT)
                           : ::send(fd, buf, count, MSG_DONTWAIT);
}

ssize_t PlainAttempt(int fd, void* buf, size_t count, Dir dir) {
  counters::Bump(counters::kIoTransfers);
  return dir == Dir::kRead ? ::read(fd, buf, count) : ::write(fd, buf, count);
}

int GetFlags(int fd) {
  counters::Bump(counters::kIoModeCalls);
  return ::fcntl(fd, F_GETFL);
}

// The first non-blocking attempt of a call, which also picks the call's path (*socket). A
// socket takes one host call: MSG_DONTWAIT makes just this call non-blocking and leaves the
// description's flags as the user set them. Anything else (pipe, FIFO, eventfd, tty, regular
// file) answers ENOTSOCK, and the byte table sends later calls straight to the F_GETFL
// (+ F_SETFL O_NONBLOCK once) + read/write path. A stale table entry is safe: a stale "try a
// socket" costs one ENOTSOCK; a stale "not a socket" over a socket takes the fcntl path, and
// if that socket's O_NONBLOCK is clear (a description this path never touched, so possibly a
// reused fd number) it re-probes before setting any flag.
ssize_t FirstAttempt(int fd, void* buf, size_t count, Dir dir, bool* socket) {
  uint8_t spare = 0;
  uint8_t& not_socket = static_cast<unsigned>(fd) < kNotSocketSlots ? g_not_socket[fd] : spare;
  *socket = false;
  int flags = -1;
  if (not_socket != 0) {
    flags = GetFlags(fd);
    if (flags < 0 || (flags & O_NONBLOCK) != 0) {
      return PlainAttempt(fd, buf, count, dir);
    }
  }
  const ssize_t n = SocketAttempt(fd, buf, count, dir);
  if (n >= 0 || errno != ENOTSOCK) {
    not_socket = 0;
    *socket = true;
    return n;
  }
  counters::Bump(counters::kIoNotsockProbes);
  not_socket = 1;
  if (flags < 0) {
    flags = GetFlags(fd);
  }
  if (flags >= 0 && (flags & O_NONBLOCK) == 0) {
    counters::Bump(counters::kIoModeCalls);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
  return PlainAttempt(fd, buf, count, dir);
}

// The one retry loop: while the fd is not ready, suspend this thread (only) on the readiness
// registry, then repeat the attempt on the path the first one chose.
long Transfer(int fd, void* buf, size_t count, Dir dir) {
  kernel::EnsureInit();
  bool socket;
  ssize_t n = FirstAttempt(fd, buf, count, dir, &socket);
  while (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
    if (WaitFdReady(fd, dir == Dir::kRead ? POLLIN : POLLOUT) != 0) {
      return -1;  // errno = EINTR (or EAGAIN if the fd could not be registered)
    }
    n = socket ? SocketAttempt(fd, buf, count, dir) : PlainAttempt(fd, buf, count, dir);
  }
  return n;
}

}  // namespace

IoStats GetStats() {
  using namespace counters;
  return IoStats{Get(kIoWaits),     Get(kIoWakeups),    Get(kIoCacheHits),
                 Get(kIoCacheMisses), Get(kIoDemotions), Get(kIoProbes),
                 Get(kIoTransfers),  Get(kIoModeCalls),  Get(kIoNotsockProbes),
                 g_active,           g_cached,           g_backend == Backend::kEpoll};
}

bool HaveWaiters() { return g_active > 0; }

void PollOnce(int64_t timeout_ns) {
  FSUP_ASSERT(kernel::InKernel());
  ResolveBackend();
  debug::obs::Emit(debug::obs::Event::kIdlePoll, nullptr, 0, 0);
  counters::Bump(counters::kIoProbes);
  if (debug::replay::Replaying()) {
    // The pass is virtualized: no syscall runs; the log supplies the wakeups (and any fault
    // the recorded pass absorbed), making replay identical across io backends.
    debug::replay::ReplayIdleIo();
    return;
  }
  const int64_t deadline_ns = timeout_ns < 0 ? -1 : NowNs() + timeout_ns;
  const int woke = g_backend == Backend::kEpoll ? EpollPass(deadline_ns) : PollPass(deadline_ns);
  debug::obs::Emit(debug::obs::Event::kIdlePollDone, nullptr, static_cast<uint32_t>(woke), 0);
}

int WaitFdReady(int fd, short events) {
  kernel::EnsureInit();
  Tcb* self = kernel::Current();
  kernel::Enter();
  cancel::TestIntrInKernel();  // I/O waits are interruption points
  ResolveBackend();
  counters::Bump(counters::kIoWaits);

  FdState* s = GetOrCreate(fd);
  if (s == nullptr) {
    kernel::Exit();
    errno = EAGAIN;
    return -1;
  }
  if (g_backend == Backend::kEpoll) {
    if (EnsureInterest(s, ToEpollMask(events)) != 0) {
      const int err = errno;
      MaybeReclaim(s);
      kernel::Exit();
      if (err == EPERM) {
        // Unpollable fd (regular file, …): poll(2) reports such fds as always ready, so the
        // caller's read/write proceeds instead of blocking forever.
        return 0;
      }
      errno = EAGAIN;
      return -1;
    }
  } else {
    counters::Bump(counters::kIoCacheHits);  // poll backend has no kernel interest set to miss
  }

  self->io_events = events;
  self->io_ready = false;
  self->io_wait_node = s;
  s->waiters.PushBack(self);
  ++s->waiter_count;
  ++g_active;

  kernel::Suspend(BlockReason::kIo);

  if (self->io_wait_node != nullptr) {
    // Woken by something that bypassed both the poller and ForgetThread: drop the entry.
    FSUP_ASSERT(self->io_wait_node == s);
    DetachWaiter(s, self);
    MaybeReclaim(s);
  }
  const bool ready = self->io_ready;
  cancel::TestIntrInKernel();
  kernel::Exit();

  if (!ready) {
    errno = EINTR;
    return -1;
  }
  return 0;
}

long Read(int fd, void* buf, size_t count) { return Transfer(fd, buf, count, Dir::kRead); }

long Write(int fd, const void* buf, size_t count) {
  return Transfer(fd, const_cast<void*>(buf), count, Dir::kWrite);
}

void ForgetThread(Tcb* t) {
  FdState* s = static_cast<FdState*>(t->io_wait_node);
  if (s == nullptr) {
    return;
  }
  DetachWaiter(s, t);
  MaybeReclaim(s);
}

void ReplayWake(Tcb* t) {
  FdState* s = static_cast<FdState*>(t->io_wait_node);
  FSUP_CHECK_MSG(s != nullptr, "replayed io wake for a thread not blocked on an fd");
  DetachWaiter(s, t);
  t->io_ready = true;
  kernel::MakeReady(t);
  counters::Bump(counters::kIoWakeups);
  MaybeReclaim(s);  // no-op under epoll (node stays as the interest cache), frees under poll
}

void ResetForTesting() {
  for (FdState*& bucket : g_buckets) {
    FdState* s = bucket;
    while (s != nullptr) {
      FdState* next = s->next;
      s->waiters.ForEachSafe([&](Tcb* t) {
        t->link.Unlink();
        t->io_wait_node = nullptr;
      });
      s->unverified.Unlink();
      delete s;
      s = next;
    }
    bucket = nullptr;
  }
  FdState* f = g_free;
  while (f != nullptr) {
    FdState* next = f->next;
    delete f;
    f = next;
  }
  g_free = nullptr;
  if (g_epfd >= 0) {
    ::close(g_epfd);
    g_epfd = -1;
  }
  delete[] g_pollfds;
  delete[] g_pollslots;
  g_pollfds = nullptr;
  g_pollslots = nullptr;
  g_pollcap = 0;
  g_active = 0;
  g_cached = 0;
  counters::ResetGroup("io");
  g_backend = Backend::kUnresolved;  // pt_reinit re-reads FSUP_IO_BACKEND on next use
}

}  // namespace fsup::io
