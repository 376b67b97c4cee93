// Asynchronous I/O for threads (paper acknowledgments: Rustagi's async I/O).
//
// A true library implementation must not let one thread's blocking read(2) stall the whole
// process. pt_read/pt_write forward to io::Read/io::Write: one loop that attempts the
// transfer without blocking and, on EAGAIN, suspends the calling thread on an I/O wait
// registry, then attempts again. The registry is probed whenever the dispatcher goes idle,
// and the idle sleep happens *in* the readiness syscall so I/O readiness, timer signals, and
// external signals all wake it.
//
// A transfer attempt on a socket is one host call, recv/send with MSG_DONTWAIT; the socket's
// O_NONBLOCK flag is never read or set. Every other fd — pipe, FIFO, eventfd, tty, regular
// file — answers that call with ENOTSOCK, gets O_NONBLOCK set on its open file description
// (as before: once, by F_GETFL + F_SETFL) and is read/written after one F_GETFL per call.
// A per-fd byte table remembers ENOTSOCK, so a pipe probes only on first use.
//
// Two backends share the registry (FSUP_IO_BACKEND=epoll|poll, default epoll):
//
//   epoll — a persistent kernel-owned interest set with a per-fd state cache. Each waited fd
//   gets one FdState node (hash on fd) carrying the epoll registration it last made and an
//   intrusive list of waiting threads. Registration happens once per fd; later waits that fit
//   inside the cached interest mask make ZERO epoll_ctl calls, and wakeup dispatch walks only
//   the fds the kernel reported ready (O(ready), not O(registered)). Idle sleeps use
//   epoll_pwait2's nanosecond timeout where available. Closing an fd drops its registration
//   without the cache noticing, so before sleeping on cache-hit waits the idle pass probes
//   with timeout 0 and, only if nothing is ready, re-asserts those registrations.
//
//   poll — the seed's behaviour (rebuild a pollfd array every pass, O(registered) scan), kept
//   as a tested fallback; it shares the FdState registry so the 64-waiter cap is lifted here
//   too.
//
// Waiters are unbounded: threads hang off their fd's FdState through Tcb::link, so enqueue,
// dequeue and fake-call removal are O(1).

#ifndef FSUP_SRC_IO_IO_HPP_
#define FSUP_SRC_IO_IO_HPP_

#include <cstddef>
#include <cstdint>

#include "src/kernel/tcb.hpp"

namespace fsup::io {

// Always-on cheap counters (bumped under the kernel monitor; no atomics needed). Exposed to
// debug/metrics and to tests/benches that pin the interest-cache behaviour.
struct IoStats {
  uint64_t waits = 0;         // WaitFdReady suspensions
  uint64_t wakeups = 0;       // threads woken by fd readiness
  uint64_t cache_hits = 0;    // waits satisfied by the cached interest set (no epoll_ctl)
  uint64_t cache_misses = 0;  // waits that had to ADD/MOD the kernel interest set
  uint64_t demotions = 0;     // interest narrowed after a readiness report woke no waiter
  uint64_t probes = 0;        // idle readiness probes (PollOnce calls)
  // Transfer path (bumped outside the monitor, by the calling thread):
  uint64_t transfers = 0;       // recv/send/read/write attempts, probes included
  uint64_t mode_calls = 0;      // fcntl F_GETFL/F_SETFL calls
  uint64_t notsock_probes = 0;  // recv/send attempts that answered ENOTSOCK
  int active_waiters = 0;     // threads currently suspended on an fd
  int cached_fds = 0;         // live FdState nodes
  bool epoll_backend = false; // which backend resolved
};

IoStats GetStats();

// True if any thread is suspended waiting for fd readiness.
bool HaveWaiters();

// Probes fd readiness once. timeout_ns < 0 means "no deadline: sleep until an event or a
// signal"; 0 means non-blocking check. Wakes every thread whose fd became ready (or raised
// an error). Must be called with the kernel entered; the sleep itself keeps signals
// deliverable (they are deferred by the kernel flag and replayed by the dispatcher).
void PollOnce(int64_t timeout_ns);

// Registers the current thread as waiting for `events` (POLLIN/POLLOUT) on fd and suspends.
// Returns 0 once ready, or -1 with errno (EINTR if woken by a signal handler, EAGAIN if the
// backend could not register the fd, ECANCELED via cancellation unwind). In kernel: no — call
// *outside* the kernel; it enters itself.
int WaitFdReady(int fd, short events);

// pt_read/pt_write: read/write that suspend only the calling thread while fd is not ready.
// Return the byte count, or -1 with errno (EINTR if a handler ran while suspended). Out of
// kernel; each enters it only to wait.
long Read(int fd, void* buf, size_t count);
long Write(int fd, const void* buf, size_t count);

// Removes t from its fd's wait list (fake-call unblocking, thread reap, reset). O(1).
void ForgetThread(Tcb* t);

// Replay-side wakeup: detaches t from its fd's wait list and readies it, exactly as the
// recorded poll pass did, without consulting any fd. In kernel; t must be io-blocked.
void ReplayWake(Tcb* t);

// Closes the epoll fd, frees every FdState, zeroes stats, and forgets the resolved backend so
// the next use re-reads FSUP_IO_BACKEND (pt_reinit relies on this). The per-fd "not a
// socket" hints stay: a stale one is safe, and clearing them would touch the whole table.
void ResetForTesting();

}  // namespace fsup::io

#endif  // FSUP_SRC_IO_IO_HPP_
