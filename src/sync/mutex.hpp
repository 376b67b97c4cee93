// Mutexes (paper, "Synchronization" and "Priority Inversion: Inheritance and Ceilings").
//
// The uncontended path is the paper's Figure 4: the lock is acquired inside a restartable
// atomic sequence with no kernel entry at all. The entire lock state is ONE word — `owner`
// (nullptr = unlocked, else the owning TCB) — so the committing store both takes the lock and
// publishes the holder: the kernel monitor can never observe a locked mutex whose owner it
// does not know, which is what makes the contended slow path safe against fast-path
// acquisitions it never saw.
//
// The standard's attributes force a slower path: as the paper complains, "a simple mutex lock
// could have been implemented with a test-and-set instruction. But it now requires an
// additional check of the attributes" — our fast path performs exactly that check, and the
// protocol variants (priority inheritance; priority ceiling emulated via the SRP stack) plus
// the error-check/recursive types always enter the kernel, which the Table 2 / Table 3
// benches quantify.
//
// Contended unlocks hand the mutex directly to the highest-priority waiter (the waiting thread
// with the highest priority acquires the mutex — no barging window exists because the owner
// word stays set across the handoff).

#ifndef FSUP_SRC_SYNC_MUTEX_HPP_
#define FSUP_SRC_SYNC_MUTEX_HPP_

#include <cstdint>

#include "src/kernel/prio_queue.hpp"
#include "src/kernel/tcb.hpp"
#include "src/kernel/types.hpp"

namespace fsup {

inline constexpr uint32_t kMutexMagic = 0x6d757478;  // "mutx"

struct MutexAttr {
  MutexProtocol protocol = MutexProtocol::kNone;
  MutexType type = MutexType::kNormal;
  int ceiling = kMaxPrio;  // PROTECT only: must be >= the priority of every locking thread
};

struct Mutex {
  uint32_t magic = 0;
  volatile uint8_t has_waiters = 0;  // mirrors !waiters.empty(); read by the unlock RAS
  MutexProtocol proto = MutexProtocol::kNone;
  MutexType type = MutexType::kNormal;
  // Fast-path eligibility, precomputed at init (proto == kNone && type == kNormal — neither
  // changes afterwards): the hot path tests one byte instead of re-deriving two enums.
  uint8_t fast_ok = 1;
  int16_t ceiling = kMaxPrio;
  uint16_t tag_gen = 0;  // tag generation (sync/tag.hpp): tells apart mutexes sharing a tag
  uint32_t tag = 0;      // trace identifier

  // THE lock word: nullptr = unlocked, else the owning thread. Fast-path acquires store it
  // with a restartable sequence; fast-path releases clear it inside a restartable
  // sequence that first checks has_waiters. Always accurate — there is no separate lock bit
  // to fall out of sync with, so the wait-for-graph walker and the introspection dump can
  // trust it even for mutexes the kernel never saw locked.
  Tcb* volatile owner = nullptr;

  bool locked() const { return owner != nullptr; }
  Tcb* holder() const { return owner; }
  PrioWaitQueue waiters;  // per-priority FIFO buckets; every operation O(1)

  // Extra acquisitions by the owner of a kRecursive mutex (0 = held once). Only mutated under
  // the kernel monitor — recursive mutexes never take the fast path.
  uint32_t recursion = 0;

  // Membership in the owner's held-mutex list: the inheritance protocol's unlock performs a
  // linear search over these (paper Table 3, "Implementation: linear search of locked
  // mutexes").
  Mutex* next_owned = nullptr;
  bool in_owned_list = false;

  uint64_t contended_acquires = 0;  // statistics
};

namespace sync {

int MutexInit(Mutex* m, const MutexAttr* attr);
int MutexDestroy(Mutex* m);
int MutexLock(Mutex* m);
int MutexTrylock(Mutex* m);
int MutexUnlock(Mutex* m);
int MutexSetCeiling(Mutex* m, int ceiling, int* old_ceiling);

// In-kernel halves, shared with condition variables, cancellation, and fake calls.
int LockInKernel(Mutex* m, Tcb* self);      // may suspend; returns 0 or EDEADLK/EINVAL
void UnlockInKernel(Mutex* m, Tcb* self);   // protocol actions + handoff

// Enqueues t on m's wait queue (tail of its priority bucket), maintaining the has_waiters
// mirror. O(1). In kernel.
void InsertWaiter(Mutex* m, Tcb* t);

// Re-buckets t within m's waiter queue after t's priority changed (inheritance chains).
// O(1) per boost-chain link — the former sorted list re-scanned the queue on every link.
void RepositionWaiter(Mutex* m, Tcb* t);

// Removes t from m's waiter queue, maintaining the has_waiters mirror. O(1). In kernel.
void RemoveWaiter(Mutex* m, Tcb* t);

// Highest priority among m's waiters, or kMinPrio - 1 when none (inheritance recompute).
// O(1): reads the occupancy bitmap.
int MaxWaiterPrio(const Mutex* m);

// Completes an acquisition that arrived by direct handoff while the thread was suspended in
// CondWait (a broadcast requeued it onto m, an unlock popped it and set it as owner): runs
// the protocol acquisition work that LockInKernel's loop performs for ordinary waiters.
// Returns 0 or EINVAL (ceiling violation). In kernel.
int CompleteHandoff(Mutex* m, Tcb* self);

// True if `self` blocking on `m` would close a cycle in the wait-for graph: follows the
// owner → blocked-on-mutex → owner chain under the kernel monitor. Self-deadlock is the
// one-hop case. The owner word is the source of truth, so edges through mutexes acquired on
// the fast path (which the kernel never saw locked) are followed correctly. In kernel;
// O(live threads).
bool WouldDeadlock(const Mutex* m, const Tcb* self);

}  // namespace sync
}  // namespace fsup

#endif  // FSUP_SRC_SYNC_MUTEX_HPP_
