// Priority-bucketed thread queues: the shared core of the ready queue and every priority
// wait queue in the sync layer.
//
// One intrusive FIFO per priority level (threaded through Tcb::link) plus a 32-bit occupancy
// bitmap make every queue operation O(1): push is a list append plus a bit-set, "highest
// occupied priority" is one countl_zero, erase uses the level recorded in Tcb::queued_level.
// The dispatcher's ready queue has always worked this way; PrioWaitQueue gives mutex and
// condition-variable waiter queues the identical structure, so blocking, wake-one and priority
// repositioning (inheritance boost chains) are constant time, and a broadcast-requeue costs one
// pop and one push per waiter, where the former sorted lists paid a linear scan per insert.
//
// A thread is on at most one queue through Tcb::link at a time, so queued_level can serve the
// ready queue and every wait queue without conflict; plain lists that also use Tcb::link
// (joiners, I/O fd wait lists) never touch it.

#ifndef FSUP_SRC_KERNEL_PRIO_QUEUE_HPP_
#define FSUP_SRC_KERNEL_PRIO_QUEUE_HPP_

#include <cstdint>

#include "src/kernel/tcb.hpp"
#include "src/kernel/types.hpp"
#include "src/util/intrusive_list.hpp"

namespace fsup {

// The bucket core. Levels are kMinPrio..kMaxPrio; FIFO within a level.
class PrioBuckets {
 public:
  void Push(Tcb* t, int level, bool front);

  // Removes and returns the first thread of the given level, which must be occupied.
  Tcb* PopFrom(int level);

  // Removes and returns the first thread of the highest / lowest occupied level, or nullptr.
  Tcb* PopHighest();
  Tcb* PopLowest();

  // Highest / lowest occupied level, or -1 when empty. O(1).
  int TopPrio() const { return bitmap_ == 0 ? -1 : 31 - __builtin_clz(bitmap_); }
  int BottomPrio() const { return bitmap_ == 0 ? -1 : __builtin_ctz(bitmap_); }

  // Removes t from whatever level holds it (via Tcb::queued_level). No-op when not queued.
  void Erase(Tcb* t);

  // Removes and returns the i-th thread in priority-then-FIFO order, or nullptr.
  Tcb* PopNth(uint64_t i);

  bool empty() const { return bitmap_ == 0; }
  uint32_t size() const { return count_; }  // maintained by Push/Pop/Erase — O(1)
  uint32_t bitmap() const { return bitmap_; }

 private:
  IntrusiveList<Tcb, &Tcb::link> level_[kNumPrios];
  uint32_t bitmap_ = 0;
  uint32_t count_ = 0;
};

// Wait queue of a mutex or condition variable: threads bucketed by current priority, FIFO
// within a priority (POSIX SCHED_FIFO wake order). All operations O(1).
class PrioWaitQueue {
 public:
  // Enqueues t at the tail of its current priority's bucket.
  void Push(Tcb* t) { b_.Push(t, t->prio, /*front=*/false); }

  // Enqueues t at the head of its current priority's bucket: a broadcast's picked waiter goes
  // ahead of same-priority waiters that queued before it (cond.cpp).
  void PushFront(Tcb* t) { b_.Push(t, t->prio, /*front=*/true); }

  // Dequeues the longest-waiting thread of the highest occupied priority, or nullptr.
  Tcb* PopHighest() { return b_.PopHighest(); }

  // Removes t from its bucket (timeout, interruption, cancellation). No-op when not queued.
  void Erase(Tcb* t) { b_.Erase(t); }

  // Re-buckets t after its priority changed (inheritance boost / pt_setprio): erase + push,
  // O(1) — the boost-chain path the sorted lists made O(waiters) per link.
  void Reposition(Tcb* t) {
    b_.Erase(t);
    Push(t);
  }

  // Highest waiter priority, or kMinPrio - 1 when empty (the inheritance recompute contract).
  int TopPrio() const {
    const int p = b_.TopPrio();
    return p >= 0 ? p : kMinPrio - 1;
  }

  bool empty() const { return b_.empty(); }
  uint32_t size() const { return b_.size(); }

 private:
  PrioBuckets b_;
};

}  // namespace fsup

#endif  // FSUP_SRC_KERNEL_PRIO_QUEUE_HPP_
