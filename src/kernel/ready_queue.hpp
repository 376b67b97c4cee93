// Per-priority ready queues with an occupancy bitmap.
//
// One FIFO list per priority level plus a 32-bit bitmap makes "select the highest-priority
// ready thread" a single count-leading-zeros — the dispatcher's hot path. Preempted threads
// re-enter at the head of their level (they did not consume their turn); yielding,
// time-sliced and newly readied threads enter at the tail.
//
// The bucket structure itself (PrioBuckets) is shared with the sync layer's wait queues
// (prio_queue.hpp); this class adds the dispatcher-specific entry points: head re-entry for
// preempted threads and the perverted-policy selections (lowest level, random n-th).

#ifndef FSUP_SRC_KERNEL_READY_QUEUE_HPP_
#define FSUP_SRC_KERNEL_READY_QUEUE_HPP_

#include <cstdint>

#include "src/kernel/prio_queue.hpp"
#include "src/kernel/tcb.hpp"
#include "src/kernel/types.hpp"

namespace fsup {

class ReadyQueue {
 public:
  void PushBack(Tcb* t) { b_.Push(t, t->prio, /*front=*/false); }
  void PushFront(Tcb* t) { b_.Push(t, t->prio, /*front=*/true); }

  // Removes and returns the first thread of the highest occupied priority, or nullptr.
  Tcb* PopHighest() { return b_.PopHighest(); }

  // Highest occupied priority, or -1 when empty.
  int TopPrio() const { return b_.TopPrio(); }

  // Removes t from whatever level holds it.
  void Erase(Tcb* t) { b_.Erase(t); }

  // Removes and returns the i-th ready thread in priority-then-FIFO order (random policy).
  Tcb* PopNth(uint64_t i) { return b_.PopNth(i); }

  bool empty() const { return b_.empty(); }
  uint64_t size() const { return b_.size(); }  // O(1): count maintained by Push/Pop/Erase

  // Pushes t at the tail of the *lowest occupied* priority queue position — i.e. behind every
  // other ready thread regardless of t's priority (perverted RR-ordered / random switch).
  // Implemented as tail of t's own level plus a "demoted" marker is *not* what the paper says:
  // the thread really is placed on the lowest-priority level's tail, so any other ready thread
  // runs first. The thread's priority field is untouched; only its queue position is perverted.
  void PushBackLowestLevel(Tcb* t) {
    const int level = b_.empty() ? static_cast<int>(t->prio) : b_.BottomPrio();
    b_.Push(t, level, /*front=*/false);
  }

 private:
  PrioBuckets b_;
};

}  // namespace fsup

#endif  // FSUP_SRC_KERNEL_READY_QUEUE_HPP_
