// Pool of pre-mapped thread stacks and TCBs.
//
// The paper: "Thread creation/termination involves allocation/deallocation of heap space which
// sporadically may result in kernel calls to sbrk. This could be avoided in most cases by
// preallocating a pool of thread control blocks and stacks" — and its Table 2 creation metric
// is measured with the pool warm. This module is that pool, grown for million-thread working
// sets: stacks are recycled on power-of-two size-class free lists under a bytes-based budget
// (odd sizes bypass the pool) and TCBs come from a growable slab allocator. Every stack is
// mapped read-write once, with a PROT_NONE guard page below it (hostos::MapStack), so a
// SIGSEGV on a thread stack only ever needs one answer: whose guard page was hit.

#ifndef FSUP_SRC_KERNEL_STACK_POOL_HPP_
#define FSUP_SRC_KERNEL_STACK_POOL_HPP_

#include <cstddef>
#include <cstdint>

#include "src/kernel/tcb.hpp"
#include "src/util/counters.hpp"
#include "src/util/fixed_pool.hpp"
#include "src/util/intrusive_list.hpp"

namespace fsup {

class StackPool {
 public:
  // Default-size stacks pre-mapped when the pool is made, so warm creation maps nothing.
  static constexpr size_t kPrecached = 8;
  // The most mapped bytes the free lists hold; overflow evicts largest-first. Enough for
  // bursty create/join batches across several size classes (e.g. 256 default 128 KiB stacks)
  // without pinning unbounded address space.
  static constexpr size_t kBudgetBytes = 32u << 20;

  StackPool();
  ~StackPool();

  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

  // Allocates a TCB with an attached stack of at least `stack_size` usable bytes. The TCB is
  // default-constructed. Returns nullptr on mmap failure.
  Tcb* Allocate(size_t stack_size);

  // Allocates a TCB with no stack (lazy thread creation: the paper's future-work feature
  // defers the expensive resource until the thread is needed).
  Tcb* AllocateNoStack();

  // Attaches a stack to a TCB created with AllocateNoStack. On mmap failure (exhaustion,
  // injected fault) falls back to retrying the request's size-class free list before giving
  // up; false only when both sources are dry, with no pool state leaked. errno is left as the
  // map failure set it (EAGAIN for a size whose page round-up wraps).
  bool AttachStack(Tcb* t, size_t stack_size);

  // Destroys and recycles a TCB + stack obtained from Allocate().
  void Free(Tcb* t);

  // The thread whose guard page holds `addr`, or nullptr. Async-signal-safe: checks
  // `current` first in O(1) (the usual overflow), then walks `threads`. A parked or unmapped
  // stack belongs to no thread on the list, so a fault in its guard page is nobody's.
  static Tcb* GuardOwner(const void* addr, Tcb* current,
                         IntrusiveList<Tcb, &Tcb::all_link>& threads);

  // The pool's traffic — fresh maps, per-class reuses (hits), maps (misses) and evictions —
  // is counted in the "pool" group of util/counters.hpp, one set for every StackPool instance.
  size_t pooled_stacks() const { return free_count_; }
  size_t pooled_bytes() const { return free_bytes_; }

  // Reserved bytes currently mapped (stacks in use + free lists) and the high-water mark of
  // that sum over the pool's lifetime.
  size_t mapped_bytes() const { return live_bytes_ + free_bytes_; }
  size_t mapped_hw_bytes() const { return mapped_hw_bytes_; }

  // Size-class geometry, exposed for tests: pooled iff the page-rounded usable size is an
  // exact power of two within [kMinStackSize, kMaxPooledStackSize]; anything else bypasses
  // the free lists and is mapped/unmapped directly.
  static constexpr size_t kMaxPooledStackSize = 8u << 20;
  static constexpr int kNumClasses = 10;  // kMinStackSize .. kMaxPooledStackSize, pow2 steps
  static_assert(counters::kPoolClass9Hits - counters::kPoolClass0Hits == 3 * (kNumClasses - 1),
                "the registry's pool group lists one hits/misses/evictions triple per class");
  static int ClassIndex(size_t usable_size);

 private:
  // A stack mapping being handed between the free lists, a TCB and the host.
  struct Stack {
    char* base = nullptr;  // usable low address
    size_t mapped = 0;
  };

  // Free-list node, placed at the top of the recycled stack; its class gives its size.
  struct FreeStack {
    FreeStack* next;
  };

  bool TakePooledStack(int cls, Stack* out);
  void PushFree(const Stack& s);
  bool MapFresh(size_t usable, Stack* out);
  void EvictOverBudget();

  FixedPool<Tcb> tcb_pool_;
  FreeStack* free_heads_[kNumClasses] = {};
  size_t free_count_ = 0;
  size_t free_bytes_ = 0;    // mapped (reserved) bytes across all free lists
  size_t live_bytes_ = 0;        // mapped (reserved) bytes across stacks in use
  size_t mapped_hw_bytes_ = 0;   // high-water of live_bytes_ + free_bytes_

  // Stamps the mapped-bytes high-water after live_bytes_ or free_bytes_ grew.
  void NoteMapped() {
    size_t mapped = live_bytes_ + free_bytes_;
    if (mapped > mapped_hw_bytes_) {
      mapped_hw_bytes_ = mapped;
    }
  }
};

}  // namespace fsup

#endif  // FSUP_SRC_KERNEL_STACK_POOL_HPP_
