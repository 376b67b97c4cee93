// Pool of pre-mapped thread stacks and TCBs.
//
// The paper: "Thread creation/termination involves allocation/deallocation of heap space which
// sporadically may result in kernel calls to sbrk. This could be avoided in most cases by
// preallocating a pool of thread control blocks and stacks" — and its Table 2 creation metric
// is measured with the pool warm. This module is that pool, grown for million-thread working
// sets: stacks are recycled on power-of-two size-class free lists under a bytes-based budget
// (odd sizes bypass the pool), TCBs come from a growable slab allocator, and a sorted registry
// of stack *mappings* lets the SIGSEGV handler classify a fault — lazy-commit demand paging
// versus guard-page overflow — in O(log n) instead of walking every thread.
//
// The registry holds every stack this pool has mapped, in use or parked on a free list. It
// changes only when a stack is mapped (precache, a fresh map) or unmapped (budget eviction, a
// non-pooled free), never on a warm create or exit: attaching a recycled stack to a thread or
// parking it again only sets or clears the mapping's owner, through the pointer the TCB and
// the parked stack's free-list header keep.

#ifndef FSUP_SRC_KERNEL_STACK_POOL_HPP_
#define FSUP_SRC_KERNEL_STACK_POOL_HPP_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>

#include "src/kernel/tcb.hpp"
#include "src/util/counters.hpp"
#include "src/util/fixed_pool.hpp"

namespace fsup {

// One stack mapping in the pool's registry, from MapStack to UnmapStack. `owner` is the thread
// running on it, or nullptr while the stack is parked on a free list.
struct StackMapping {
  size_t mapped_size;
  Tcb* owner;
};

// Classification of a synchronous fault address against the pool's stacks.
struct StackFaultInfo {
  enum class Kind {
    kNone,        // not an in-use stack address this registry knows about
    kCommitted,   // lazy-commit fault: pages committed, retry the faulting instruction
    kOverflow,    // guard page hit: genuine stack overflow, `thread` names the victim
    kUnavailable  // registry mid-mutation; caller must fall back to a linear scan
  };
  Kind kind = Kind::kNone;
  Tcb* thread = nullptr;
};

class StackPool {
 public:
  // Default recycle budget: enough for bursty create/join batches across several size classes
  // (e.g. 256 default 128 KiB stacks) without pinning unbounded address space.
  static constexpr size_t kDefaultPoolBudgetBytes = 32u << 20;

  // Pre-maps `precache` default-size stacks. The free lists hold at most `budget_bytes` of
  // mapped bytes; overflow evicts largest-first.
  explicit StackPool(size_t precache = 8, size_t budget_bytes = kDefaultPoolBudgetBytes);
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
  // map failure set it.
  bool AttachStack(Tcb* t, size_t stack_size);

  // Destroys and recycles a TCB + stack obtained from Allocate().
  void Free(Tcb* t);

  // Classifies a synchronous fault address. Async-signal-safe: consults the current thread's
  // own stack first (no locks), then the sorted mapping registry unless a mutation is in
  // flight (kUnavailable → the handler degrades to its linear scan). An address in a parked
  // stack is kNone. Lazy-commit faults are resolved in place via hostos::CommitStackRange
  // before returning kCommitted.
  StackFaultInfo ClassifyStackFault(const void* addr, Tcb* current);

  // Commits t's stack if `addr` is a lazy, not-yet-committed stack page of t. Shared by
  // ClassifyStackFault and the handler's registry-busy fallback scan.
  static bool CommitFaultOnThread(const void* addr, Tcb* t);

  // Called by the dispatcher before resuming t: if t's saved SP is within the host's
  // signal-frame headroom of the commit watermark, commit the rest of the reservation so a
  // kernel-pushed signal frame cannot land on PROT_NONE pages (which would drop the signal).
  static void EnsureSignalHeadroom(Tcb* t);

  // True if `addr` lies in the guard page of any pooled or live stack this pool issued whose
  // usable base is `stack_base`.
  static bool AddrInGuard(const void* addr, const Tcb* t);

  // The pool's traffic — fresh maps, per-class reuses (hits), maps (misses) and evictions,
  // lazy commits — is counted in the "pool" group of util/counters.hpp, one set for every
  // StackPool instance.
  size_t pooled_stacks() const { return free_count_; }
  size_t pooled_bytes() const { return free_bytes_; }
  size_t pool_budget_bytes() const { return budget_bytes_; }
  // Stack mappings in the registry: stacks in use plus parked ones.
  size_t registered_stacks() const { return mappings_.size(); }

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
    char* commit_lo = nullptr;
    StackMapping* mapping = nullptr;
  };

  // Free-list node, placed at the TOP of the recycled stack: the base pages may be PROT_NONE,
  // but the top page is always committed (MapStack's initial commit covers it and every
  // thread ran there). commit_lo preserves the previous tenant's commit watermark so a
  // recycled stack keeps its warm pages without re-faulting.
  struct FreeStack {
    FreeStack* next;
    char* commit_lo;
    StackMapping* mapping;  // holds the mapped size
  };

  bool TakePooledStack(int cls, Stack* out);
  void PushFree(const Stack& s);
  bool MapFresh(size_t usable, Stack* out);
  void Unmap(const Stack& s);
  void EvictOverBudget();

  FixedPool<Tcb> tcb_pool_;
  FreeStack* free_heads_[kNumClasses] = {};
  size_t free_count_ = 0;
  size_t free_bytes_ = 0;    // mapped (reserved) bytes across all free lists
  size_t budget_bytes_;      // eviction is largest-first
  size_t precache_target_;
  size_t live_bytes_ = 0;        // mapped (reserved) bytes across stacks in use
  size_t mapped_hw_bytes_ = 0;   // high-water of live_bytes_ + free_bytes_

  // Stamps the mapped-bytes high-water after live_bytes_ or free_bytes_ grew.
  void NoteMapped() {
    size_t mapped = live_bytes_ + free_bytes_;
    if (mapped > mapped_hw_bytes_) {
      mapped_hw_bytes_ = mapped;
    }
  }

  // Every mapped stack, ordered by usable base. Mutated only inside the kernel monitor, and
  // only by MapFresh and Unmap; the busy flag (with signal fences) lets the handler detect the
  // impossible-in-theory mid-mutation fault and degrade safely instead of walking a broken
  // tree. std::map nodes never move, so StackMapping pointers stay valid until Unmap.
  std::map<const char*, StackMapping> mappings_;
  std::atomic<int> registry_busy_{0};
};

}  // namespace fsup

#endif  // FSUP_SRC_KERNEL_STACK_POOL_HPP_
