#include "src/kernel/stack_pool.hpp"

#include <bit>
#include <cstdlib>
#include <new>

#include "src/debug/obs.hpp"
#include "src/hostos/unix_if.hpp"
#include "src/util/assert.hpp"

namespace fsup {
namespace {

// Default recycle budget: enough for bursty create/join batches across several size classes
// (e.g. 256 default 128 KiB stacks) without pinning unbounded address space.
constexpr size_t kDefaultPoolBudgetBytes = 32u << 20;

size_t ReadBudgetFromEnv() {
  const char* s = ::getenv("FSUP_STACK_POOL_BYTES");
  if (s == nullptr) {
    return kDefaultPoolBudgetBytes;
  }
  char* end = nullptr;
  const unsigned long long v = ::strtoull(s, &end, 10);
  if (end == s) {
    return kDefaultPoolBudgetBytes;
  }
  return static_cast<size_t>(v);
}

}  // namespace

static_assert((kMinStackSize & (kMinStackSize - 1)) == 0, "size classes assume pow2 floor");
static_assert((StackPool::kMaxPooledStackSize & (StackPool::kMaxPooledStackSize - 1)) == 0,
              "size classes assume pow2 ceiling");

int StackPool::ClassIndex(size_t usable_size) {
  if (usable_size < kMinStackSize || usable_size > kMaxPooledStackSize ||
      (usable_size & (usable_size - 1)) != 0) {
    return -1;
  }
  const int cls = std::countr_zero(usable_size) - std::countr_zero(kMinStackSize);
  FSUP_ASSERT(cls >= 0 && cls < kNumClasses);
  return cls;
}

StackPool::StackPool(size_t precache) : precache_target_(precache) {
  hostos::RefreshStackConfig();
  budget_bytes_ = ReadBudgetFromEnv();
  tcb_pool_.Reserve(precache == 0 ? 1 : precache * 2);
  // Pre-map `precache` default-size stacks so warm creation performs no kernel calls.
  for (size_t i = 0; i < precache; ++i) {
    Stack s;
    if (!MapFresh(kDefaultStackSize, &s)) {
      break;
    }
    PushFree(s);
  }
  EvictOverBudget();
}

StackPool::~StackPool() {
  for (int cls = 0; cls < kNumClasses; ++cls) {
    Stack s;
    while (TakePooledStack(cls, &s)) {
      Unmap(s);
    }
  }
}

// Maps a fresh stack and enters it in the registry, parked (no owner yet).
bool StackPool::MapFresh(size_t usable, Stack* out) {
  size_t mapped = 0;
  void* base = hostos::MapStack(usable, &mapped);
  if (base == nullptr) {
    return false;
  }
  ++stack_maps_;
  if (const int cls = ClassIndex(mapped); cls >= 0) {
    ++class_stats_[cls].misses;
  }
  out->base = static_cast<char*>(base);
  out->mapped = mapped;
  out->commit_lo =
      hostos::StackLazy() ? out->base + mapped - hostos::StackInitialCommit() : out->base;
  registry_busy_.store(1, std::memory_order_relaxed);
  std::atomic_signal_fence(std::memory_order_seq_cst);
  out->mapping = &mappings_.try_emplace(out->base, StackMapping{mapped, nullptr}).first->second;
  std::atomic_signal_fence(std::memory_order_seq_cst);
  registry_busy_.store(0, std::memory_order_relaxed);
  return true;
}

// Removes a stack with no owner from the registry and unmaps it.
void StackPool::Unmap(const Stack& s) {
  registry_busy_.store(1, std::memory_order_relaxed);
  std::atomic_signal_fence(std::memory_order_seq_cst);
  mappings_.erase(s.base);
  std::atomic_signal_fence(std::memory_order_seq_cst);
  registry_busy_.store(0, std::memory_order_relaxed);
  hostos::UnmapStack(s.base, s.mapped);
}

// The free-list node sits at the very top of the stack: with lazy commit the base pages may
// still be PROT_NONE, but the top page is always committed.
void StackPool::PushFree(const Stack& s) {
  const int cls = ClassIndex(s.mapped);
  FSUP_ASSERT(cls >= 0);
  char* top = s.base + s.mapped;
  auto* fs = new (top - sizeof(FreeStack)) FreeStack{free_heads_[cls], s.commit_lo, s.mapping};
  free_heads_[cls] = fs;
  ++free_count_;
  free_bytes_ += s.mapped;
  NoteMapped();
}

bool StackPool::TakePooledStack(int cls, Stack* out) {
  if (cls < 0 || free_heads_[cls] == nullptr) {
    return false;
  }
  FreeStack* fs = free_heads_[cls];
  free_heads_[cls] = fs->next;
  --free_count_;
  ++stack_reuses_;
  out->mapped = fs->mapping->mapped_size;
  out->commit_lo = fs->commit_lo;
  out->mapping = fs->mapping;
  out->base = reinterpret_cast<char*>(fs + 1) - out->mapped;
  free_bytes_ -= out->mapped;
  fs->~FreeStack();
  return true;
}

// Largest-first eviction: pop from the highest occupied class until the mapped bytes held by
// the free lists fit the budget again. Counting mapped (not committed) bytes is deliberate —
// the budget bounds address-space pinning, and a lazily committed giant stack still pins its
// full reservation.
void StackPool::EvictOverBudget() {
  int cls = kNumClasses - 1;
  while (free_bytes_ > budget_bytes_ && cls >= 0) {
    Stack s;
    if (!TakePooledStack(cls, &s)) {
      --cls;
      continue;
    }
    --stack_reuses_;  // eviction is not a reuse
    ++class_stats_[cls].evictions;
    Unmap(s);
  }
}

Tcb* StackPool::AllocateNoStack() {
  auto* t = new (tcb_pool_.Get()) Tcb();
  t->magic = kTcbMagic;
  return t;
}

bool StackPool::AttachStack(Tcb* t, size_t stack_size) {
  FSUP_CHECK(t->stack_base == nullptr);
  const size_t page = hostos::PageSize();
  const size_t usable = (stack_size + page - 1) & ~(page - 1);
  const int cls = ClassIndex(usable);

  // A recycled stack first; then a fresh map; and if the map failed (address space exhausted
  // or an injected fault), the free list once more: a stack freed since the first probe
  // (zombie reaping runs between the two) can still satisfy a class-size request.
  Stack s;
  bool recycled = TakePooledStack(cls, &s);
  if (!recycled && !MapFresh(usable, &s)) {
    recycled = TakePooledStack(cls, &s);
    if (!recycled) {
      ++alloc_failures_;
      return false;
    }
  }
  if (recycled) {
    ++class_stats_[cls].hits;
  }
  t->stack_base = s.base;
  t->stack_size = s.mapped;
  t->stack_pooled = ClassIndex(s.mapped) >= 0;
  t->stack_commit_lo = s.commit_lo < s.base ? s.base : s.commit_lo;
  t->stack_mapping = s.mapping;
  // The SIGSEGV handler follows the owner to the stack fields: publish them first.
  std::atomic_signal_fence(std::memory_order_seq_cst);
  s.mapping->owner = t;
  live_bytes_ += s.mapped;
  NoteMapped();
  return true;
}

Tcb* StackPool::Allocate(size_t stack_size) {
  Tcb* t = AllocateNoStack();
  if (!AttachStack(t, stack_size)) {
    t->magic = 0;
    t->~Tcb();
    tcb_pool_.Put(t);
    return nullptr;
  }
  return t;
}

void StackPool::Free(Tcb* t) {
  FSUP_CHECK(TcbValid(t));
  const Stack s{static_cast<char*>(t->stack_base), t->stack_size, t->stack_commit_lo,
                t->stack_mapping};
  const bool recycle = t->stack_pooled;
  if (s.mapping != nullptr) {
    s.mapping->owner = nullptr;
    std::atomic_signal_fence(std::memory_order_seq_cst);
    live_bytes_ -= s.mapped;
  }
  t->magic = 0;
  t->~Tcb();
  tcb_pool_.Put(t);

  if (s.mapping == nullptr) {
    return;  // no library-owned stack (never activated, or the main thread)
  }
  if (recycle) {
    PushFree(s);
    EvictOverBudget();
    return;
  }
  Unmap(s);
}

bool StackPool::CommitFaultOnThread(const void* addr, Tcb* t) {
  if (t == nullptr || t->stack_base == nullptr) {
    return false;
  }
  char* base = static_cast<char*>(t->stack_base);
  const char* p = static_cast<const char*>(addr);
  // At or above the watermark means the page is already committed: the fault is a real
  // error, not demand paging, and must not be swallowed (this also bounds the retry loop).
  if (p < base || p >= base + t->stack_size || p >= t->stack_commit_lo) {
    return false;
  }
  if (!hostos::CommitStackRange(base, t->stack_size, addr)) {
    return false;
  }
  // Committed bytes = the span below the old watermark (the whole reservation is RW now).
  // Logged from inside the SIGSEGV handler: the trace ring and the TcbMetrics counter are
  // both async-signal-safe, so lazy stack growth shows up in Perfetto exports.
  const auto committed = static_cast<uint32_t>(t->stack_commit_lo - base);
  t->stack_commit_lo = base;
  ++t->metrics.stack_commits;
  debug::obs::Emit(debug::obs::Event::kStackCommit, t, t->id, committed);
  return true;
}

void StackPool::EnsureSignalHeadroom(Tcb* t) {
  if (t == nullptr || t->stack_base == nullptr ||
      t->stack_commit_lo == static_cast<char*>(t->stack_base)) {
    return;
  }
  // The host kernel pushes signal frames at the interrupted SP; if this thread is resumed
  // with its SP too close to the commit watermark, an async signal would land on PROT_NONE
  // pages and be force-converted to SIGSEGV (dropping the original signal). Commit the rest
  // of the reservation before resuming — untouched RW pages cost nothing.
  char* sp = static_cast<char*>(t->ctx.sp);
  char* base = static_cast<char*>(t->stack_base);
  if (sp < base || sp >= base + t->stack_size) {
    return;  // main thread or foreign stack: the OS manages its growth
  }
  if (sp - t->stack_commit_lo < static_cast<ptrdiff_t>(hostos::SignalFrameHeadroom()) &&
      hostos::CommitStackRange(base, t->stack_size, t->stack_commit_lo)) {
    t->stack_commit_lo = base;
  }
}

StackFaultInfo StackPool::ClassifyStackFault(const void* addr, Tcb* current) {
  // Fast path: the overwhelmingly common faulter is the current thread touching its own
  // stack — no registry access at all.
  if (current != nullptr && current->stack_base != nullptr) {
    if (AddrInGuard(addr, current)) {
      return {StackFaultInfo::Kind::kOverflow, current};
    }
    if (CommitFaultOnThread(addr, current)) {
      ++lazy_commits_;
      return {StackFaultInfo::Kind::kCommitted, current};
    }
  }
  if (registry_busy_.load(std::memory_order_relaxed) != 0) {
    return {StackFaultInfo::Kind::kUnavailable, nullptr};
  }
  std::atomic_signal_fence(std::memory_order_seq_cst);
  // Ordered interval lookup. Two candidates: the mapping whose base is just above the address
  // (its guard page lies below its key), and the mapping at or below the address (in-range).
  // A parked mapping has no owner: nothing runs there, so a fault on it is nobody's.
  const char* p = static_cast<const char*>(addr);
  const size_t page = hostos::PageSize();
  auto it = mappings_.upper_bound(p);
  if (it != mappings_.end() && p >= it->first - page) {
    Tcb* owner = it->second.owner;
    return owner != nullptr ? StackFaultInfo{StackFaultInfo::Kind::kOverflow, owner}
                            : StackFaultInfo{};
  }
  if (it != mappings_.begin()) {
    --it;
    Tcb* owner = it->second.owner;
    if (p < it->first + it->second.mapped_size && CommitFaultOnThread(addr, owner)) {
      ++lazy_commits_;
      return {StackFaultInfo::Kind::kCommitted, owner};
    }
  }
  return {StackFaultInfo::Kind::kNone, nullptr};
}

bool StackPool::AddrInGuard(const void* addr, const Tcb* t) {
  if (t == nullptr || t->stack_base == nullptr) {
    return false;
  }
  return hostos::InGuardPage(addr, t->stack_base);
}

}  // namespace fsup
