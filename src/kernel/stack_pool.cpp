#include "src/kernel/stack_pool.hpp"

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

int Log2Exact(size_t v) {
  int log = 0;
  while ((size_t{1} << log) < v) {
    ++log;
  }
  return (size_t{1} << log) == v ? log : -1;
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
  const int cls = Log2Exact(usable_size) - Log2Exact(kMinStackSize);
  FSUP_ASSERT(cls >= 0 && cls < kNumClasses);
  return cls;
}

StackPool::StackPool(size_t precache) : precache_target_(precache) {
  hostos::RefreshStackConfig();
  budget_bytes_ = ReadBudgetFromEnv();
  tcb_pool_.Reserve(precache == 0 ? 1 : precache * 2);
  // Pre-map `precache` default-size stacks so warm creation performs no kernel calls.
  for (size_t i = 0; i < precache; ++i) {
    size_t mapped = 0;
    void* base = hostos::MapStack(kDefaultStackSize, &mapped);
    if (base == nullptr) {
      break;
    }
    ++stack_maps_;
    ++class_stats_[ClassIndex(mapped)].misses;
    char* commit_lo = hostos::StackLazy()
                          ? static_cast<char*>(base) + mapped - hostos::StackInitialCommit()
                          : static_cast<char*>(base);
    PushFree(base, mapped, commit_lo);
  }
  EvictOverBudget();
}

StackPool::~StackPool() {
  for (FreeStack*& head : free_heads_) {
    while (head != nullptr) {
      FreeStack* fs = head;
      head = fs->next;
      const size_t mapped = fs->mapped_size;
      char* base = reinterpret_cast<char*>(fs + 1) - mapped;
      fs->~FreeStack();
      hostos::UnmapStack(base, mapped);
    }
  }
  free_count_ = 0;
  free_bytes_ = 0;
}

// The free-list node sits at the very top of the stack: with lazy commit the base pages may
// still be PROT_NONE, but the top page is always committed.
void StackPool::PushFree(void* usable_base, size_t mapped, char* commit_lo) {
  const int cls = ClassIndex(mapped);
  FSUP_ASSERT(cls >= 0);
  char* top = static_cast<char*>(usable_base) + mapped;
  auto* fs = new (top - sizeof(FreeStack)) FreeStack{free_heads_[cls], mapped, commit_lo};
  free_heads_[cls] = fs;
  ++free_count_;
  free_bytes_ += mapped;
  NoteMapped();
}

void* StackPool::TakePooledStack(int cls, size_t* size_out, char** commit_lo_out) {
  if (cls < 0 || free_heads_[cls] == nullptr) {
    return nullptr;
  }
  FreeStack* fs = free_heads_[cls];
  free_heads_[cls] = fs->next;
  --free_count_;
  free_bytes_ -= fs->mapped_size;
  ++stack_reuses_;
  *size_out = fs->mapped_size;
  *commit_lo_out = fs->commit_lo;
  char* base = reinterpret_cast<char*>(fs + 1) - fs->mapped_size;
  fs->~FreeStack();
  return base;
}

// Largest-first eviction: pop from the highest occupied class until the mapped bytes held by
// the free lists fit the budget again. Counting mapped (not committed) bytes is deliberate —
// the budget bounds address-space pinning, and a lazily committed giant stack still pins its
// full reservation.
void StackPool::EvictOverBudget() {
  int cls = kNumClasses - 1;
  while (free_bytes_ > budget_bytes_ && cls >= 0) {
    if (free_heads_[cls] == nullptr) {
      --cls;
      continue;
    }
    size_t mapped = 0;
    char* commit_lo = nullptr;
    void* base = TakePooledStack(cls, &mapped, &commit_lo);
    --stack_reuses_;  // eviction is not a reuse
    ++class_stats_[cls].evictions;
    hostos::UnmapStack(base, mapped);
  }
}

Tcb* StackPool::AllocateNoStack() {
  auto* t = new (tcb_pool_.Get()) Tcb();
  t->magic = kTcbMagic;
  return t;
}

void StackPool::RegisterLive(Tcb* t) {
  registry_busy_.store(1, std::memory_order_relaxed);
  std::atomic_signal_fence(std::memory_order_seq_cst);
  live_[static_cast<const char*>(t->stack_base)] = LiveStack{t->stack_size, t};
  std::atomic_signal_fence(std::memory_order_seq_cst);
  registry_busy_.store(0, std::memory_order_relaxed);
  live_bytes_ += t->stack_size;
  NoteMapped();
}

void StackPool::UnregisterLive(Tcb* t) {
  registry_busy_.store(1, std::memory_order_relaxed);
  std::atomic_signal_fence(std::memory_order_seq_cst);
  live_.erase(static_cast<const char*>(t->stack_base));
  std::atomic_signal_fence(std::memory_order_seq_cst);
  registry_busy_.store(0, std::memory_order_relaxed);
  live_bytes_ -= t->stack_size;
}

bool StackPool::AttachStack(Tcb* t, size_t stack_size) {
  FSUP_CHECK(t->stack_base == nullptr);
  const size_t page = hostos::PageSize();
  const size_t usable = (stack_size + page - 1) & ~(page - 1);
  const int cls = ClassIndex(usable);

  void* stack = nullptr;
  size_t mapped = 0;
  char* commit_lo = nullptr;
  stack = TakePooledStack(cls, &mapped, &commit_lo);
  if (stack != nullptr) {
    ++class_stats_[cls].hits;
  } else {
    stack = hostos::MapStack(usable, &mapped);
    if (stack != nullptr) {
      ++stack_maps_;
      if (cls >= 0) {
        ++class_stats_[cls].misses;
      }
      commit_lo = hostos::StackLazy()
                      ? static_cast<char*>(stack) + mapped - hostos::StackInitialCommit()
                      : static_cast<char*>(stack);
    } else {
      // The map failed (address space exhausted or an injected fault). Degrade before
      // failing: a recycled stack freed since the first probe (zombie reaping runs between
      // the two) can still satisfy a class-size request.
      stack = TakePooledStack(cls, &mapped, &commit_lo);
      if (stack != nullptr) {
        ++class_stats_[cls].hits;
      }
    }
    if (stack == nullptr) {
      ++alloc_failures_;
      return false;
    }
  }
  if (commit_lo < static_cast<char*>(stack)) {
    commit_lo = static_cast<char*>(stack);
  }
  t->stack_base = stack;
  t->stack_size = mapped;
  t->stack_pooled = ClassIndex(mapped) >= 0;
  t->stack_commit_lo = commit_lo;
  RegisterLive(t);
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
  void* stack = t->stack_base;
  const size_t mapped = t->stack_size;
  const bool recycle = t->stack_pooled;
  char* commit_lo = t->stack_commit_lo;

  if (stack != nullptr) {
    UnregisterLive(t);
  }
  t->magic = 0;
  t->~Tcb();
  tcb_pool_.Put(t);

  if (stack == nullptr) {
    return;  // the main thread's TCB has no library-owned stack
  }
  if (recycle) {
    PushFree(stack, mapped, commit_lo);
    EvictOverBudget();
    return;
  }
  hostos::UnmapStack(stack, mapped);
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
  // Ordered interval lookup. Two candidates: the stack whose base is just above the address
  // (its guard page lies below its key), and the stack at or below the address (in-range).
  const char* p = static_cast<const char*>(addr);
  const size_t page = hostos::PageSize();
  auto it = live_.upper_bound(p);
  if (it != live_.end() && p >= it->first - page) {
    return {StackFaultInfo::Kind::kOverflow, it->second.owner};
  }
  if (it != live_.begin()) {
    --it;
    if (p < it->first + it->second.mapped_size && CommitFaultOnThread(addr, it->second.owner)) {
      ++lazy_commits_;
      return {StackFaultInfo::Kind::kCommitted, it->second.owner};
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
