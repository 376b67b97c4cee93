#include "src/kernel/stack_pool.hpp"

#include <bit>
#include <cerrno>
#include <new>

#include "src/hostos/unix_if.hpp"
#include "src/util/assert.hpp"
#include "src/util/counters.hpp"

namespace fsup {

static_assert((kMinStackSize & (kMinStackSize - 1)) == 0, "size classes assume pow2 floor");
static_assert((StackPool::kMaxPooledStackSize & (StackPool::kMaxPooledStackSize - 1)) == 0,
              "size classes assume pow2 ceiling");
static_assert(StackPool::kPrecached * kDefaultStackSize <= StackPool::kBudgetBytes,
              "the precached stacks fit the budget");

int StackPool::ClassIndex(size_t usable_size) {
  if (usable_size < kMinStackSize || usable_size > kMaxPooledStackSize ||
      (usable_size & (usable_size - 1)) != 0) {
    return -1;
  }
  const int cls = std::countr_zero(usable_size) - std::countr_zero(kMinStackSize);
  FSUP_ASSERT(cls >= 0 && cls < kNumClasses);
  return cls;
}

StackPool::StackPool() {
  tcb_pool_.Reserve(kPrecached * 2);
  for (size_t i = 0; i < kPrecached; ++i) {
    Stack s;
    if (!MapFresh(kDefaultStackSize, &s)) {
      break;
    }
    PushFree(s);
  }
}

StackPool::~StackPool() {
  for (int cls = 0; cls < kNumClasses; ++cls) {
    Stack s;
    while (TakePooledStack(cls, &s)) {
      hostos::UnmapStack(s.base, s.mapped);
    }
  }
}

bool StackPool::MapFresh(size_t usable, Stack* out) {
  size_t mapped = 0;
  void* base = hostos::MapStack(usable, &mapped);
  if (base == nullptr) {
    return false;
  }
  counters::Bump(counters::kPoolMaps);
  if (const int cls = ClassIndex(mapped); cls >= 0) {
    counters::Bump(counters::PoolClass(cls, counters::kPoolClass0Misses));
  }
  out->base = static_cast<char*>(base);
  out->mapped = mapped;
  return true;
}

void StackPool::PushFree(const Stack& s) {
  const int cls = ClassIndex(s.mapped);
  FSUP_ASSERT(cls >= 0);
  char* top = s.base + s.mapped;
  free_heads_[cls] = new (top - sizeof(FreeStack)) FreeStack{free_heads_[cls]};
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
  out->mapped = kMinStackSize << cls;
  out->base = reinterpret_cast<char*>(fs + 1) - out->mapped;
  free_bytes_ -= out->mapped;
  fs->~FreeStack();
  return true;
}

// Largest-first eviction: pop from the highest occupied class until the mapped bytes held by
// the free lists fit the budget again. The budget counts mapped bytes, not touched ones: it
// bounds address-space pinning.
void StackPool::EvictOverBudget() {
  int cls = kNumClasses - 1;
  while (free_bytes_ > kBudgetBytes && cls >= 0) {
    Stack s;
    if (!TakePooledStack(cls, &s)) {
      --cls;
      continue;
    }
    counters::Bump(counters::PoolClass(cls, counters::kPoolClass0Evictions));
    hostos::UnmapStack(s.base, s.mapped);
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
  if (usable < stack_size) {
    counters::Bump(counters::kPoolAllocFailures);
    errno = EAGAIN;  // the page round-up wrapped: no mapping can hold the request
    return false;
  }
  const int cls = ClassIndex(usable);

  // A recycled stack first; then a fresh map; and if the map failed (address space exhausted
  // or an injected fault), the free list once more: a stack freed since the first probe
  // (zombie reaping runs between the two) can still satisfy a class-size request.
  Stack s;
  bool recycled = TakePooledStack(cls, &s);
  if (!recycled && !MapFresh(usable, &s)) {
    recycled = TakePooledStack(cls, &s);
    if (!recycled) {
      counters::Bump(counters::kPoolAllocFailures);
      return false;
    }
  }
  if (recycled) {
    counters::Bump(counters::PoolClass(cls, counters::kPoolClass0Hits));
  }
  t->stack_base = s.base;
  t->stack_size = s.mapped;
  t->stack_pooled = ClassIndex(s.mapped) >= 0;
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
  const Stack s{static_cast<char*>(t->stack_base), t->stack_size};
  const bool recycle = t->stack_pooled;
  t->magic = 0;
  t->~Tcb();
  tcb_pool_.Put(t);

  if (s.base == nullptr) {
    return;  // no library-owned stack (never activated, or the main thread)
  }
  live_bytes_ -= s.mapped;
  if (recycle) {
    PushFree(s);
    EvictOverBudget();
    return;
  }
  hostos::UnmapStack(s.base, s.mapped);
}

Tcb* StackPool::GuardOwner(const void* addr, Tcb* current,
                           IntrusiveList<Tcb, &Tcb::all_link>& threads) {
  auto in_guard = [addr](const Tcb* t) {
    return t != nullptr && t->stack_base != nullptr && hostos::InGuardPage(addr, t->stack_base);
  };
  if (in_guard(current)) {
    return current;
  }
  for (Tcb* t : threads) {
    if (in_guard(t)) {
      return t;
    }
  }
  return nullptr;
}

}  // namespace fsup
