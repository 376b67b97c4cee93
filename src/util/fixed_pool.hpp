// Growable slab-backed object pool with a free list.
//
// The paper measures that ~70% of thread-creation time on SunOS was heap allocation of the TCB
// and stack, and removes it by pre-caching both in a memory pool. This pool is that mechanism
// for TCBs (StackPool handles stacks, which need mmap + guard pages). When the free list is
// exhausted the pool chains on another fixed-size slab (geometric growth) instead of degrading
// to one-at-a-time heap allocation — a million TCBs cost ~20 slab allocations, every Get/Put
// stays O(1), and FromSlab is a range check over the slab list.

#ifndef FSUP_SRC_UTIL_FIXED_POOL_HPP_
#define FSUP_SRC_UTIL_FIXED_POOL_HPP_

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

#include "src/util/assert.hpp"

namespace fsup {

template <typename T>
class FixedPool {
 public:
  FixedPool() = default;

  explicit FixedPool(size_t capacity) { Reserve(capacity); }

  FixedPool(const FixedPool&) = delete;
  FixedPool& operator=(const FixedPool&) = delete;

  ~FixedPool() { FSUP_CHECK_MSG(outstanding_ == 0, "pool destroyed with live objects"); }

  // Pre-allocates `capacity` slots. May be called once, before any Get().
  void Reserve(size_t capacity) {
    FSUP_CHECK(slabs_.empty());
    if (capacity == 0) {
      return;
    }
    Grow(capacity);
  }

  // Returns raw storage for a T; the caller placement-news into it.
  void* Get() {
    ++outstanding_;
    if (free_.empty()) {
      // A free-list miss is the event the paper's pre-cache argument counts: the reserve was
      // too small and we touch the allocator. Chain a new slab (doubling) so the miss is
      // amortized O(1) rather than per-object.
      ++heap_fallbacks_;
      Grow(capacity_ == 0 ? 1 : capacity_);
    } else {
      ++pool_hits_;
    }
    Slot* s = free_.back();
    free_.pop_back();
    return s->bytes;
  }

  // Returns storage obtained from Get(). The T must already be destroyed.
  void Put(void* p) {
    FSUP_CHECK(outstanding_ > 0);
    --outstanding_;
    FSUP_CHECK_MSG(FromSlab(p), "Put of storage this pool never issued");
    free_.push_back(reinterpret_cast<Slot*>(p));
  }

  size_t outstanding() const { return outstanding_; }
  size_t pool_hits() const { return pool_hits_; }
  size_t heap_fallbacks() const { return heap_fallbacks_; }
  size_t capacity() const { return capacity_; }

 private:
  struct alignas(alignof(T)) Slot {
    unsigned char bytes[sizeof(T)];
  };

  struct Slab {
    std::unique_ptr<Slot[]> slots;
    size_t count;
  };

  void Grow(size_t count) {
    Slab slab{std::unique_ptr<Slot[]>(new Slot[count]), count};
    free_.reserve(free_.size() + count);
    // Filled in reverse so Get() hands out slots in ascending address order.
    for (size_t i = 0; i < count; ++i) {
      free_.push_back(&slab.slots[count - 1 - i]);
    }
    capacity_ += count;
    slabs_.push_back(std::move(slab));
  }

  bool FromSlab(const void* p) const {
    const auto* s = reinterpret_cast<const Slot*>(p);
    for (const Slab& slab : slabs_) {
      if (s >= &slab.slots[0] && s < &slab.slots[slab.count]) {
        return true;
      }
    }
    return false;
  }

  std::vector<Slab> slabs_;
  std::vector<Slot*> free_;
  size_t capacity_ = 0;
  size_t outstanding_ = 0;
  size_t pool_hits_ = 0;
  size_t heap_fallbacks_ = 0;
};

}  // namespace fsup

#endif  // FSUP_SRC_UTIL_FIXED_POOL_HPP_
