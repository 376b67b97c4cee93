#include "src/kernel/prio_queue.hpp"

#include "src/util/assert.hpp"

namespace fsup {

void PrioBuckets::Push(Tcb* t, int level, bool front) {
  FSUP_ASSERT(level >= kMinPrio && level <= kMaxPrio);
  FSUP_ASSERT(t->queued_level == -1);
  if (front) {
    level_[level].PushFront(t);
  } else {
    level_[level].PushBack(t);
  }
  t->queued_level = static_cast<int8_t>(level);
  bitmap_ |= 1u << level;
  ++count_;
}

Tcb* PrioBuckets::PopFrom(int level) {
  Tcb* t = level_[level].PopFront();
  FSUP_ASSERT(t != nullptr);
  t->queued_level = -1;
  if (level_[level].empty()) {
    bitmap_ &= ~(1u << level);
  }
  --count_;
  return t;
}

Tcb* PrioBuckets::PopHighest() {
  if (bitmap_ == 0) {
    return nullptr;
  }
  return PopFrom(TopPrio());
}

void PrioBuckets::Erase(Tcb* t) {
  if (t->queued_level < 0) {
    return;
  }
  const int level = t->queued_level;
  level_[level].Erase(t);
  t->queued_level = -1;
  if (level_[level].empty()) {
    bitmap_ &= ~(1u << level);
  }
  --count_;
}

Tcb* PrioBuckets::PopNth(uint64_t i) {
  for (int level = kMaxPrio; level >= kMinPrio; --level) {
    if ((bitmap_ & (1u << level)) == 0) {
      continue;
    }
    for (Tcb* t : level_[level]) {
      if (i == 0) {
        Erase(t);
        return t;
      }
      --i;
    }
  }
  return nullptr;
}

}  // namespace fsup
