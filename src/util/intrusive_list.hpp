// Intrusive doubly-linked list.
//
// The Pthreads kernel never allocates while it manipulates scheduler state: ready queues, mutex
// waiter queues, condition-variable queues, join queues, and the all-threads list all link
// through nodes embedded in the TCB (or mutex). A thread is on at most one *wait* queue at a
// time, so a single embedded node serves every queue a thread can block on.
//
// The list is circular with a sentinel, so push/pop/erase are branch-free constant time, and a
// node knows whether it is linked (node.linked()). Erasing a node that is not linked is a fatal
// error in debug builds.

#ifndef FSUP_SRC_UTIL_INTRUSIVE_LIST_HPP_
#define FSUP_SRC_UTIL_INTRUSIVE_LIST_HPP_

#include <cstddef>

#include "src/util/assert.hpp"

namespace fsup {

struct ListNode {
  ListNode* prev = nullptr;
  ListNode* next = nullptr;

  bool linked() const { return next != nullptr; }

  // Unlinks this node from whatever list holds it. No-op if not linked.
  void Unlink() {
    if (!linked()) {
      return;
    }
    prev->next = next;
    next->prev = prev;
    prev = nullptr;
    next = nullptr;
  }
};

// List of T where T embeds a ListNode accessible as (t->*Node).
template <typename T, ListNode T::* Node>
class IntrusiveList {
 public:
  IntrusiveList() {
    head_.prev = &head_;
    head_.next = &head_;
  }

  IntrusiveList(const IntrusiveList&) = delete;
  IntrusiveList& operator=(const IntrusiveList&) = delete;

  bool empty() const { return head_.next == &head_; }

  size_t size() const {
    size_t n = 0;
    for (ListNode* p = head_.next; p != &head_; p = p->next) {
      ++n;
    }
    return n;
  }

  void PushBack(T* t) {
    ListNode* n = &(t->*Node);
    FSUP_ASSERT(!n->linked());
    n->prev = head_.prev;
    n->next = &head_;
    head_.prev->next = n;
    head_.prev = n;
  }

  void PushFront(T* t) {
    ListNode* n = &(t->*Node);
    FSUP_ASSERT(!n->linked());
    n->next = head_.next;
    n->prev = &head_;
    head_.next->prev = n;
    head_.next = n;
  }

  // Inserts t before pos. pos must be on this list.
  void InsertBefore(T* pos, T* t) {
    ListNode* at = &(pos->*Node);
    ListNode* n = &(t->*Node);
    FSUP_ASSERT(at->linked());
    FSUP_ASSERT(!n->linked());
    n->prev = at->prev;
    n->next = at;
    at->prev->next = n;
    at->prev = n;
  }

  T* Front() const { return empty() ? nullptr : FromNode(head_.next); }
  T* Back() const { return empty() ? nullptr : FromNode(head_.prev); }

  T* PopFront() {
    if (empty()) {
      return nullptr;
    }
    T* t = Front();
    (t->*Node).Unlink();
    return t;
  }

  void Erase(T* t) { (t->*Node).Unlink(); }

  bool Contains(const T* t) const {
    const ListNode* n = &(t->*Node);
    for (const ListNode* p = head_.next; p != &head_; p = p->next) {
      if (p == n) {
        return true;
      }
    }
    return false;
  }

  // Minimal forward iterator; erase-safe iteration should grab `next` before mutating.
  class Iterator {
   public:
    Iterator(ListNode* at, const ListNode* end) : at_(at), end_(end) {}
    T* operator*() const { return FromNode(at_); }
    Iterator& operator++() {
      at_ = at_->next;
      return *this;
    }
    bool operator!=(const Iterator& o) const { return at_ != o.at_; }

   private:
    ListNode* at_;
    const ListNode* end_;
  };

  Iterator begin() { return Iterator(head_.next, &head_); }
  Iterator end() { return Iterator(&head_, &head_); }

  // Applies fn to every element; fn may unlink the element it is given.
  template <typename Fn>
  void ForEachSafe(Fn&& fn) {
    ListNode* p = head_.next;
    while (p != &head_) {
      ListNode* next = p->next;
      fn(FromNode(p));
      p = next;
    }
  }

 private:
  static T* FromNode(ListNode* n) {
    // Standard container_of: Node is a member pointer into T.
    const T* probe = nullptr;
    auto offset = reinterpret_cast<const char*>(&(probe->*Node)) -
                  reinterpret_cast<const char*>(probe);
    return reinterpret_cast<T*>(reinterpret_cast<char*>(n) - offset);
  }
  static T* FromNode(const ListNode* n) { return FromNode(const_cast<ListNode*>(n)); }

  ListNode head_;
};

}  // namespace fsup

#endif  // FSUP_SRC_UTIL_INTRUSIVE_LIST_HPP_
