#include "src/cancel/cleanup.hpp"

#include <cerrno>
#include <cstddef>

#include "src/arch/ras.hpp"
#include "src/kernel/kernel.hpp"
#include "src/util/assert.hpp"

namespace fsup::cleanup {
namespace {

static_assert(offsetof(CleanupNode, next) == 0, "the RAS list links through the first word");

// Popped nodes, shared by every thread and never returned to the heap, so a warm Push
// allocates nothing. The list grows to the most handlers ever registered at once.
void* volatile g_spare = nullptr;

CleanupNode* TakeNode() {
  if (void* n = fsup_ras_list_pop(&g_spare); n != nullptr) {
    return static_cast<CleanupNode*>(n);
  }
  return new CleanupNode;
}

void Recycle(CleanupNode* node) { fsup_ras_list_push(&g_spare, node); }

}  // namespace

void Push(void (*fn)(void*), void* arg) {
  kernel::EnsureInit();
  Tcb* self = kernel::Current();
  CleanupNode* node = TakeNode();
  node->fn = fn;
  node->arg = arg;
  node->next = self->cleanup_head;
  self->cleanup_head = node;
}

int Pop(bool execute) {
  kernel::EnsureInit();
  Tcb* self = kernel::Current();
  CleanupNode* node = self->cleanup_head;
  if (node == nullptr) {
    return EINVAL;
  }
  self->cleanup_head = node->next;
  if (execute && node->fn != nullptr) {
    node->fn(node->arg);
  }
  Recycle(node);
  return 0;
}

void RunAll(Tcb* t) {
  while (t->cleanup_head != nullptr) {
    CleanupNode* node = t->cleanup_head;
    t->cleanup_head = node->next;
    if (node->fn != nullptr) {
      node->fn(node->arg);
    }
    Recycle(node);
  }
}

}  // namespace fsup::cleanup
