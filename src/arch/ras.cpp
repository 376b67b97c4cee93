#include "src/arch/ras.hpp"

#include <cstddef>

#include "src/util/assert.hpp"
#include "src/util/counters.hpp"

namespace fsup::ras {
namespace {

constexpr size_t kMaxSequences = 16;

Sequence g_sequences[kMaxSequences];
size_t g_count = 0;
bool g_builtins_done = false;

}  // namespace

void Register(uintptr_t start, uintptr_t end) {
  FSUP_CHECK(start < end);
  FSUP_CHECK_MSG(g_count < kMaxSequences, "too many restartable atomic sequences");
  g_sequences[g_count++] = Sequence{start, end};
}

bool Inside(uintptr_t pc) {
  for (size_t i = 0; i < g_count; ++i) {
    if (pc >= g_sequences[i].start && pc < g_sequences[i].end) {
      return true;
    }
  }
  return false;
}

bool RewindIfInside(uintptr_t* pc) {
  for (size_t i = 0; i < g_count; ++i) {
    if (*pc >= g_sequences[i].start && *pc < g_sequences[i].end) {
      // Restarting at `start` re-executes only harmless prefix work; the committing store is
      // the final instruction, which the range excludes once executed.
      *pc = g_sequences[i].start;
      counters::Bump(counters::kRasRestarts);
      return true;
    }
  }
  return false;
}

void RegisterBuiltins() {
  if (g_builtins_done) {
    return;
  }
  g_builtins_done = true;
  Register(reinterpret_cast<uintptr_t>(fsup_ras_lock_begin),
           reinterpret_cast<uintptr_t>(fsup_ras_lock_end));
  Register(reinterpret_cast<uintptr_t>(fsup_ras_unlock_begin),
           reinterpret_cast<uintptr_t>(fsup_ras_unlock_end));
  Register(reinterpret_cast<uintptr_t>(fsup_ras_owner_lock_begin),
           reinterpret_cast<uintptr_t>(fsup_ras_owner_lock_end));
  Register(reinterpret_cast<uintptr_t>(fsup_ras_owner_unlock_begin),
           reinterpret_cast<uintptr_t>(fsup_ras_owner_unlock_end));
  Register(reinterpret_cast<uintptr_t>(fsup_ras_list_pop_begin),
           reinterpret_cast<uintptr_t>(fsup_ras_list_pop_end));
  Register(reinterpret_cast<uintptr_t>(fsup_ras_list_push_begin),
           reinterpret_cast<uintptr_t>(fsup_ras_list_push_end));
}

}  // namespace fsup::ras
