#include "src/tsd/tsd.hpp"

#include <bit>
#include <cerrno>

#include "src/kernel/kernel.hpp"
#include "src/kernel/types.hpp"

namespace fsup::tsd {
namespace {

constexpr int kDestructorIterations = 4;  // POSIX's PTHREAD_DESTRUCTOR_ITERATIONS spirit

struct KeySlot {
  bool used = false;
  Destructor dtor = nullptr;
};

KeySlot g_keys[kMaxTsdKeys];

constexpr uint64_t KeyBit(Key key) { return uint64_t{1} << key; }

// The lowest key at or above `from` whose bit is set in t's mask, or kMaxTsdKeys.
int NextSetKey(const Tcb* t, int from) {
  const uint64_t bits = from < kMaxTsdKeys ? t->tsd_set & (~uint64_t{0} << from) : 0;
  return bits != 0 ? std::countr_zero(bits) : kMaxTsdKeys;
}

}  // namespace

int KeyCreate(Key* key, Destructor dtor) {
  kernel::EnsureInit();
  if (key == nullptr) {
    return EINVAL;
  }
  kernel::Enter();
  for (int i = 0; i < kMaxTsdKeys; ++i) {
    if (!g_keys[i].used) {
      g_keys[i].used = true;
      g_keys[i].dtor = dtor;
      *key = i;
      kernel::Exit();
      return 0;
    }
  }
  kernel::Exit();
  return EAGAIN;
}

int KeyDelete(Key key) {
  kernel::EnsureInit();
  if (key < 0 || key >= kMaxTsdKeys) {
    return EINVAL;
  }
  kernel::Enter();
  if (!g_keys[key].used) {
    kernel::Exit();
    return EINVAL;
  }
  g_keys[key].used = false;
  g_keys[key].dtor = nullptr;
  // A key created later may reuse this slot and must read NULL in every thread: forget the
  // deleted key's values now (O(threads), on a call POSIX expects to be rare). The bits stay;
  // a set bit over a NULL slot costs exit one test.
  for (Tcb* t : kernel::ks().all_threads) {
    t->tsd[key] = nullptr;
  }
  kernel::Exit();
  return 0;
}

int SetSpecific(Key key, void* value) {
  kernel::EnsureInit();
  if (key < 0 || key >= kMaxTsdKeys || !g_keys[key].used) {
    return EINVAL;
  }
  Tcb* self = kernel::Current();
  self->tsd[key] = value;
  if (value != nullptr) {
    self->tsd_set |= KeyBit(key);
  }
  return 0;
}

void* GetSpecific(Key key) {
  kernel::EnsureInit();
  if (key < 0 || key >= kMaxTsdKeys || !g_keys[key].used) {
    return nullptr;
  }
  return kernel::Current()->tsd[key];
}

void RunDestructors(Tcb* t) {
  for (int iter = 0; iter < kDestructorIterations && t->tsd_set != 0; ++iter) {
    // Ascending key order over the set bits only. The mask is re-read after every destructor:
    // one that sets a higher key is served in this pass, a lower one in the next.
    for (int i = NextSetKey(t, 0); i < kMaxTsdKeys; i = NextSetKey(t, i + 1)) {
      t->tsd_set &= ~KeyBit(i);
      void* value = t->tsd[i];
      if (value == nullptr || !g_keys[i].used || g_keys[i].dtor == nullptr) {
        continue;
      }
      t->tsd[i] = nullptr;
      g_keys[i].dtor(value);
    }
  }
}

void ResetForTesting() {
  for (KeySlot& k : g_keys) {
    k = KeySlot{};
  }
}

}  // namespace fsup::tsd
