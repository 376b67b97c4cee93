#include "src/debug/trace.hpp"

#include <atomic>

#include "src/debug/replay.hpp"
#include "src/kernel/kernel.hpp"
#include "src/sync/fastpath.hpp"

namespace fsup::debug::trace {
namespace {

constexpr size_t kCapacity = 1 << 16;

Record g_ring[kCapacity];

// Reserve/commit pair: Append bumps g_reserved, fills the slot, then bumps g_committed. When the
// two are equal no writer is mid-flight. Both only ever grow; slot = sequence % capacity.
std::atomic<uint64_t> g_reserved{0};
std::atomic<uint64_t> g_committed{0};

// One consistent copy of the ring window [first, end). Returns records oldest-first.
size_t CopyWindow(Record* out, uint64_t end, size_t n) {
  const uint64_t first = end - n;
  for (size_t i = 0; i < n; ++i) {
    out[i] = g_ring[(first + i) % kCapacity];
  }
  return n;
}

}  // namespace

void Enable(bool on) {
  obs::Set(obs::kTrace, on);
  sync::fastpath::Recompute();
}

void Clear() {
  g_reserved.store(0, std::memory_order_relaxed);
  g_committed.store(0, std::memory_order_relaxed);
}

size_t Capacity() { return kCapacity; }

void Append(Event e, uint32_t a, uint32_t b, int64_t now) {
  KernelState& k = kernel::ks();
  // A switch fires before `current` changes; its record belongs to the incoming thread (b).
  const uint32_t tid = e == Event::kSwitch ? b : (k.current != nullptr ? k.current->id : 0);
  // A signal handler interrupting us between the reservation and the commit logs into later
  // slots; our slot commits when we resume. Readers see reserved != committed meanwhile.
  const uint64_t seq = g_reserved.fetch_add(1, std::memory_order_relaxed);
  g_ring[seq % kCapacity] = Record{now, replay::DecisionCount(), tid, a, b, e};
  g_committed.fetch_add(1, std::memory_order_release);
}

uint64_t TotalLogged() { return g_committed.load(std::memory_order_acquire); }

size_t Snapshot(Record* out, size_t max) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    const uint64_t w0 = g_committed.load(std::memory_order_acquire);
    if (g_reserved.load(std::memory_order_relaxed) != w0) {
      continue;  // an Append call is mid-flight below us on the stack or was interrupted
    }
    const size_t avail = w0 < kCapacity ? static_cast<size_t>(w0) : kCapacity;
    const size_t n = avail < max ? avail : max;
    CopyWindow(out, w0, n);
    const uint64_t w1 = g_committed.load(std::memory_order_acquire);
    // Writers that ran during the copy filled slots [w0, w1). Our copy is still consistent
    // unless those wrapped into the window we read, i.e. unless w1 advanced past the oldest
    // copied slot's lap: w1 - (w0 - n) > capacity.
    if (w1 - (w0 - n) <= kCapacity) {
      return n;
    }
  }
  // Fallback: copy inside the kernel. The only concurrent writers are signal handlers, and
  // the universal handler defers itself while the kernel flag is set, so the ring is frozen
  // for the duration of the copy.
  const bool enter = !kernel::InKernel();
  if (enter) {
    kernel::EnsureInit();
    kernel::Enter();
  }
  const uint64_t w = g_committed.load(std::memory_order_acquire);
  const size_t avail = w < kCapacity ? static_cast<size_t>(w) : kCapacity;
  const size_t n = avail < max ? avail : max;
  CopyWindow(out, w, n);
  if (enter) {
    kernel::Exit();
  }
  return n;
}

std::vector<Record> SnapshotAll() {
  std::vector<Record> recs(kCapacity);
  recs.resize(Snapshot(recs.data(), recs.size()));
  return recs;
}

const char* Name(Event e) {
  switch (e) {
    case Event::kSwitch:
      return "switch";
    case Event::kMutexLock:
      return "lock";
    case Event::kMutexBlock:
      return "block";
    case Event::kMutexUnlock:
      return "unlock";
    case Event::kPrioBoost:
      return "boost";
    case Event::kPrioRestore:
      return "restore";
    case Event::kSignal:
      return "signal";
    case Event::kUser:
      return "user";
    case Event::kFault:
      return "fault";
    case Event::kOverflow:
      return "overflow";
    case Event::kDeadlock:
      return "deadlock";
    case Event::kCondWait:
      return "cond-wait";
    case Event::kCondSignal:
      return "cond-signal";
    case Event::kCancel:
      return "cancel";
    case Event::kFakeCall:
      return "fake-call";
    case Event::kTimerTick:
      return "timer-tick";
    case Event::kCondRequeue:
      return "cond-requeue";
    case Event::kStackCommit:
      return "stack-commit";
    case Event::kSuspend:
      return "suspend";
    case Event::kWake:
      return "wake";
    default:
      break;  // consumer-only events never reach the ring
  }
  return "?";
}

}  // namespace fsup::debug::trace
