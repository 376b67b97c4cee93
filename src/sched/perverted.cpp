#include "src/sched/perverted.hpp"

#include <cstdlib>
#include <cstring>

#include "src/debug/obs.hpp"
#include "src/debug/replay.hpp"
#include "src/kernel/kernel.hpp"
#include "src/sync/fastpath.hpp"
#include "src/util/assert.hpp"
#include "src/util/counters.hpp"
#include "src/util/hash.hpp"

namespace fsup::sched {

uint8_t g_exit_hook = 0;
uint8_t g_random_pick = 0;

namespace {

// g_exit_hook bits, one per owner.
constexpr uint8_t kExitPolicy = 1u << 0;   // RR-ordered or random policy
constexpr uint8_t kExitExplore = 1u << 1;  // exploration gate armed
constexpr uint8_t kExitReplay = 1u << 2;   // replaying, or the interval timer awaits re-arm

uint64_t g_policy_seed = 0;
uint64_t g_draws = 0;  // random-policy draws since SetPolicy or the session start

bool g_points_mode = false;
uint64_t g_perturb_seed = 0;
uint32_t g_perturb_permille = 0;
uint64_t g_points[kMaxPoints];
size_t g_npoints = 0;
uint64_t g_ordinal = 0;  // gates passed since arming or the session start

void SetExitBit(uint8_t bit, bool on) {
  g_exit_hook = static_cast<uint8_t>(on ? g_exit_hook | bit : g_exit_hook & ~bit);
}

uint64_t Draw() { return Hash(g_policy_seed, g_draws++); }

bool FireAt(uint64_t ordinal) {
  if (g_points_mode) {
    for (size_t i = 0; i < g_npoints; ++i) {
      if (g_points[i] == ordinal) {
        return true;
      }
    }
    return false;
  }
  return Hash(g_perturb_seed, ordinal) % 1000 < g_perturb_permille;
}

// True when the running thread has another ready thread to interleave with.
bool CanDemote(const KernelState& k) {
  return k.current != nullptr && k.current->state == ThreadState::kRunning && !k.ready.empty();
}

// Requeues the running thread and flags a dispatch: behind every other ready thread
// (behind_all, the kernel-exit rules) or at the tail of its own priority level (mutex switch).
void Demote(KernelState& k, bool behind_all) {
  Tcb* self = k.current;
  self->state = ThreadState::kReady;
  if (behind_all) {
    k.ready.PushBackLowestLevel(self);
  } else {
    k.ready.PushBack(self);
  }
  k.dispatch_pending = 1;
  counters::Bump(counters::kKernelForcedSwitches);
}

// The gate's verdict at this kernel exit: a replay re-applies the logged kForced switches; a
// live run fires the armed points or seeded coin and logs what fired.
bool GateFires(bool can_demote) {
  if (debug::replay::Replaying()) {
    return debug::replay::ReplayForced(g_ordinal++, can_demote);
  }
  if ((g_exit_hook & kExitExplore) == 0) {
    return false;
  }
  const uint64_t ordinal = g_ordinal++;
  if (!can_demote || !FireAt(ordinal)) {
    return false;
  }
  debug::obs::Emit(debug::obs::Event::kForcedSwitch, nullptr, static_cast<uint32_t>(ordinal), 0);
  return true;
}

bool ParseU64(const char* s, const char* end, uint64_t* out) {
  if (s == end) {
    return false;
  }
  uint64_t v = 0;
  for (; s != end; ++s) {
    if (*s < '0' || *s > '9') {
      return false;
    }
    v = v * 10 + static_cast<uint64_t>(*s - '0');
  }
  *out = v;
  return true;
}

}  // namespace

void OnKernelExit() {
  KernelState& k = kernel::ks();
  FSUP_ASSERT(k.in_kernel != 0);
  if ((g_exit_hook & kExitReplay) != 0) {
    debug::replay::RearmAfterExhaust();
  }
  const bool can_demote = CanDemote(k);
  if (GateFires(can_demote)) {
    Demote(k, true);  // a forced switch leaves the policy rule nothing to do
    return;
  }
  if (!can_demote) {
    return;
  }
  if (k.perverted == PervertedPolicy::kRrOrdered) {
    Demote(k, true);
  } else if (k.perverted == PervertedPolicy::kRandom && (Draw() & 1) != 0) {
    Demote(k, true);
    g_random_pick = 1;
  }
}

void PervertedOnMutexLock() {
  KernelState& k = kernel::ks();
  FSUP_ASSERT(k.in_kernel != 0);
  if (k.perverted == PervertedPolicy::kMutexSwitch && CanDemote(k)) {
    Demote(k, false);
  }
}

Tcb* TakeRandomPick() {
  KernelState& k = kernel::ks();
  g_random_pick = 0;
  return k.ready.empty() ? nullptr : k.ready.PopNth(Draw() % k.ready.size());
}

void SetPolicy(PervertedPolicy policy, uint64_t seed) {
  KernelState& k = kernel::ks();
  k.perverted = policy;
  g_policy_seed = seed;
  g_draws = 0;
  g_random_pick = 0;
  SetExitBit(kExitPolicy,
             policy == PervertedPolicy::kRrOrdered || policy == PervertedPolicy::kRandom);
  // Perverted mutex-switch hooks every successful lock: demote (or restore) the sync fast
  // paths that would otherwise bypass the hook.
  sync::fastpath::Recompute();
}

void SetPerturbRandom(uint64_t seed, uint32_t permille) {
  g_points_mode = false;
  g_perturb_seed = seed;
  g_perturb_permille = permille > 1000 ? 1000 : permille;
  g_ordinal = 0;
  SetExitBit(kExitExplore, true);
}

void SetPerturbPoints(const uint64_t* points, size_t n) {
  g_points_mode = true;
  g_npoints = n < kMaxPoints ? n : kMaxPoints;
  for (size_t i = 0; i < g_npoints; ++i) {
    g_points[i] = points[i];
  }
  g_ordinal = 0;
  SetExitBit(kExitExplore, true);
}

void ClearPerturb() {
  g_points_mode = false;
  g_npoints = 0;
  g_ordinal = 0;
  SetExitBit(kExitExplore, false);
}

uint64_t PerturbOrdinal() { return g_ordinal; }

void InitFromEnv() {
  static bool done = false;
  if (done) {
    return;
  }
  done = true;
  if (const char* pts = std::getenv("FSUP_EXPLORE_POINTS"); pts != nullptr && *pts != '\0') {
    uint64_t parsed[kMaxPoints];
    size_t n = 0;
    const char* p = pts;
    while (*p != '\0' && n < kMaxPoints) {
      const char* sep = std::strchr(p, ',');
      const char* end = sep != nullptr ? sep : p + std::strlen(p);
      uint64_t v = 0;
      if (ParseU64(p, end, &v)) {
        parsed[n++] = v;
      }
      if (sep == nullptr) {
        break;
      }
      p = sep + 1;
    }
    SetPerturbPoints(parsed, n);
  } else if (const char* seed = std::getenv("FSUP_EXPLORE_SEED");
             seed != nullptr && *seed != '\0') {
    uint64_t s = 0;
    uint64_t permille = 30;
    ParseU64(seed, seed + std::strlen(seed), &s);
    if (const char* prob = std::getenv("FSUP_EXPLORE_PROB");
        prob != nullptr && *prob != '\0') {
      ParseU64(prob, prob + std::strlen(prob), &permille);
    }
    SetPerturbRandom(s, static_cast<uint32_t>(permille > 1000 ? 1000 : permille));
  }
}

void RewindDraws() {
  g_ordinal = 0;
  g_draws = 0;
}

void SetReplayExitHook(bool on) { SetExitBit(kExitReplay, on); }

}  // namespace fsup::sched
