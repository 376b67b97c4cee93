// Perverted scheduling (paper, "Perverted Scheduling: Testing and Debugging"), and the one
// owner of kernel-exit schedule perturbation.
//
// Three deliberately non-conforming policies that force context switches at library operations
// to simulate parallel execution on a uniprocessor, making ordering bugs reproducible:
//
//   Mutex switch      — on each successful mutex lock, the current thread moves to the tail of
//                       its priority queue and the ready-queue head runs.
//   RR-ordered switch — on each kernel exit, the current thread moves to the tail of the
//                       *lowest* priority queue and the ready-queue head runs (priority
//                       scheduling deliberately violated, as on a real multiprocessor).
//   Random switch     — on each kernel exit a seeded coin is flipped; on heads the current
//                       thread moves to the tail of the lowest priority queue and the next
//                       thread is drawn at random from the whole ready set.
//
// The exploration gate (the lever of debug/explore.hpp) perturbs the same kernel exits. They
// are numbered by a gate ordinal; at a firing ordinal the running thread is demoted exactly
// like the RR-ordered rule. Fired gates are logged as replay kForced decisions, so a recorded
// exploration run replays — and shrinks — exactly.
//
// Every random choice is one hash of (seed, count): the random policy hashes (policy seed,
// draw count), the gate hashes (exploration seed, gate ordinal). Both counts restart at
// pt_set_perverted / SetPerturb* and at each record or replay session start, so a replayed
// run re-derives every draw from the seed the program passes — nothing random is logged. A
// program that seeds from the clock diverges on replay at the first switch that differs.

#ifndef FSUP_SRC_SCHED_PERVERTED_HPP_
#define FSUP_SRC_SCHED_PERVERTED_HPP_

#include <cstddef>
#include <cstdint>

#include "src/kernel/types.hpp"

namespace fsup {
struct Tcb;
}

namespace fsup::sched {

inline constexpr size_t kMaxPoints = 64;  // exploration point-set capacity

// Nonzero while kernel::Exit must call OnKernelExit: a kernel-exit policy is set, the
// exploration gate is armed, or replay needs the exit (kForced records, timer re-arm).
extern uint8_t g_exit_hook;

// Set by a random-policy switch: the dispatcher's next selection is TakeRandomPick.
extern uint8_t g_random_pick;

// The kernel-exit hook, in order: the replay re-arm, the logged/replayed forced switch, the
// RR-ordered/random policy rule. Called by kernel::Exit with the kernel entered.
void OnKernelExit();

// Applies the mutex-switch rule after a successful lock. In kernel.
void PervertedOnMutexLock();

// Clears g_random_pick and removes a ready thread drawn at random (nullptr when none is
// ready). In kernel.
Tcb* TakeRandomPick();

// Selects the perverted policy (pt_set_perverted); restarts the random policy's draw count.
void SetPolicy(PervertedPolicy policy, uint64_t seed);

// -- exploration gate ---------------------------------------------------------------------

// Fire at gate ordinals selected by hash(seed, ordinal) % 1000 < permille.
void SetPerturbRandom(uint64_t seed, uint32_t permille);

// Fire at exactly these gate ordinals (at most kMaxPoints are kept).
void SetPerturbPoints(const uint64_t* points, size_t n);

void ClearPerturb();
uint64_t PerturbOrdinal();  // gates passed since the gate was armed or a session started

// Arms the gate from FSUP_EXPLORE_POINTS or FSUP_EXPLORE_SEED/_PROB (once per process).
void InitFromEnv();

// -- replay's side (debug/replay.cpp) ------------------------------------------------------

// Restarts the gate ordinal and the policy draw count: a record or replay session starts.
void RewindDraws();

// Replay mode (or a pending timer re-arm) needs every kernel exit.
void SetReplayExitHook(bool on);

}  // namespace fsup::sched

#endif  // FSUP_SRC_SCHED_PERVERTED_HPP_
