// Deterministic pseudo-random number generator (xoshiro256**).
//
// Used by the seeded property and model tests, whose sequences must be reproducible across
// runs, which rules out std::random_device and platform-varying distributions. (The perverted
// random-switch policy hashes (seed, draw count) instead, so a replay re-derives each draw:
// sched/perverted.hpp.)

#ifndef FSUP_TESTS_RNG_HPP_
#define FSUP_TESTS_RNG_HPP_

#include <cstdint>

namespace fsup {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) { Seed(seed); }

  void Seed(uint64_t seed);

  uint64_t Next();

  // Uniform in [0, bound) without modulo bias.
  uint64_t NextBelow(uint64_t bound);

  // Fair coin.
  bool NextBool() { return (Next() & 1) != 0; }

 private:
  uint64_t s_[4];
};

}  // namespace fsup

#endif  // FSUP_TESTS_RNG_HPP_
