// splitmix64 as a pure function of (seed, count): draw `count` of the stream `seed` seeds, so
// re-running a seed reproduces its draws exactly.

#ifndef FSUP_SRC_UTIL_HASH_HPP_
#define FSUP_SRC_UTIL_HASH_HPP_

#include <cstdint>

namespace fsup {

inline uint64_t Hash(uint64_t seed, uint64_t count) {
  uint64_t z = seed + (count + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace fsup

#endif  // FSUP_SRC_UTIL_HASH_HPP_
