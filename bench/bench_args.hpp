// The command line of the benches that write a BENCH_*.json: [--smoke] [--json PATH].
//
// --smoke shrinks every dimension to CI size (the ctest smoke runs) and is accepted only by
// benches that have a smoke size; --json names the output file (default: the bench's
// BENCH_*.json in the current directory). Anything else prints the usage and exits 2.

#ifndef FSUP_BENCH_BENCH_ARGS_HPP_
#define FSUP_BENCH_BENCH_ARGS_HPP_

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace fsup {

struct BenchArgs {
  bool smoke = false;
  const char* json = nullptr;
};

inline BenchArgs ParseBenchArgs(int argc, char** argv, const char* default_json,
                                bool has_smoke) {
  BenchArgs a;
  a.json = default_json;
  for (int i = 1; i < argc; ++i) {
    if (has_smoke && std::strcmp(argv[i], "--smoke") == 0) {
      a.smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      a.json = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s %s[--json PATH]\n", argv[0],
                   has_smoke ? "[--smoke] " : "");
      std::exit(2);
    }
  }
  return a;
}

}  // namespace fsup

#endif  // FSUP_BENCH_BENCH_ARGS_HPP_
