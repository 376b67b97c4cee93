#include "src/sync/fastpath.hpp"

#include <cstdlib>
#include <cstring>

#include "src/debug/obs.hpp"
#include "src/kernel/kernel.hpp"

namespace fsup::sync::fastpath {
namespace {

Mode g_requested = Mode::kRas;

}  // namespace

uint8_t g_active = static_cast<uint8_t>(Mode::kRas);

void Recompute() {
  Mode active = g_requested;
  // Any observer that needs to see every sync operation forces the kernel path: the trace
  // and metrics consumers see lock/unlock events only from inside the monitor, and the
  // perverted mutex-switch policy hooks each successful lock. The profiler bits do NOT demote
  // the mode — the on-CPU sampler rides the universal signal handler, which restarts an
  // interrupted fast-path sequence like any other signal, and the off-CPU consumer books only
  // at Suspend (which a fast-path operation by definition never reaches).
  if (debug::obs::On(debug::obs::kTrace | debug::obs::kMetrics) ||
      kernel::ks().perverted != PervertedPolicy::kNone) {
    active = Mode::kOff;
  }
  g_active = static_cast<uint8_t>(active);
}

void SetRequested(Mode m) {
  g_requested = m;
  Recompute();
}

Mode Requested() { return g_requested; }

void InitFromEnv() {
  const char* v = std::getenv("FSUP_FASTPATH");
  Mode m = Mode::kRas;
  if (v != nullptr && v[0] != '\0') {
    if (std::strcmp(v, "0") == 0 || std::strcmp(v, "off") == 0) {
      m = Mode::kOff;
    } else if (std::strcmp(v, "cas") == 0) {
      m = Mode::kCas;
    }  // "1", "ras", and anything else keep the default
  }
  g_requested = m;
  Recompute();
}

}  // namespace fsup::sync::fastpath
