#include "src/sync/fastpath.hpp"

#include <cstdlib>
#include <cstring>

#include "src/debug/obs.hpp"
#include "src/kernel/kernel.hpp"

namespace fsup::sync::fastpath {
namespace {

bool g_requested = true;

}  // namespace

uint8_t g_active = 1;

void Recompute() {
  // Any observer that needs to see every sync operation forces the kernel path: the trace
  // and metrics consumers see lock/unlock events only from inside the monitor, and the
  // perverted mutex-switch policy hooks each successful lock. The profiler bits do NOT demote
  // the fast path — the on-CPU sampler rides the universal signal handler, which restarts an
  // interrupted fast-path sequence like any other signal, and the off-CPU consumer books only
  // at Suspend (which a fast-path operation by definition never reaches).
  const bool demoted = debug::obs::On(debug::obs::kTrace | debug::obs::kMetrics) ||
                       kernel::ks().perverted != PervertedPolicy::kNone;
  g_active = g_requested && !demoted ? 1 : 0;
}

void SetRequested(bool on) {
  g_requested = on;
  Recompute();
}

bool Requested() { return g_requested; }

void InitFromEnv() {
  const char* v = std::getenv("FSUP_FASTPATH");
  // "0" and "off" kill the fast path; unset, empty, "1" and anything else keep the default.
  g_requested = v == nullptr || (std::strcmp(v, "0") != 0 && std::strcmp(v, "off") != 0);
  Recompute();
}

}  // namespace fsup::sync::fastpath
