#include "src/debug/obs.hpp"

#if !FSUP_NO_OBSERVE

#include "src/debug/metrics.hpp"
#include "src/debug/profiler.hpp"
#include "src/debug/replay.hpp"
#include "src/debug/trace.hpp"
#include "src/kernel/tcb.hpp"
#include "src/util/dual_loop_timer.hpp"

namespace fsup::debug::obs {

uint8_t g_mask = 0;

void Set(uint8_t bits, bool on) {
  g_mask = on ? static_cast<uint8_t>(g_mask | bits) : static_cast<uint8_t>(g_mask & ~bits);
}

void EmitSlow(Event e, Tcb* t, uint32_t a, uint32_t b, uint16_t gen) {
  const uint8_t interest = kInterest[static_cast<int>(e)];
  // The schedule log goes first and takes no timestamp. It advances the decision counter the
  // trace stamps its record with, so it also runs, to count, while only the trace is on.
  if ((interest & kReplay) != 0 && (g_mask & (kTrace | kReplay)) != 0) {
    replay::Observe(e, a, b, gen);
  }
  uint8_t want = g_mask & interest & ~kReplay;
  // A wake only closes a wait when the thread was blocked; readying a newborn is not one.
  if (e == Event::kWake && t->state != ThreadState::kBlocked) {
    want &= kMetrics;
  }
  if (want == 0) {
    return;
  }
  const int64_t now = NowNs();
  if ((want & kTrace) != 0) {
    trace::Append(e, a, b, now);
  }
  // The profiler walks the stack from this frame: the chain continues at the emitting site.
  if ((want & kOffCpu) != 0) {
    if (e == Event::kSuspend) {
      profiler::CaptureBlock(t, static_cast<BlockReason>(b), now, __builtin_frame_address(0),
                             __builtin_return_address(0));
    } else if (e == Event::kWake) {
      profiler::CloseBlock(t, now);
    } else {
      profiler::MaybeCollect(now);  // kIdlePoll: publish the state the process idles in
    }
  }
  if ((want & kTickSample) != 0) {
    profiler::TickSample(now, __builtin_frame_address(0), __builtin_return_address(0));
  }
  if ((want & kMetrics) != 0) {
    metrics::Consume(e, t, b, gen, now);
  }
}

}  // namespace fsup::debug::obs

#endif  // !FSUP_NO_OBSERVE
