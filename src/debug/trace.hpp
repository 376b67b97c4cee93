// Event tracing.
//
// A fixed-size ring of scheduler events (context switches, suspends and wakes, mutex
// operations, priority changes, signal deliveries, cond waits, cancellations, fake calls,
// timer ticks) with CLOCK_MONOTONIC timestamps and the logging thread's id. The ring is the
// kTrace consumer of the observation funnel (debug/obs.hpp): transition sites call
// obs::Emit, and Append runs only while the trace bit of the observer mask is set.
// The priority-inversion benches (paper Figure 5) replay this ring to print the execution
// timelines, tests assert ordering properties against it, and the Chrome trace_event exporter
// (debug/export.hpp) turns it into a Perfetto-loadable timeline.
//
// The ring is lock-free and bounded: writers reserve a slot with an atomic counter, fill it,
// and commit with a second counter. The only asynchrony in the process is UNIX signal
// delivery, so a "concurrent" writer is always a signal handler that interrupted either
// another Append call or a reader mid-copy; Snapshot() detects both via the counters and
// retries, entering the kernel (which defers signal handlers) as a last resort.

#ifndef FSUP_SRC_DEBUG_TRACE_HPP_
#define FSUP_SRC_DEBUG_TRACE_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/debug/obs.hpp"

namespace fsup::debug::trace {

// The trace-visible events are the first obs::Event values (see debug/obs.hpp).
using Event = obs::Event;

struct Record {
  int64_t t_ns;
  uint64_t d;    // logical decision counter at logging time (debug/replay.hpp) — a logical
                 // clock two runs can be compared on, unlike the wall-clock t_ns
  uint32_t tid;  // thread current when the event was logged (0 before init); for a switch,
                 // the incoming thread
  uint32_t a;
  uint32_t b;
  Event event;
};

// Sets the trace bit of the observer mask (and recomputes the sync fast-path mode: tracing
// wants every sync event logged from inside the monitor).
void Enable(bool on);
void Clear();
size_t Capacity();

// The funnel's trace consumer: appends a record stamped `now`. Safe from kernel and
// signal-handler context (no allocation, no locks). Called only by obs::EmitSlow.
void Append(Event e, uint32_t a, uint32_t b, int64_t now);

// Records ever logged, including ones the ring has already overwritten.
uint64_t TotalLogged();

// Copies the most recent min(records held, max) records into out, oldest first, and returns the
// number copied. The copy is consistent: it retries if a signal-driven writer moved the ring
// during the copy, and as a final fallback performs the copy inside the Pthreads kernel,
// where signal handlers (the only possible concurrent writers) are deferred. Records are in
// slot order; timestamps can be out of order by one slot when a signal handler interrupted a
// Append call mid-write (the interrupted reservation commits later) — sort by t_ns if order
// matters.
size_t Snapshot(Record* out, size_t max);

// Snapshot of the whole ring (user context: allocates).
std::vector<Record> SnapshotAll();

const char* Name(Event e);

}  // namespace fsup::debug::trace

#endif  // FSUP_SRC_DEBUG_TRACE_HPP_
