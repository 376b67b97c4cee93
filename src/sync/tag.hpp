// Trace tags for synchronization objects.
//
// Mutexes and condition variables are identified in the trace ring (and the Chrome
// trace_event export) by a small integer tag. The tags come from ONE process-wide counter so
// a mutex and a condition variable can never share a value — separate per-type counters made
// "mutex 1" and "cond 1" indistinguishable in an exported timeline. The counter is monotonic
// across ReinitForTesting on purpose: objects created before and after a reinit stay
// distinguishable in one trace. Record/replay is the one exception: tags stamp trace records
// that a replayed run must reproduce bit-exactly, so StartRecording/StartReplay rewind the
// counter to a common origin, the same way they rewind the decision counter. Each rewind
// starts a new tag generation, so objects created before and after one still differ in
// (tag, generation) — the metrics hold table keys on both. The generation never reaches the
// trace: the recorded and the replayed run are in different generations.

#ifndef FSUP_SRC_SYNC_TAG_HPP_
#define FSUP_SRC_SYNC_TAG_HPP_

#include <cstdint>

namespace fsup::sync {

// Returns the next unused tag (starting at 1; 0 means "untagged").
uint32_t NextSyncTag();

// The generation NextSyncTag is handing out tags in.
uint16_t SyncTagGeneration();

// Rewinds the counter to its origin and starts a new generation (replay session start; see
// above).
void ResetSyncTags();

}  // namespace fsup::sync

#endif  // FSUP_SRC_SYNC_TAG_HPP_
