// Thread introspection: signal-safe dumps of every TCB, used by the deadlock detector, fatal
// errors, and the pt_dump_threads() debugging API (the paper's "Future Work" asks for exactly
// this: "Information could be extracted from the thread control block and made available to
// the user").

#ifndef FSUP_SRC_DEBUG_INTROSPECT_HPP_
#define FSUP_SRC_DEBUG_INTROSPECT_HPP_

#include <cstdint>

namespace fsup::debug {

// Writes a table of threads (id, name, state, block reason, priorities, stats) to stderr,
// followed by the counter block (util/counters.hpp) as a footer. Async-signal-safe.
// max_threads caps the table (0 = every live thread — at a million-thread population that is
// a million lines, so large-scale callers pass a small cap and get a "... and N more" line
// instead).
void DumpThreads(uint32_t max_threads = 0);

}  // namespace fsup::debug

#endif  // FSUP_SRC_DEBUG_INTROSPECT_HPP_
