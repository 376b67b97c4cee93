// Minimal async-signal-safe logging.
//
// The library runs code inside UNIX signal handlers (the universal signal handler and the
// dispatcher), where stdio is not safe. All diagnostics — warnings, fatal errors, thread
// dumps — therefore go through write(2)-based helpers.

#ifndef FSUP_SRC_UTIL_LOG_HPP_
#define FSUP_SRC_UTIL_LOG_HPP_

#include <cstddef>
#include <cstdint>

namespace fsup::log {

// Signal-safe building blocks, also used by the fatal-error path.
void RawWrite(const char* data, size_t len);
void RawWriteCstr(const char* s);
void RawWriteInt(int64_t value);
void RawWriteHex(uint64_t value);  // 0x-prefixed, for addresses in fault diagnostics

}  // namespace fsup::log

#endif  // FSUP_SRC_UTIL_LOG_HPP_
