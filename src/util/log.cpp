#include "src/util/log.hpp"

#include <unistd.h>

#include <cstdlib>
#include <cstring>

#include "src/util/assert.hpp"

namespace fsup {

namespace log {

void RawWrite(const char* data, size_t len) {
  // Best effort; short writes to stderr are acceptable for diagnostics.
  ssize_t rc = ::write(STDERR_FILENO, data, len);
  (void)rc;
}

void RawWriteCstr(const char* s) { RawWrite(s, ::strlen(s)); }

void RawWriteInt(int64_t value) {
  char buf[24];
  char* p = buf + sizeof(buf);
  bool neg = value < 0;
  uint64_t v = neg ? 0 - static_cast<uint64_t>(value) : static_cast<uint64_t>(value);
  do {
    *--p = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  if (neg) {
    *--p = '-';
  }
  RawWrite(p, static_cast<size_t>(buf + sizeof(buf) - p));
}

void RawWriteHex(uint64_t value) {
  char buf[18];
  char* p = buf + sizeof(buf);
  do {
    *--p = "0123456789abcdef"[value & 0xf];
    value >>= 4;
  } while (value != 0);
  *--p = 'x';
  *--p = '0';
  RawWrite(p, static_cast<size_t>(buf + sizeof(buf) - p));
}

}  // namespace log

void FatalError(const char* msg, const char* file, int line) {
  log::RawWriteCstr("fsup fatal: ");
  log::RawWriteCstr(msg);
  log::RawWriteCstr(" at ");
  log::RawWriteCstr(file);
  log::RawWriteCstr(":");
  log::RawWriteInt(line);
  log::RawWriteCstr("\n");
  ::abort();
}

}  // namespace fsup
