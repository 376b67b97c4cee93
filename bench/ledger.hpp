// The one writer of the performance ledgers (BENCH_*.json): every file has the shape
//
//   {"bench":NAME,"host":CPU,"rows":[
//     {"op":OP,"key":value,...},
//     ...
//   ]}
//
// one flat row per line, its "op" first, then named values (numbers or strings).
// "host" (CPU model and online CPU count) is written only by ledgers that hold timings, so a
// ledger of exact counts is byte-reproducible. A figure that written rows already determine,
// such as the ratio of two rows, is left to the reader. Strings are written as given, unescaped.
//
// The ledger is written to PATH.tmp, opened when the Ledger is made, before anything is
// measured: a path that cannot be opened ends the program at once, status 1. Close() writes
// the rows and renames PATH.tmp over PATH; a failed write, close or rename names the path and
// makes the exit status nonzero. A run that ends before Close(), or closes with status 2
// (setup failed, nothing measured), leaves PATH as it was.

#ifndef FSUP_BENCH_LEDGER_HPP_
#define FSUP_BENCH_LEDGER_HPP_

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>

namespace fsup {

class Ledger {
 public:
  Ledger(const char* path, const char* bench, bool timings)
      : path_(path), tmp_(std::string(path) + ".tmp"), f_(std::fopen(tmp_.c_str(), "w")) {
    if (f_ == nullptr) {
      std::fprintf(stderr, "cannot write %s: %s\n", tmp_.c_str(), std::strerror(errno));
      std::exit(1);
    }
    text_ = std::string("{\"bench\":\"") + bench + "\"";
    if (timings) {
      text_ += ",\"host\":\"" + Host() + "\"";
    }
    text_ += ",\"rows\":[";
  }
  ~Ledger() {
    if (f_ != nullptr) {
      std::fclose(f_);
    }
    std::remove(tmp_.c_str());  // gone already when Close() renamed it
  }
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  // Starts the next row; the Set calls that follow fill it.
  Ledger& Row(const char* op) {
    text_ += rows_++ == 0 ? "\n  {" : "},\n  {";
    return Set("op", op);
  }

  Ledger& Set(const char* key, const char* v) {
    Key(key);
    text_ += std::string("\"") + v + "\"";
    return *this;
  }
  template <typename T>
    requires std::is_integral_v<T>
  Ledger& Set(const char* key, T v) {
    Key(key);
    text_ += std::to_string(v);
    return *this;
  }
  Ledger& Set(const char* key, double v, int decimals = 3) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    Key(key);
    text_ += buf;
    return *this;
  }

  // Writes the ledger and puts it in place, unless `rc` is 2. Returns `rc`, or 1 when `rc` is 0
  // and the write failed.
  int Close(int rc) {
    if (rc == 2) {
      return rc;
    }
    text_ += rows_ == 0 ? "]}\n" : "}\n]}\n";
    const bool written = std::fputs(text_.c_str(), f_) >= 0;
    const bool closed = std::fclose(f_) == 0;
    f_ = nullptr;
    if (!written || !closed || std::rename(tmp_.c_str(), path_) != 0) {
      std::fprintf(stderr, "cannot write %s: %s\n", path_, std::strerror(errno));
      return rc != 0 ? rc : 1;
    }
    std::printf("wrote %s\n", path_);
    return rc;
  }

 private:
  void Key(const char* key) {
    text_ += text_.back() == '{' ? "\"" : ",\"";
    text_ += key;
    text_ += "\":";
  }

  // "<CPU model>, <n> cpus", from /proc/cpuinfo and sysconf.
  static std::string Host() {
    std::string model = "unknown";
    if (FILE* f = std::fopen("/proc/cpuinfo", "r"); f != nullptr) {
      char line[256];
      while (std::fgets(line, sizeof(line), f) != nullptr) {
        const char* colon = std::strchr(line, ':');
        if (std::strncmp(line, "model name", 10) == 0 && colon != nullptr) {
          model = colon + 2;
          model.erase(model.find_last_not_of(" \n") + 1);
          break;
        }
      }
      std::fclose(f);
    }
    return model + ", " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) + " cpus";
  }

  const char* path_;
  std::string tmp_;
  FILE* f_;
  std::string text_;
  int rows_ = 0;
};

}  // namespace fsup

#endif  // FSUP_BENCH_LEDGER_HPP_
