#include "src/debug/export.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/debug/profiler.hpp"
#include "src/debug/trace.hpp"
#include "src/kernel/kernel.hpp"

namespace fsup::debug {
namespace {

// Function-local, so init running from another file's static constructors finds it built.
std::string& AtExitPath() {
  static std::string path;
  return path;
}

bool g_atexit_registered = false;

void DumpAtExit() {
  if (!AtExitPath().empty()) {
    TraceDumpJson(AtExitPath().c_str());
  }
}

// Minimal JSON string escaping — thread names are short ASCII, but a user-supplied name could
// contain anything.
std::string JsonEscape(const char* s) {
  std::string out;
  for (; *s != '\0'; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += static_cast<char>(c);
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
  return out;
}

// Thread names from the live TCBs, read under the kernel so the list cannot change mid-walk.
std::unordered_map<uint32_t, std::string> LiveThreadNames() {
  std::unordered_map<uint32_t, std::string> names;
  kernel::EnsureInit();
  kernel::Enter();
  for (Tcb* t : kernel::ks().all_threads) {
    names[t->id] = t->name[0] != '\0' ? std::string(t->name) : std::string();
  }
  kernel::Exit();
  return names;
}

double ToUs(int64_t t_ns, int64_t t0_ns) {
  return static_cast<double>(t_ns - t0_ns) / 1000.0;
}

}  // namespace

int TraceDumpJson(const char* path) {
  using trace::Event;
  using trace::Record;

  std::vector<Record> recs = trace::SnapshotAll();
  // Slot order can lag timestamp order by one slot when a signal handler interrupted a Log
  // call mid-write; the trace_event format wants non-decreasing ts.
  std::stable_sort(recs.begin(), recs.end(),
                   [](const Record& x, const Record& y) { return x.t_ns < y.t_ns; });

  auto names = LiveThreadNames();
  for (const Record& r : recs) {  // tracks for threads that already exited
    names.emplace(r.tid, std::string());
    if (r.event == Event::kSwitch) {
      names.emplace(r.a, std::string());
      names.emplace(r.b, std::string());
    }
  }

  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    return errno != 0 ? errno : EIO;
  }
  // Profiler counter points become Perfetto "C" counter tracks interleaved with the trace
  // records (same clock — both stamp NowNs), so ready-queue depth and sampling rate line up
  // under the scheduling slices. On the heap: the points outgrow a thread stack.
  const std::vector<profiler::CounterPoint> points = profiler::CounterSnapshot();

  const long pid = static_cast<long>(::getpid());
  int64_t t0 = recs.empty() ? 0 : recs.front().t_ns;
  if (!points.empty() && (recs.empty() || points.front().t_ns < t0)) {
    t0 = points.front().t_ns;
  }

  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  auto sep = [&] {
    if (!first) {
      std::fputs(",\n", f);
    }
    first = false;
  };

  sep();
  std::fprintf(f,
               "{\"ph\":\"M\",\"pid\":%ld,\"name\":\"process_name\","
               "\"args\":{\"name\":\"fsup\"}}",
               pid);
  for (const auto& [tid, name] : names) {
    char fallback[32];
    std::snprintf(fallback, sizeof(fallback), "thread-%u", tid);
    const std::string label = name.empty() ? fallback : JsonEscape(name.c_str());
    sep();
    std::fprintf(f,
                 "{\"ph\":\"M\",\"pid\":%ld,\"tid\":%u,\"name\":\"thread_name\","
                 "\"args\":{\"name\":\"%s\"}}",
                 pid, tid, label.c_str());
  }

  // "C" counter tracks from the profiler's collection points, named from the counter
  // registry: one per gauge, and a "<name>/s" rate track between consecutive points for every
  // counter that moved — the series fsup_top shows. Written merged with the trace records in
  // timestamp order, so ts never decreases through the file.
  auto write_point = [&](size_t i) {
    const counters::Block& b = points[i].block;
    const double ts = ToUs(points[i].t_ns, t0);
    auto counter = [&](const char* name, const char* suffix, double value) {
      sep();
      std::fprintf(f,
                   "{\"ph\":\"C\",\"pid\":%ld,\"ts\":%.3f,\"name\":\"%s%s\","
                   "\"cat\":\"fsup\",\"args\":{\"value\":%.0f}}",
                   pid, ts, name, suffix, value);
    };
    for (int g = 0; g < counters::kGaugeCount; ++g) {
      counter(counters::kGaugeNames[g], "", static_cast<double>(b.gauges[g]));
    }
    const int64_t dt_ns = i > 0 ? points[i].t_ns - points[i - 1].t_ns : 0;
    for (int c = 0; c < counters::kCount && dt_ns > 0; ++c) {
      if (points.back().block.counters[c] != points.front().block.counters[c]) {
        const double delta = static_cast<double>(b.counters[c]) -
                             static_cast<double>(points[i - 1].block.counters[c]);
        counter(counters::kNames[c], "/s", delta * 1e9 / static_cast<double>(dt_ns));
      }
    }
  };
  size_t next_point = 0;
  auto points_until = [&](int64_t t_ns) {
    for (; next_point < points.size() && points[next_point].t_ns <= t_ns; ++next_point) {
      write_point(next_point);
    }
  };

  // kSwitch records become "running" slices on each thread's track; everything else is an
  // instant on the logging thread's track.
  std::unordered_map<uint32_t, bool> open;  // tid -> has an open "running" slice
  int64_t last_ns = t0;
  for (const Record& r : recs) {
    points_until(r.t_ns);
    last_ns = r.t_ns;
    if (r.event == Event::kSwitch) {
      if (open[r.a]) {
        sep();
        std::fprintf(f,
                     "{\"ph\":\"E\",\"pid\":%ld,\"tid\":%u,\"ts\":%.3f,"
                     "\"name\":\"running\",\"cat\":\"sched\"}",
                     pid, r.a, ToUs(r.t_ns, t0));
        open[r.a] = false;
      }
      sep();
      std::fprintf(f,
                   "{\"ph\":\"B\",\"pid\":%ld,\"tid\":%u,\"ts\":%.3f,"
                   "\"name\":\"running\",\"cat\":\"sched\"}",
                   pid, r.b, ToUs(r.t_ns, t0));
      open[r.b] = true;
      continue;
    }
    sep();
    std::fprintf(f,
                 "{\"ph\":\"i\",\"pid\":%ld,\"tid\":%u,\"ts\":%.3f,\"name\":\"%s\","
                 "\"cat\":\"fsup\",\"s\":\"t\",\"args\":{\"a\":%u,\"b\":%u,\"d\":%llu}}",
                 pid, r.tid, ToUs(r.t_ns, t0), trace::Name(r.event), r.a, r.b,
                 static_cast<unsigned long long>(r.d));
  }
  for (const auto& [tid, is_open] : open) {
    if (is_open) {
      sep();
      std::fprintf(f,
                   "{\"ph\":\"E\",\"pid\":%ld,\"tid\":%u,\"ts\":%.3f,"
                   "\"name\":\"running\",\"cat\":\"sched\"}",
                   pid, tid, ToUs(last_ns, t0));
    }
  }
  points_until(INT64_MAX);  // the points taken after the last record
  std::fputs("\n]}\n", f);

  if (std::ferror(f) != 0) {
    std::fclose(f);
    return EIO;
  }
  if (std::fclose(f) != 0) {
    return errno != 0 ? errno : EIO;
  }
  return 0;
}

void SetTraceFileAtExit(const char* path) {
  AtExitPath() = path;
  if (!g_atexit_registered) {
    g_atexit_registered = true;
    std::atexit(&DumpAtExit);
  }
}

}  // namespace fsup::debug
