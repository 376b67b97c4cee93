#include "src/debug/export.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
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

char g_atexit_path[512];
bool g_atexit_registered = false;

void DumpAtExit() {
  if (g_atexit_path[0] != '\0') {
    TraceDumpJson(g_atexit_path);
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
  // under the scheduling slices.
  profiler::CounterPoint counters[256];
  const int ncounters = profiler::CounterSnapshot(counters, 256);

  const long pid = static_cast<long>(::getpid());
  int64_t t0 = recs.empty() ? 0 : recs.front().t_ns;
  if (ncounters > 0 && (recs.empty() || counters[0].t_ns < t0)) {
    t0 = counters[0].t_ns;
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

  // kSwitch records become "running" slices on each thread's track; everything else is an
  // instant on the logging thread's track.
  std::unordered_map<uint32_t, bool> open;  // tid -> has an open "running" slice
  int64_t last_ns = t0;
  for (const Record& r : recs) {
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
  // "C" counter tracks from the profiler's collector. samples holds the cumulative on-CPU
  // sample count; the rate track is the delta over each collector interval.
  for (int i = 0; i < ncounters; ++i) {
    const profiler::CounterPoint& c = counters[i];
    const double ts = ToUs(c.t_ns, t0);
    auto counter = [&](const char* name, double value) {
      sep();
      std::fprintf(f,
                   "{\"ph\":\"C\",\"pid\":%ld,\"ts\":%.3f,\"name\":\"%s\","
                   "\"cat\":\"fsup\",\"args\":{\"value\":%.0f}}",
                   pid, ts, name, value);
    };
    counter("live_threads", static_cast<double>(c.live_threads));
    counter("ready_depth", static_cast<double>(c.ready_depth));
    counter("stack_pool_mapped_bytes", static_cast<double>(c.pool_mapped_bytes));
    if (i > 0) {
      const int64_t dt_ns = c.t_ns - counters[i - 1].t_ns;
      const uint64_t ds = c.samples - counters[i - 1].samples;
      if (dt_ns > 0) {
        counter("samples_per_s", static_cast<double>(ds) * 1e9 / static_cast<double>(dt_ns));
      }
    }
  }
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
  std::snprintf(g_atexit_path, sizeof(g_atexit_path), "%s", path);
  if (!g_atexit_registered) {
    g_atexit_registered = true;
    std::atexit(&DumpAtExit);
  }
}

}  // namespace fsup::debug
