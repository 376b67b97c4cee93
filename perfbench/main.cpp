// fsup_perfbench: runs one workload in this process and prints one JSON object.
//
//   fsup_perfbench --workload <pipeline|echo|spawn|signals> --seed N --seconds S --trace 0|1
//                  [--plant] [--spans FILE]
//
// The process sets the runtime up nine times (pt_init, then pt_reinit), each time creating
// the workload's threads and fds and running a fixed warm-up; setup_s is the median of those
// rounds. The fifth set-up is followed by the timed window of S seconds: throughput is its
// ops over its length, and the latency percentiles come from a uniform sample of all its
// ops. Every reported time is scaled to the nominal host speed (harness.hpp HostScale): the
// window slice by slice, each sampled latency by its slice's factor, each set-up round by the
// speed taken around it; the detail line also has the raw figures. --trace 1 adds the benchmark's own spans and call-site counters and reports per-layer
// numbers instead of the end-to-end ones. --plant is the negative self-test (one dropped item, one corrupted reply).
// The exit code is 0 only when every op and every end-of-run check was correct.

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "perfbench/harness.hpp"
#include "perfbench/workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

constexpr int kSetupRounds = 9;
constexpr uint64_t kFixedK = 20000;  // ops in the count-stability window
constexpr size_t kSlices = 100;  // at most 256: a sample's slice is a uint8_t
constexpr size_t kLatencySamples = 1 << 19;
constexpr size_t kSpanRing = 1 << 20;
constexpr size_t kOpRing = 1 << 18;
constexpr size_t kSampleRing = 1 << 16;
constexpr size_t kBreakdownOps = 50000;
constexpr size_t kDumpSpans = 20000;

// Linear interpolation between closest ranks; `v` is reordered.
template <typename T>
double Percentile(std::vector<T>& v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const auto lo_v = static_cast<double>(v[lo]);
  return lo_v + (pos - static_cast<double>(lo)) * (static_cast<double>(v[hi]) - lo_v);
}

// VmHWM of this process image. getrusage's ru_maxrss is not used: it survives execve, so
// it would report the launching process's peak whenever that one was larger.
double PeakRssMib() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Accumulates `"key": value` pairs into one JSON object.
class Obj {
 public:
  void Num(const char* k, double v) { Raw(k, Fmt("%.9g", v)); }
  void Int(const char* k, uint64_t v) { Raw(k, Fmt("%" PRIu64, v)); }
  void Bool(const char* k, bool v) { Raw(k, v ? "true" : "false"); }
  void Str(const char* k, const std::string& v) { Raw(k, "\"" + v + "\""); }
  void Arr(const char* k, const std::vector<double>& v) {
    std::string a = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      a += (i == 0 ? "" : ", ") + Fmt("%.9g", v[i]);
    }
    Raw(k, a + "]");
  }
  void Raw(const std::string& k, const std::string& v) {
    s_ += (s_.empty() ? "{" : ", ") + ("\"" + k + "\": ") + v;
  }
  std::string Done() const { return s_.empty() ? "{}" : s_ + "}"; }

 private:
  template <typename T>
  static std::string Fmt(const char* f, T v) {
    char b[64];
    std::snprintf(b, sizeof b, f, v);
    return b;
  }
  std::string s_;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool plant = false;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--plant") {
      a->plant = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const char* v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::strcmp(v, "0") != 0;
    } else if (k == "--spans") {
      a->spans = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

// Every FSUP_* variable selects a mode or an observer of the library; any of them would make
// this run measure another code path.
bool EnvironmentClean() {
  bool clean = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "FSUP_", 5) == 0) {
      std::fprintf(stderr, "fsup_perfbench: refusing to run with %s set\n", *e);
      clean = false;
    }
  }
  return clean;
}

struct Window {
  uint64_t start_tsc, end_tsc;
  Counters begin, end;
  uint64_t ops;
};

// Disjoint, sorted union of the spans' intervals.
std::vector<std::pair<uint64_t, uint64_t>> Union(std::vector<Span>& s) {
  std::sort(s.begin(), s.end(), [](const Span& a, const Span& b) { return a.start < b.start; });
  std::vector<std::pair<uint64_t, uint64_t>> u;
  for (const Span& x : s) {
    if (!u.empty() && x.start <= u.back().second) {
      u.back().second = std::max(u.back().second, x.end);
    } else {
      u.emplace_back(x.start, x.end);
    }
  }
  return u;
}

uint64_t Covered(const std::vector<std::pair<uint64_t, uint64_t>>& u, uint64_t a, uint64_t b) {
  auto it = std::lower_bound(u.begin(), u.end(), a,
                             [](const std::pair<uint64_t, uint64_t>& x, uint64_t v) {
                               return x.second <= v;
                             });
  uint64_t n = 0;
  for (; it != u.end() && it->first < b; ++it) {
    n += std::min(it->second, b) - std::max(it->first, a);
  }
  return n;
}

// Layer breakdown of the traced ops. Each instant of an op's [start, end] goes to the most
// recently started span of that op still open (its innermost span, across the threads that
// worked on it); where none is open, to `other_ops` if a span of another op is open (the op
// waits while the runtime works on, or waits for, other ops), else to the remainder (code no
// span covers). The parts add up to the op's latency by construction. Also collects each
// op's cleanup push + pop time into `cleanup`.
void Breakdown(const Trace& t, double tpn, Obj* out, std::vector<uint64_t>* cleanup) {
  const size_t nspans = std::min<uint64_t>(t.head, t.spans.size());
  if (nspans == 0 || t.ops_head == 0) {
    return;
  }
  uint64_t oldest_end = std::numeric_limits<uint64_t>::max();
  for (size_t i = 0; i < nspans; ++i) {
    oldest_end = std::min(oldest_end, t.spans[i].end);
  }
  std::vector<Span> s(t.spans.begin(), t.spans.begin() + static_cast<ptrdiff_t>(nspans));
  const std::vector<std::pair<uint64_t, uint64_t>> all = Union(s);
  std::sort(s.begin(), s.end(), [](const Span& a, const Span& b) {
    return a.op != b.op ? a.op < b.op : a.start < b.start;
  });

  const size_t nops = std::min<uint64_t>(t.ops_head, t.ops.size());
  std::vector<Trace::OpRec> ops;
  for (uint64_t i = t.ops_head - nops; i < t.ops_head; ++i) {
    const Trace::OpRec& r = t.ops[i % t.ops.size()];
    if (r.start >= oldest_end) {  // every span ending inside the op is still in the ring
      ops.push_back(r);
    }
  }
  if (ops.size() > kBreakdownOps) {
    ops.erase(ops.begin(), ops.end() - static_cast<ptrdiff_t>(kBreakdownOps));
  }

  double layer_ticks[static_cast<int>(Layer::kCount)] = {};
  double other = 0, remainder = 0, latency = 0;
  std::vector<uint64_t> bounds;
  struct Clip {
    uint64_t a, b, start;
    uint32_t id;
    Layer layer;
  };
  std::vector<Clip> clips;
  for (const Trace::OpRec& r : ops) {
    auto it = std::lower_bound(s.begin(), s.end(), r.op,
                               [](const Span& x, uint32_t op) { return x.op < op; });
    clips.clear();
    bounds.assign({r.start, r.end});
    uint64_t cleanup_ticks = 0;
    for (; it != s.end() && it->op == r.op; ++it) {
      const auto name = static_cast<Name>(it->name);
      if (name == Name::kCleanupPush || name == Name::kCleanupPop) {
        cleanup_ticks += it->end - it->start;
      }
      const uint64_t a = std::max(it->start, r.start);
      const uint64_t b = std::min(it->end, r.end);
      if (a < b) {
        clips.push_back(Clip{a, b, it->start, it->id, LayerOf(name)});
        bounds.push_back(a);
        bounds.push_back(b);
      }
    }
    if (cleanup_ticks != 0) {
      cleanup->push_back(cleanup_ticks);
    }
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
    for (size_t i = 0; i + 1 < bounds.size(); ++i) {
      const uint64_t a = bounds[i], b = bounds[i + 1];
      const Clip* best = nullptr;
      for (const Clip& c : clips) {
        if (c.a <= a && c.b >= b &&
            (best == nullptr || c.start > best->start ||
             (c.start == best->start && c.id > best->id))) {
          best = &c;
        }
      }
      if (best != nullptr) {
        layer_ticks[static_cast<int>(best->layer)] += static_cast<double>(b - a);
      } else {
        const uint64_t covered = Covered(all, a, b);
        other += static_cast<double>(covered);
        remainder += static_cast<double>(b - a - covered);
      }
    }
    latency += static_cast<double>(r.end - r.start);
  }
  if (ops.empty()) {
    return;
  }
  const double n = static_cast<double>(ops.size()) * tpn;
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    const std::string key = std::string("breakdown.") + LayerName(static_cast<Layer>(l)) +
                            "_ns_per_op";
    out->Num(key.c_str(), layer_ticks[l] / n);
  }
  out->Num("breakdown.other_ops_ns_per_op", other / n);
  out->Num("breakdown.remainder_ns_per_op", remainder / n);
  out->Num("breakdown.latency_ns_per_op", latency / n);
  out->Int("breakdown.ops", ops.size());
}

std::string PerLayer(const Window& w, double tpn) {
  const Trace& t = g_trace;
  const Counters& a = w.begin;
  const Counters& b = w.end;
  const double ops = static_cast<double>(std::max<uint64_t>(w.ops, 1));
  auto per_op = [ops](uint64_t x, uint64_t y) { return static_cast<double>(y - x) / ops; };
  auto host = [&](hostos::Call c) {
    return per_op(a.host[static_cast<int>(c)], b.host[static_cast<int>(c)]);
  };

  std::vector<uint64_t> by_name[static_cast<int>(Name::kCount)];
  const size_t nspans = std::min<uint64_t>(t.head, t.spans.size());
  for (size_t i = 0; i < nspans; ++i) {
    const Span& s = t.spans[i];
    if (s.end >= w.start_tsc && s.end <= w.end_tsc) {
      by_name[s.name].push_back(s.end - s.start);
    }
  }
  auto p50 = [&](Name n) { return Percentile(by_name[static_cast<int>(n)], 0.5) / tpn; };
  auto ring = [tpn](const Ring& r, double q) {
    std::vector<uint64_t> v = r.Values();
    return Percentile(v, q) / tpn;
  };

  Obj o;
  o.Num("sync.lock_ns_p50", p50(Name::kLock));
  o.Num("sync.unlock_ns_p50", p50(Name::kUnlock));
  o.Num("sync.lock_slow_fraction", Ratio(static_cast<double>(t.lock_slow),
                                         static_cast<double>(t.lock_calls)));
  o.Num("sync.kernel_entries_per_lock", Ratio(static_cast<double>(t.lock_unswitched_entries),
                                              static_cast<double>(t.lock_unswitched)));
  o.Num("sync.cond_wait_ns_p50", p50(Name::kCondWait));
  o.Num("sync.cond_signal_ns_p50", p50(Name::kCondSignal));

  o.Num("kernel.handoff_ns_p50", ring(t.handoff, 0.5));
  o.Num("kernel.handoff_ns_p99", ring(t.handoff, 0.99));
  o.Num("kernel.ctx_switches_per_op", per_op(a.rs.ctx_switches, b.rs.ctx_switches));
  o.Num("kernel.dispatches_per_op", per_op(a.rs.dispatches, b.rs.dispatches));
  o.Num("kernel.kernel_entries_per_op", per_op(a.rs.kernel_entries, b.rs.kernel_entries));
  o.Num("kernel.preemptions_per_op", per_op(a.rs.preemptions, b.rs.preemptions));
  o.Num("kernel.create_ns_p50", p50(Name::kCreate));
  o.Num("kernel.join_ns_p50", p50(Name::kJoin));
  o.Num("kernel.exit_to_join_ns_p50", ring(t.exit_to_join, 0.5));
  const double reuses = static_cast<double>(b.pool_reuses - a.pool_reuses);
  const double maps = static_cast<double>(b.pool_maps - a.pool_maps);
  o.Num("kernel.stack_pool_hit_ratio", Ratio(reuses, reuses + maps));
  o.Num("kernel.lazy_commits_per_op", per_op(a.lazy_commits, b.lazy_commits));
  o.Int("kernel.live_threads_peak", t.live_peak);

  o.Num("io.read_ns_p50", p50(Name::kRead));
  o.Num("io.write_ns_p50", p50(Name::kWrite));
  o.Num("io.read_blocked_fraction", Ratio(static_cast<double>(t.read_blocked),
                                          static_cast<double>(t.read_calls)));
  o.Num("io.waits_per_op", per_op(a.io.waits, b.io.waits));
  o.Num("io.probes_per_op", per_op(a.io.probes, b.io.probes));
  o.Num("io.wakeups_per_probe", Ratio(static_cast<double>(b.io.wakeups - a.io.wakeups),
                                      static_cast<double>(b.io.probes - a.io.probes)));
  const double hits = static_cast<double>(b.io.cache_hits - a.io.cache_hits);
  const double misses = static_cast<double>(b.io.cache_misses - a.io.cache_misses);
  o.Num("io.cache_hit_ratio", Ratio(hits, hits + misses));

  o.Num("hostos.calls_per_op", per_op(a.host_total, b.host_total));
  o.Num("hostos.epoll_wait_per_op", host(hostos::Call::kEpollWait));
  o.Num("hostos.epoll_ctl_per_op", host(hostos::Call::kEpollCtl));
  o.Num("hostos.mmap_per_op", host(hostos::Call::kMmap));
  o.Num("hostos.mprotect_per_op", host(hostos::Call::kMprotect));
  o.Num("hostos.setitimer_per_op", host(hostos::Call::kSetitimer));
  o.Num("hostos.sigprocmask_per_op", host(hostos::Call::kSigprocmask));
  o.Num("hostos.kill_per_op", host(hostos::Call::kKill));

  o.Num("signals.external_ns_p50", ring(t.external, 0.5));
  o.Num("signals.external_ns_p99", ring(t.external, 0.99));
  o.Num("signals.internal_ns_p50", ring(t.internal, 0.5));
  o.Num("signals.sigwait_ns_p50", ring(t.sigwait, 0.5));
  o.Num("signals.timedwait_ns_p50", ring(t.timedwait, 0.5));
  o.Num("signals.deferred_per_op", per_op(a.rs.deferred_signals, b.rs.deferred_signals));
  o.Num("signals.ras_restarts_per_op", per_op(a.ras, b.ras));

  o.Num("tsd.setspecific_ns_p50", p50(Name::kSetspecific));
  std::vector<uint64_t> cleanup;
  Breakdown(t, tpn, &o, &cleanup);
  o.Num("cancel.cleanup_ns_p50", Percentile(cleanup, 0.5) / tpn);
  return o.Done();
}

// Exact counter deltas over the first kFixedK ops of the window, for the count-stability
// report: a count that repeats exactly for one seed can back a count claim.
std::string FixedCounts(const Window& w) {
  Obj o;
  if (!g_log.have_k) {
    return o.Done();
  }
  const Counters& a = w.begin;
  const Counters& b = g_log.at_k;
  o.Int("k", g_log.fixed_k);
  o.Int("kernel.ctx_switches", b.rs.ctx_switches - a.rs.ctx_switches);
  o.Int("kernel.kernel_entries", b.rs.kernel_entries - a.rs.kernel_entries);
  o.Int("kernel.dispatches", b.rs.dispatches - a.rs.dispatches);
  o.Int("io.waits", b.io.waits - a.io.waits);
  o.Int("hostos.calls", b.host_total - a.host_total);
  static const char* const kCalls[] = {"sigaction", "sigprocmask", "setitimer", "mmap",
                                       "munmap", "mprotect", "sigaltstack", "kill",
                                       "poll", "epoll_create", "epoll_ctl", "epoll_wait",
                                       "shm_map"};
  static_assert(sizeof(kCalls) / sizeof(kCalls[0]) == static_cast<int>(hostos::Call::kCount));
  for (int i = 0; i < static_cast<int>(hostos::Call::kCount); ++i) {
    o.Int((std::string("hostos.") + kCalls[i]).c_str(), b.host[i] - a.host[i]);
  }
  return o.Done();
}

void DumpSpans(const std::string& path, double tpn) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror(path.c_str());
    return;
  }
  const Trace& t = g_trace;
  const uint64_t n = std::min<uint64_t>({t.head, t.spans.size(), kDumpSpans});
  std::fprintf(f, "{\"traceEvents\": [");
  for (uint64_t i = t.head - n; i < t.head; ++i) {
    const Span& s = t.spans[i % t.spans.size()];
    const auto name = static_cast<Name>(s.name);
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                 "\"dur\": %.3f, \"pid\": 1, \"tid\": %u, \"args\": {\"op\": %u, \"id\": %u, "
                 "\"parent\": %u}}",
                 i + n == t.head ? "" : ",", SpanName(name), LayerName(LayerOf(name)),
                 static_cast<double>(s.start) / tpn / 1e3,
                 static_cast<double>(s.end - s.start) / tpn / 1e3, s.thread, s.op, s.id,
                 s.parent);
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

struct Round {
  double raw_s, scale;
};

// One set-up: a fresh runtime, the workload's threads, fds and handlers, and its warm-up,
// with the host's speed taken on either side of it.
Round SetUp(Workload& wl, bool first) {
  const uint64_t ref0 = ReferenceTicks();
  const int64_t t0 = MonoNs();
  if (first) {
    pt_init();
  } else {
    pt_reinit();
  }
  wl.Setup();
  wl.gate.Run(wl.WarmupOps() / static_cast<uint64_t>(wl.Clients()),
              std::numeric_limits<uint64_t>::max());
  const int64_t t1 = MonoNs();
  return Round{static_cast<double>(t1 - t0) / 1e9, HostScale((ref0 + ReferenceTicks()) / 2)};
}

// The window's length at the nominal host speed: each slice scaled by the speed taken at its
// start (carried over slices in which no op ended), less the time that measurement took.
// `scale` receives each slice's factor.
double NominalWindowS(const Window& w, double tpn, std::vector<double>* scale) {
  const OpLog& l = g_log;
  double ticks = 0, f = HostScale(l.slice_ref[0]);
  for (size_t k = 0; k < kSlices; ++k) {
    if (l.slice_ref[k] != 0) {
      f = HostScale(l.slice_ref[k]);
    }
    scale->push_back(f);
    const uint64_t begin = w.start_tsc + k * l.slice_ticks;
    const uint64_t end = k + 1 < kSlices ? begin + l.slice_ticks : w.end_tsc;
    ticks += static_cast<double>(end - begin - l.slice_pause[k]) * f;
  }
  return ticks / tpn / 1e9;
}

int Run(const Args& args) {
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload);
  if (wl == nullptr) {
    std::fprintf(stderr, "fsup_perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  CalibrateTicks(20000000);
  wl->Generate(args.seed);
  g_plant = args.plant;
  g_log.slice_ops.assign(kSlices, 0);
  g_log.slice_ref.assign(kSlices, 0);
  g_log.slice_pause.assign(kSlices, 0);
  g_log.samples.reserve(kLatencySamples);
  g_log.sample_slice.reserve(kLatencySamples);
  g_log.rng = Rng{args.seed ^ 0x5eedull};
  g_log.fixed_k = kFixedK;
  Trace& t = g_trace;
  if (args.trace) {
    t.on = true;
    t.spans.assign(kSpanRing, Span{});
    t.ops.assign(kOpRing, Trace::OpRec{});
  }

  // The set-up rounds straddle the window, so their median samples two moments of the run.
  std::vector<Round> rounds;
  const int before = (kSetupRounds + 1) / 2;
  for (int r = 0; r < before; ++r) {
    rounds.push_back(SetUp(*wl, r == 0));
    if (r + 1 < before) {
      wl->Teardown();
    }
  }

  for (Ring* ring : {&t.handoff, &t.exit_to_join, &t.external, &t.internal, &t.sigwait,
                     &t.timedwait}) {
    ring->Reset(args.trace ? kSampleRing : 0);
  }
  t.lock_calls = t.lock_slow = t.lock_unswitched = t.lock_unswitched_entries = 0;
  t.read_calls = t.read_blocked = 0;
  t.live_peak = pt_stats().live_threads;
  t.ops_head = 0;

  Window w{};
  w.begin = Sample();
  const auto window_ticks = static_cast<uint64_t>(args.seconds * 1e9 * TicksPerNs());
  g_log.slice_ticks = std::max<uint64_t>(window_ticks / kSlices, 1);
  g_log.slice_ref[0] = ReferenceTicks();
  g_log.recording = true;
  w.start_tsc = g_log.start_tsc = Tsc();
  wl->gate.Run(std::numeric_limits<uint64_t>::max(), w.start_tsc + window_ticks);
  w.end_tsc = Tsc();
  g_log.recording = false;
  w.end = Sample();
  w.ops = g_log.ops;
  t.on = false;  // teardown is not part of the window
  wl->Teardown();

  const double tpn = TicksPerNs();
  bool checks_ok = true;
  Obj check_obj;
  for (const auto& [name, ok] : wl->Checks()) {
    check_obj.Bool(name.c_str(), ok);
    checks_ok = checks_ok && ok;
  }
  if (!checks_ok && g_log.failed == 0) {
    Fail();  // a wrong total that no single op's check explained
  }
  const std::string per_layer = args.trace ? PerLayer(w, tpn) : "";
  if (args.trace && !args.spans.empty()) {
    DumpSpans(args.spans, tpn);
  }
  for (int r = before; r < kSetupRounds; ++r) {
    rounds.push_back(SetUp(*wl, false));
    wl->Teardown();
  }
  const bool correct = checks_ok && g_log.failed == 0 && w.ops > 0;

  const double window_s = static_cast<double>(w.end_tsc - w.start_tsc) / tpn / 1e9;
  std::vector<double> scale;
  const double nominal_s = NominalWindowS(w, tpn, &scale);
  const double slice_s = static_cast<double>(g_log.slice_ticks) / tpn / 1e9;
  std::vector<double> slice_rate;
  for (uint64_t n : g_log.slice_ops) {
    slice_rate.push_back(static_cast<double>(n) / slice_s);
  }
  std::vector<uint32_t>& lat = g_log.samples;  // sorted in place
  std::vector<uint32_t> nominal_lat(lat.size());
  for (size_t i = 0; i < lat.size(); ++i) {
    nominal_lat[i] = static_cast<uint32_t>(lat[i] * scale[g_log.sample_slice[i]] + 0.5);
  }

  Obj o;
  o.Str("workload", args.workload);
  o.Int("seed", args.seed);
  o.Bool("trace", args.trace);
  o.Bool("planted", args.plant);
  o.Bool("correct", correct);
  o.Int("attempted", w.ops);
  o.Int("failed", g_log.failed);
  o.Num("failed_fraction", Ratio(static_cast<double>(g_log.failed), static_cast<double>(w.ops)));
  o.Raw("checks", check_obj.Done());
  o.Num("window_s", window_s);
  o.Arr("slice_throughput_ops_s", slice_rate);
  o.Arr("slice_host_scale", scale);
  o.Num("nominal_window_s", nominal_s);
  o.Num("throughput_ops_s", static_cast<double>(w.ops) / nominal_s);
  o.Num("latency_p50_us", Percentile(nominal_lat, 0.5) / tpn / 1e3);
  o.Num("latency_p99_us", Percentile(nominal_lat, 0.99) / tpn / 1e3);
  o.Int("latency_samples", nominal_lat.size());
  std::vector<double> deciles;
  for (int d = 1; d < 10; ++d) {
    deciles.push_back(Percentile(nominal_lat, d / 10.0) / tpn / 1e3);
  }
  o.Arr("latency_deciles_us", deciles);
  o.Num("raw_throughput_ops_s", static_cast<double>(w.ops) / window_s);
  o.Num("raw_latency_p50_us", Percentile(lat, 0.5) / tpn / 1e3);
  o.Num("raw_latency_p99_us", Percentile(lat, 0.99) / tpn / 1e3);
  o.Num("peak_rss_mib", PeakRssMib());
  std::vector<double> setup_s, raw_rounds, round_scale;
  for (const Round& r : rounds) {
    setup_s.push_back(r.raw_s * r.scale);
    raw_rounds.push_back(r.raw_s);
    round_scale.push_back(r.scale);
  }
  o.Arr("setup_rounds_s", setup_s);
  o.Num("setup_s", Percentile(setup_s, 0.5));
  o.Arr("raw_setup_rounds_s", raw_rounds);
  o.Arr("setup_host_scale", round_scale);
  o.Raw("counts_fixed_k", FixedCounts(w));
  if (args.trace) {
    o.Raw("per_layer", per_layer);
  }
  std::printf("%s\n", o.Done().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: fsup_perfbench --workload <pipeline|echo|spawn|signals> --seed N "
                 "--seconds S --trace 0|1 [--plant] [--spans FILE]\n");
    return 2;
  }
  if (!perfbench::EnvironmentClean()) {
    return 2;
  }
  return perfbench::Run(args);
}
