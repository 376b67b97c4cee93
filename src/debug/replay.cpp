#include "src/debug/replay.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <sys/time.h>

#include "src/debug/introspect.hpp"
#include "src/debug/obs.hpp"
#include "src/debug/trace.hpp"
#include "src/hostos/unix_if.hpp"
#include "src/io/io.hpp"
#include "src/kernel/kernel.hpp"
#include "src/sched/perverted.hpp"
#include "src/sync/tag.hpp"
#include "src/signals/sigmodel.hpp"
#include "src/util/assert.hpp"
#include "src/util/counters.hpp"
#include "src/util/log.hpp"

namespace fsup::debug::replay {

uint8_t g_mode = 0;
uint64_t g_decisions = 0;
#if !FSUP_NO_OBSERVE
volatile uint8_t g_gate_pending = 0;
#endif

namespace {

constexpr size_t kRecordCap = 1 << 20;  // decisions per log (12 MB); enough for a full suite
constexpr size_t kNoSlot = ~static_cast<size_t>(0);
constexpr uint64_t kFileMagic = 0x314c50525055'5346ull;  // "FSUPRPL1" little-endian
constexpr uint32_t kFileVersion = 3;  // 3: no rng records (draws derive from the seed)
constexpr uint32_t kFlagTruncated = 1u << 0;

struct FileHeader {
  uint64_t magic;
  uint32_t version;
  uint32_t flags;
  uint64_t count;
};

struct DiskRecord {
  uint32_t a;
  uint32_t b;
  uint32_t kind;
};

LogRecord* g_buf = nullptr;
size_t g_cap = 0;
size_t g_len = 0;     // records in the log (record: appended; replay: loaded)
size_t g_cursor = 0;  // replay: next record to consume
bool g_truncated = false;
bool g_need_rearm = false;  // replay ended outside the kernel; re-arm at the next Exit

// Function-local, so init running from another file's static constructors finds it built.
std::string& AtExitPath() {
  static std::string path;
  return path;
}

bool g_atexit_registered = false;
bool g_env_done = false;

bool EnsureCap(size_t n) {
  if (n <= g_cap) {
    return true;
  }
  auto* nb = new (std::nothrow) LogRecord[n];
  if (nb == nullptr) {
    return false;
  }
  if (g_len > 0) {
    std::memcpy(nb, g_buf, g_len * sizeof(LogRecord));
  }
  delete[] g_buf;
  g_buf = nb;
  g_cap = n;
  return true;
}

bool IsAsync(Decision d) { return d == Decision::kTick || d == Decision::kExtSignal; }

uint32_t SiteBit(AsyncSite site) {
  return site == AsyncSite::kInDispatcher ? kSiteDispatcher : 0;
}

// kernel_entries when the last decision was logged (record) or consumed (replay). An async
// record also stores the kernel entries since then: the site tells the entry gate from the
// dispatch loop, the count tells one kernel section from the next — two sections can pass
// between decisions, so "the next dispatch loop" is not enough.
uint64_t g_entries_mark = 0;
constexpr uint32_t kEntriesShift = 2;  // kTick/kExtSignal b: entries since the last decision
constexpr uint64_t kEntriesUnknown = (uint64_t{1} << 30) - 1;  // saturated: due anywhere

uint64_t EntriesSinceMark() { return counters::Get(counters::kKernelEntries) - g_entries_mark; }

void MarkEntries() { g_entries_mark = counters::Get(counters::kKernelEntries); }

uint32_t AsyncB(AsyncSite site) {
  const uint64_t n = EntriesSinceMark() < kEntriesUnknown ? EntriesSinceMark() : kEntriesUnknown;
  return SiteBit(site) | static_cast<uint32_t>(n << kEntriesShift);
}

// True if the record at the cursor is an async event the recorded run took at `site`,
// `entries` kernel entries after the previous decision.
bool AsyncDue(AsyncSite site, uint64_t entries) {
  if (g_mode != static_cast<uint8_t>(Mode::kReplay) || g_cursor >= g_len) {
    return false;
  }
  const LogRecord& r = g_buf[g_cursor];
  const uint64_t want = r.b >> kEntriesShift;
  return IsAsync(r.kind) && (r.b & kSiteDispatcher) == SiteBit(site) &&
         (want == entries || want == kEntriesUnknown);
}

void UpdateFlags() {
  const bool replaying = g_mode == static_cast<uint8_t>(Mode::kReplay);
  sched::SetReplayExitHook(replaying || g_need_rearm);
#if !FSUP_NO_OBSERVE
  uint8_t gate = 0;
  if (replaying && g_cursor < g_len && IsAsync(g_buf[g_cursor].kind)) {
    gate = kGateEntry;
    if ((g_buf[g_cursor].b & kSiteDispatcher) != 0) {
      gate |= kGateDispatcher;
    }
  }
  g_gate_pending = gate;
  // An in-dispatcher record due in the current kernel section: the recorded run's deferred
  // signal set dispatch_pending here, so the section's exit runs the loop that fires it.
  if (AsyncDue(AsyncSite::kInDispatcher, EntriesSinceMark())) {
    kernel::ks().dispatch_pending = 1;
  }
#endif
}

// Rewinds the thread-id counter to just past the highest live (or unreaped) id. Ids stamp
// the verified switch decisions, so threads created during the replayed run must receive the
// ids the recorded run handed out; both session starts rewind to the same origin, the same
// way they rewind the decision and sync-tag counters. In-kernel only.
void RewindThreadIds() {
  KernelState& k = kernel::ks();
  uint32_t max_id = 0;
  for (Tcb* t : k.all_threads) {
    if (t->id > max_id) {
      max_id = t->id;
    }
  }
  k.next_id = max_id + 1;
}

// Forces the interval timer to be re-programmed from the live timer heap (replay suppressed
// the physical setitimer calls, so the bookkeeping deadline is a lie by design).
void RearmItimer() {
  KernelState& k = kernel::ks();
  k.itimer_deadline_ns = -1;
  sig::ProgramItimer();
}

// The replay ran off the end of a (truncated) log: fall back to live execution.
void Exhaust() {
  g_mode = static_cast<uint8_t>(Mode::kOff);
  if (kernel::InKernel()) {
    RearmItimer();
    g_need_rearm = false;
  } else {
    g_need_rearm = true;
  }
  UpdateFlags();
}

void DumpRingTail() {
  static trace::Record recs[64];
  const size_t n = trace::Snapshot(recs, 64);
  log::RawWriteCstr("fsup replay: last ");
  log::RawWriteInt(static_cast<int64_t>(n));
  log::RawWriteCstr(" trace records (decision / event / tid / a / b):\n");
  for (size_t i = 0; i < n; ++i) {
    log::RawWriteCstr("  d=");
    log::RawWriteInt(static_cast<int64_t>(recs[i].d));
    log::RawWriteCstr(" ");
    log::RawWriteCstr(trace::Name(recs[i].event));
    log::RawWriteCstr(" tid=");
    log::RawWriteInt(recs[i].tid);
    log::RawWriteCstr(" a=");
    log::RawWriteInt(recs[i].a);
    log::RawWriteCstr(" b=");
    log::RawWriteInt(recs[i].b);
    log::RawWriteCstr("\n");
  }
}

[[noreturn]] void Diverge(const char* what, Decision got, uint32_t a, uint32_t b) {
  log::RawWriteCstr("fsup replay: DIVERGENCE at decision ");
  log::RawWriteInt(static_cast<int64_t>(g_decisions));
  log::RawWriteCstr(" (");
  log::RawWriteCstr(what);
  log::RawWriteCstr(")\n  expected: ");
  if (g_cursor < g_len) {
    const LogRecord& r = g_buf[g_cursor];
    log::RawWriteCstr(DecisionName(r.kind));
    log::RawWriteCstr(" a=");
    log::RawWriteInt(r.a);
    log::RawWriteCstr(" b=");
    log::RawWriteInt(r.b);
  } else {
    log::RawWriteCstr("<end of log>");
  }
  log::RawWriteCstr("\n  actual:   ");
  log::RawWriteCstr(DecisionName(got));
  log::RawWriteCstr(" a=");
  log::RawWriteInt(a);
  log::RawWriteCstr(" b=");
  log::RawWriteInt(b);
  log::RawWriteCstr("\n");
  DumpRingTail();
  debug::DumpThreads();
  FatalError("schedule replay divergence", __FILE__, __LINE__);
}

// Appends one decision while recording; a full log flips to off (truncated) so the run
// continues live — a replay of a truncated log does the mirror-image fallback.
void Append(Decision kind, uint32_t a, uint32_t b) {
  if (g_len == g_cap) {
    g_truncated = true;
    g_mode = static_cast<uint8_t>(Mode::kOff);
    UpdateFlags();
    ++g_decisions;
    return;
  }
  g_buf[g_len++] = LogRecord{a, b, kind};
  ++g_decisions;
  MarkEntries();
}

// Replay: the record at the cursor has been consumed.
void Advance() {
  ++g_cursor;
  ++g_decisions;
  MarkEntries();
  UpdateFlags();
}

// Consumes the next record, which must be of `kind`; advances the decision counter.
LogRecord Consume(Decision kind, uint32_t actual_a, uint32_t actual_b) {
  if (g_cursor >= g_len) {
    Exhaust();
    ++g_decisions;
    return LogRecord{actual_a, actual_b, kind};
  }
  const LogRecord r = g_buf[g_cursor];
  if (r.kind != kind) {
    Diverge("decision kind mismatch", kind, actual_a, actual_b);
  }
  Advance();
  return r;
}

Tcb* FindThread(uint32_t tid) {
  for (Tcb* t : kernel::ks().all_threads) {
    if (t->id == tid) {
      return t;
    }
  }
  return nullptr;
}

void SaveAtExit() {
  if (AtExitPath().empty()) {
    return;
  }
  if (Recording()) {
    StopRecording();
  }
  SaveLog(AtExitPath().c_str());
}

}  // namespace

void StartRecording() {
  FSUP_CHECK_MSG(g_mode != static_cast<uint8_t>(Mode::kReplay),
                 "cannot record while replaying");
  if (!EnsureCap(kRecordCap)) {
    return;  // no memory: stay off rather than take the process down
  }
  g_len = 0;
  g_cursor = 0;
  g_truncated = false;
  g_decisions = 0;
  sched::RewindDraws();
  sync::ResetSyncTags();  // tags stamp trace records: both runs must allocate identically
  if (kernel::ks().initialized) {
    if (kernel::InKernel()) {
      RewindThreadIds();
    } else {
      kernel::Enter();
      RewindThreadIds();
      kernel::ExitProtocol();
    }
  }
  g_mode = static_cast<uint8_t>(Mode::kRecord);
  MarkEntries();
  UpdateFlags();
}

size_t StopRecording() {
  if (g_mode == static_cast<uint8_t>(Mode::kRecord)) {
    g_mode = static_cast<uint8_t>(Mode::kOff);
    UpdateFlags();
  }
  return g_len;
}

bool Recording() { return g_mode == static_cast<uint8_t>(Mode::kRecord); }

size_t LogSize() { return g_len; }

bool LogTruncated() { return g_truncated; }

int SaveLog(const char* path) {
  if (path == nullptr || path[0] == '\0') {
    return EINVAL;
  }
  FILE* f = std::fopen(path, "wb");
  if (f == nullptr) {
    return errno != 0 ? errno : EIO;
  }
  FileHeader h{kFileMagic, kFileVersion, g_truncated ? kFlagTruncated : 0u,
               static_cast<uint64_t>(g_len)};
  bool ok = std::fwrite(&h, sizeof(h), 1, f) == 1;
  for (size_t i = 0; ok && i < g_len; ++i) {
    DiskRecord d{g_buf[i].a, g_buf[i].b, static_cast<uint32_t>(g_buf[i].kind)};
    ok = std::fwrite(&d, sizeof(d), 1, f) == 1;
  }
  if (std::fclose(f) != 0) {
    ok = false;
  }
  return ok ? 0 : EIO;
}

int ReadLogFile(const char* path, LogRecord* out, size_t max, size_t* count) {
  if (path == nullptr || count == nullptr) {
    return EINVAL;
  }
  FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    return errno != 0 ? errno : EIO;
  }
  FileHeader h{};
  if (std::fread(&h, sizeof(h), 1, f) != 1 || h.magic != kFileMagic ||
      h.version != kFileVersion) {
    std::fclose(f);
    return EINVAL;
  }
  *count = static_cast<size_t>(h.count);
  if (out != nullptr) {
    const size_t n = *count < max ? *count : max;
    for (size_t i = 0; i < n; ++i) {
      DiskRecord d{};
      if (std::fread(&d, sizeof(d), 1, f) != 1 ||
          d.kind > static_cast<uint32_t>(Decision::kForced)) {
        std::fclose(f);
        return EINVAL;
      }
      out[i] = LogRecord{d.a, d.b, static_cast<Decision>(d.kind)};
    }
  }
  std::fclose(f);
  return 0;
}

size_t CopyLog(LogRecord* out, size_t max) {
  const size_t n = g_len < max ? g_len : max;
  std::memcpy(out, g_buf, n * sizeof(LogRecord));
  return n;
}

int StartReplay(const char* path) {
  if (g_mode != static_cast<uint8_t>(Mode::kOff)) {
    return EBUSY;
  }
  size_t count = 0;
  int rc = ReadLogFile(path, nullptr, 0, &count);
  if (rc != 0) {
    return rc;
  }
  if (!EnsureCap(count)) {
    return ENOMEM;
  }
  g_len = 0;  // keep CopyLog consistent while loading
  rc = ReadLogFile(path, g_buf, count, &count);
  if (rc != 0) {
    return rc;
  }
  g_len = count;
  g_cursor = 0;
  g_truncated = false;

  kernel::EnsureInit();
  // Disarm the physical interval timer before the mode flips (the wrapper is not yet
  // suppressed): from here on, every tick comes from the log.
  kernel::Enter();
  KernelState& k = kernel::ks();
  if (k.itimer_deadline_ns != -1) {
    itimerval off{};
    hostos::Setitimer(ITIMER_REAL, &off, nullptr);
    k.itimer_deadline_ns = -1;
  }
  RewindThreadIds();
  kernel::ExitProtocol();

  g_decisions = 0;
  sched::RewindDraws();
  g_need_rearm = false;
  sync::ResetSyncTags();
  g_mode = static_cast<uint8_t>(Mode::kReplay);
  MarkEntries();
  UpdateFlags();
  return 0;
}

size_t StopReplay() {
  if (!Replaying()) {
    return 0;
  }
  const size_t unconsumed = g_len - g_cursor;
  g_mode = static_cast<uint8_t>(Mode::kOff);
  g_need_rearm = false;
  UpdateFlags();
  kernel::Enter();
  RearmItimer();
  kernel::ExitProtocol();
  return unconsumed;
}

void InitFromEnv() {
  if (g_env_done) {
    return;
  }
  g_env_done = true;

  const char* replay_path = std::getenv("FSUP_REPLAY");
  if (replay_path != nullptr && *replay_path != '\0') {
    const int rc = StartReplay(replay_path);
    if (rc != 0) {
      log::RawWriteCstr("fsup: FSUP_REPLAY: cannot load schedule log, running live\n");
    }
    return;  // record and replay are mutually exclusive; replay wins
  }
  if (const char* rec = std::getenv("FSUP_RECORD"); rec != nullptr && *rec != '\0') {
    AtExitPath() = rec;
    if (!g_atexit_registered) {
      g_atexit_registered = true;
      std::atexit(&SaveAtExit);
    }
    StartRecording();
  }
}

void OnSwitchSlow(uint32_t from, uint32_t to) {
  if (g_mode == static_cast<uint8_t>(Mode::kRecord)) {
    Append(Decision::kSwitch, from, to);
    return;
  }
  // Replay: the switch is a *derived* decision — recompute-and-verify.
  const LogRecord r = Consume(Decision::kSwitch, from, to);
  if (r.a != from || r.b != to) {
    --g_cursor;  // point the report at the mismatched record
    --g_decisions;
    Diverge("context switch", Decision::kSwitch, from, to);
  }
}

size_t BeginTick(AsyncSite site) {
  switch (static_cast<Mode>(g_mode)) {
    case Mode::kOff:
      ++g_decisions;
      return kNoSlot;
    case Mode::kRecord: {
      const size_t slot = g_len;
      Append(Decision::kTick, 0, AsyncB(site));
      return g_mode == static_cast<uint8_t>(Mode::kRecord) ? slot : kNoSlot;
    }
    case Mode::kReplay:
      // Ticks in replay are forced from the log (ForceTimerTick), which bypasses this hook;
      // a spontaneous tick means a stray physical SIGALRM slipped through.
      Diverge("spontaneous timer tick", Decision::kTick, 0, 0);
  }
  return kNoSlot;
}

void EndTick(size_t slot, uint32_t expired, bool slice_fired) {
  if (slot == kNoSlot || slot >= g_len) {
    return;
  }
  g_buf[slot].a = expired;
  g_buf[slot].b |= slice_fired ? kSliceFired : 0;
}

void OnExtSignal(int signo, AsyncSite site) {
  switch (static_cast<Mode>(g_mode)) {
    case Mode::kOff:
      ++g_decisions;
      return;
    case Mode::kRecord:
      Append(Decision::kExtSignal, static_cast<uint32_t>(signo), AsyncB(site));
      return;
    case Mode::kReplay:
      Diverge("unexpected external signal", Decision::kExtSignal,
              static_cast<uint32_t>(signo), 0);
  }
}

void OnIoWakeSlow(uint32_t tid, uint32_t mask) {
  if (g_mode == static_cast<uint8_t>(Mode::kRecord)) {
    Append(Decision::kIoWake, tid, mask);
    return;
  }
  // Replay never runs the physical poll passes, so a live wake is a divergence.
  Diverge("unexpected io wake", Decision::kIoWake, tid, mask);
}

void OnIoDone(uint32_t woke) {
  if (g_mode == static_cast<uint8_t>(Mode::kRecord)) {
    Append(Decision::kIoDone, woke, 0);
  } else {
    ++g_decisions;
  }
}

void OnFault(uint32_t call, uint32_t err) {
  if (g_mode == static_cast<uint8_t>(Mode::kRecord)) {
    Append(Decision::kFault, call, err);
  } else {
    ++g_decisions;
  }
}

int ReplayFault(uint32_t call) {
  if (g_cursor >= g_len) {
    Exhaust();
    return 0;
  }
  const LogRecord& r = g_buf[g_cursor];
  if (r.kind != Decision::kFault || r.a != call) {
    // This invocation did not fail on record (fault firings are the only host-call
    // decisions; non-firing calls are not logged).
    return 0;
  }
  Advance();
  return static_cast<int>(r.b);
}

void ReplayIdleIo() {
  for (;;) {
    if (g_cursor >= g_len) {
      Exhaust();
      return;
    }
    const LogRecord r = g_buf[g_cursor];
    switch (r.kind) {
      case Decision::kIoWake: {
        Advance();
        Tcb* t = FindThread(r.a);
        if (t == nullptr) {
          Diverge("io wake for unknown thread", Decision::kIoWake, r.a, r.b);
        }
        io::ReplayWake(t);
        break;
      }
      case Decision::kFault: {
        // The poll-class syscalls never physically run in replay; faults injected into them
        // on record are consumed here so the trace ring stays identical.
        const auto call = static_cast<hostos::Call>(r.a);
        if (call != hostos::Call::kPoll && call != hostos::Call::kEpollWait &&
            call != hostos::Call::kEpollCtl) {
          Diverge("idle poll pass not in log", Decision::kIoDone, 0, 0);
        }
        Advance();
        obs::Emit(obs::Event::kFault, nullptr, r.a, r.b);
        break;
      }
      case Decision::kIoDone:
        Advance();
        return;
      default:
        // Record always terminates a pass with kIoDone, so any other kind here means the
        // recorded run was not idle-polling at this decision at all.
        Diverge("idle poll pass not in log", Decision::kIoDone, 0, 0);
    }
  }
}

namespace {

// Fires the async record at the cursor (AsyncDue said it is due here).
void FireAsync() {
  const LogRecord r = g_buf[g_cursor];
  Advance();
  if (r.kind == Decision::kTick) {
    const uint32_t expired = sig::ForceTimerTick(r.a, (r.b & kSliceFired) != 0);
    if (expired != r.a) {
      Diverge("replayed tick expired fewer timers than recorded", Decision::kTick, expired,
              r.b);
    }
  } else {
    sig::DeliverToProcess(static_cast<int>(r.a));
  }
}

}  // namespace

bool GateInDispatcher() {
  if (!AsyncDue(AsyncSite::kInDispatcher, EntriesSinceMark())) {
    return false;
  }
  FireAsync();
  return true;
}

void RunGate() {
  // The kernel entry about to happen is entry EntriesSinceMark() + 1 of this decision gap.
  // An in-dispatcher record due in that section gets its dispatch_pending, as the recorded
  // deferred signal set it.
  if (AsyncDue(AsyncSite::kInDispatcher, EntriesSinceMark() + 1)) {
    kernel::ks().dispatch_pending = 1;
    return;
  }
#if !FSUP_NO_OBSERVE
  // A pre-entry record: the recorded universal handler entered the kernel itself to deliver
  // it, and the Enter below mirrors that entry (sigprocmask traffic skipped — no physical
  // signal is in flight).
  while (AsyncDue(AsyncSite::kPreEntry, EntriesSinceMark() + 1)) {
    g_gate_pending = 0;  // our own Enter below must not recurse; firing recomputes the flags
    kernel::Enter();
    FireAsync();
    kernel::Dispatch();
  }
#endif
}

void OnForced(uint64_t ordinal) {
  if (g_mode == static_cast<uint8_t>(Mode::kRecord)) {
    Append(Decision::kForced, static_cast<uint32_t>(ordinal), 0);
  } else {
    ++g_decisions;
  }
}

bool ReplayForced(uint64_t ordinal, bool applicable) {
  if (g_cursor >= g_len || g_buf[g_cursor].kind != Decision::kForced ||
      g_buf[g_cursor].a > ordinal) {
    return false;  // no forced switch due at this gate (yet)
  }
  if (g_buf[g_cursor].a != ordinal) {
    Diverge("forced switch ordinal", Decision::kForced, static_cast<uint32_t>(ordinal), 0);
  }
  if (!applicable) {
    Diverge("forced switch not applicable", Decision::kForced, static_cast<uint32_t>(ordinal),
            0);
  }
  Advance();
  return true;
}

void RearmAfterExhaust() {
  if (g_need_rearm) {
    RearmItimer();
    g_need_rearm = false;
    UpdateFlags();
  }
}

const char* DecisionName(Decision d) {
  switch (d) {
    case Decision::kSwitch:
      return "switch";
    case Decision::kTick:
      return "tick";
    case Decision::kExtSignal:
      return "ext-signal";
    case Decision::kIoWake:
      return "io-wake";
    case Decision::kIoDone:
      return "io-done";
    case Decision::kFault:
      return "fault";
    case Decision::kForced:
      return "forced";
  }
  return "?";
}

}  // namespace fsup::debug::replay
