#include "src/hostos/fault.hpp"

#include <csignal>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "src/debug/replay.hpp"
#include "src/debug/obs.hpp"

namespace fsup::hostos::fault {
namespace {

constexpr int kNumCalls = static_cast<int>(Call::kCount);

// One rule per host call. `seen` counts invocations since the rule was armed, so ordinals are
// relative to the arming point and independent of warm-up traffic.
struct Rule {
  bool armed = false;
  uint64_t nth = 0;       // one-shot: fail the nth invocation (1-based); 0 = off
  uint64_t every_k = 0;   // periodic: fail invocations nth, nth+k, ... ; 0 = off
  uint32_t permille = 0;  // random: fail with probability permille/1000; 0 = off
  uint64_t rng_state = 0;
  int err = 0;
  int raise_signo = 0;  // nonzero: the raise action instead of a failure
  uint64_t seen = 0;
  uint64_t injected = 0;
};

Rule g_rules[kNumCalls];
bool g_any_armed = false;
bool g_env_done = false;

Rule& RuleFor(Call c) { return g_rules[static_cast<int>(c)]; }

Rule& ArmFresh(Call c, int err) {
  Rule& r = RuleFor(c);
  r = Rule{};
  r.armed = true;
  r.err = err;
  g_any_armed = true;
  return r;
}

// splitmix64: deterministic, seedable, good enough to scatter injections.
uint64_t NextRand(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct NameEntry {
  const char* name;
  Call call;
};

constexpr NameEntry kCallNames[] = {
    {"sigaction", Call::kSigaction}, {"sigprocmask", Call::kSigprocmask},
    {"setitimer", Call::kSetitimer}, {"mmap", Call::kMmap},
    {"munmap", Call::kMunmap},       {"mprotect", Call::kMprotect},
    {"sigaltstack", Call::kSigaltstack}, {"kill", Call::kKill},
    {"poll", Call::kPoll},
    {"epoll_create", Call::kEpollCreate}, {"epoll_ctl", Call::kEpollCtl},
    {"epoll_wait", Call::kEpollWait},     {"shm", Call::kShmMap},
};

struct NamedNumber {
  const char* name;
  int value;
};

constexpr NamedNumber kErrnoNames[] = {
    {"ENOMEM", ENOMEM}, {"EAGAIN", EAGAIN}, {"EINTR", EINTR},  {"EINVAL", EINVAL},
    {"EACCES", EACCES}, {"EBUSY", EBUSY},   {"EPERM", EPERM},  {"EFAULT", EFAULT},
};

constexpr NamedNumber kSignalNames[] = {
    {"SIGUSR1", SIGUSR1}, {"SIGUSR2", SIGUSR2}, {"SIGALRM", SIGALRM},
};

bool LookupCall(const char* s, size_t len, Call* out) {
  for (const NameEntry& e : kCallNames) {
    if (std::strlen(e.name) == len && std::strncmp(e.name, s, len) == 0) {
      *out = e.call;
      return true;
    }
  }
  return false;
}

// A symbolic name from `names`, or a plain positive decimal.
template <size_t N>
bool LookupName(const NamedNumber (&names)[N], const char* s, size_t len, int* out) {
  for (const NamedNumber& e : names) {
    if (std::strlen(e.name) == len && std::strncmp(e.name, s, len) == 0) {
      *out = e.value;
      return true;
    }
  }
  int value = 0;
  if (len == 0) {
    return false;
  }
  for (size_t i = 0; i < len; ++i) {
    if (s[i] < '0' || s[i] > '9') {
      return false;
    }
    value = value * 10 + (s[i] - '0');
  }
  *out = value;
  return value > 0;
}

bool ParseU64(const char* s, size_t len, uint64_t* out) {
  if (len == 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = 0; i < len; ++i) {
    if (s[i] < '0' || s[i] > '9') {
      return false;
    }
    value = value * 10 + static_cast<uint64_t>(s[i] - '0');
  }
  *out = value;
  return true;
}

// Parses one "<call>:<mode>:<errno>" clause; arms the rule only when `arm` is set, so a
// validation pass can run over the whole spec first.
bool ParseClause(const char* s, size_t len, bool arm) {
  const char* colon1 = static_cast<const char*>(std::memchr(s, ':', len));
  if (colon1 == nullptr) {
    return false;
  }
  const char* rest = colon1 + 1;
  const size_t rest_len = len - static_cast<size_t>(rest - s);
  const char* colon2 = static_cast<const char*>(std::memchr(rest, ':', rest_len));
  if (colon2 == nullptr) {
    return false;
  }

  Call call;
  if (!LookupCall(s, static_cast<size_t>(colon1 - s), &call)) {
    return false;
  }
  // The action: an errno, or raise=<signal> (a name from kSignalNames or a number).
  int err = 0;
  int signo = 0;
  const char* errs = colon2 + 1;
  const size_t errs_len = len - static_cast<size_t>(errs - s);
  constexpr size_t kRaiseLen = sizeof("raise=") - 1;
  if (errs_len > kRaiseLen && std::strncmp(errs, "raise=", kRaiseLen) == 0) {
    if (!LookupName(kSignalNames, errs + kRaiseLen, errs_len - kRaiseLen, &signo) ||
        signo >= NSIG) {
      return false;
    }
  } else if (!LookupName(kErrnoNames, errs, errs_len, &err)) {
    return false;
  }

  const char* mode = rest;
  const size_t mode_len = static_cast<size_t>(colon2 - rest);
  if (mode_len < 3 || mode[1] != '=') {
    return false;
  }
  const char* arg = mode + 2;
  const size_t arg_len = mode_len - 2;
  uint64_t value = 0;
  switch (mode[0]) {
    case 'n':
      if (!ParseU64(arg, arg_len, &value) || value == 0) {
        return false;
      }
      if (arm) {
        FailNth(call, value, err);
      }
      break;
    case 'k':
      if (!ParseU64(arg, arg_len, &value) || value == 0) {
        return false;
      }
      if (arm) {
        FailEveryKth(call, value, err);
      }
      break;
    case 'p': {
      const char* at = static_cast<const char*>(std::memchr(arg, '@', arg_len));
      if (at == nullptr) {
        return false;
      }
      uint64_t seed = 0;
      if (!ParseU64(arg, static_cast<size_t>(at - arg), &value) || value > 1000 ||
          !ParseU64(at + 1, arg_len - static_cast<size_t>(at + 1 - arg), &seed)) {
        return false;
      }
      if (arm) {
        FailRandom(call, seed, static_cast<uint32_t>(value), err);
      }
      break;
    }
    default:
      return false;
  }
  if (arm) {
    RuleFor(call).raise_signo = signo;
  }
  return true;
}

// Walks the ';'-separated clause list; returns true iff at least one clause parsed and none
// failed. `arm` selects the validation pass (false) vs the arming pass (true).
bool ParseSpecPass(const char* spec, bool arm) {
  const char* p = spec;
  bool saw_clause = false;
  while (*p != '\0') {
    const char* sep = std::strchr(p, ';');
    const size_t len = sep != nullptr ? static_cast<size_t>(sep - p) : std::strlen(p);
    if (len > 0) {
      saw_clause = true;
      if (!ParseClause(p, len, arm)) {
        return false;
      }
    }
    if (sep == nullptr) {
      break;
    }
    p = sep + 1;
  }
  return saw_clause;
}

}  // namespace

void Clear() {
  for (Rule& r : g_rules) {
    r = Rule{};
  }
  g_any_armed = false;
}

bool AnyArmed() { return g_any_armed; }

void FailNth(Call c, uint64_t nth, int err) { ArmFresh(c, err).nth = nth; }

void FailEveryKth(Call c, uint64_t k, int err) {
  Rule& r = ArmFresh(c, err);
  r.nth = k;
  r.every_k = k;
}

void RaiseNth(Call c, uint64_t nth, int signo) {
  FailNth(c, nth, 0);
  RuleFor(c).raise_signo = signo;
}

void FailRandom(Call c, uint64_t seed, uint32_t permille, int err) {
  Rule& r = ArmFresh(c, err);
  r.permille = permille > 1000 ? 1000 : permille;
  r.rng_state = seed;
}

int ShouldFail(Call c) {
  // Replay steering comes before the fast path: a replayed run injects exactly the faults the
  // log carries, whether or not this process armed any rule of its own. The per-rule counters
  // are deliberately untouched — the log, not the rules, is the authority during replay.
  if (debug::replay::Replaying()) {
    const int err = debug::replay::ReplayFault(static_cast<uint32_t>(c));
    if (err != 0) {
      debug::obs::Emit(debug::obs::Event::kFault, nullptr, static_cast<uint32_t>(c),
                       static_cast<uint32_t>(err));
    }
    return err;
  }
  if (!g_any_armed) {
    return 0;
  }
  Rule& r = RuleFor(c);
  if (!r.armed) {
    return 0;
  }
  ++r.seen;
  bool hit = false;
  if (r.permille != 0) {
    hit = NextRand(&r.rng_state) % 1000 < r.permille;
  } else if (r.every_k != 0) {
    hit = r.seen >= r.nth && (r.seen - r.nth) % r.every_k == 0;
  } else if (r.nth != 0) {
    hit = r.seen == r.nth;
  }
  if (!hit) {
    return 0;
  }
  ++r.injected;
  if (r.raise_signo != 0) {
    // The call itself goes through. The signal needs no fault record: its arrival is logged
    // by the universal handler (and replayed from that log).
    ::kill(::getpid(), r.raise_signo);
    return 0;
  }
  // The firing is a scheduling decision: record it (before the trace record, so the ring
  // stamp matches the replay side) and a replayed run will re-inject it at the same index.
  debug::replay::OnFault(static_cast<uint32_t>(c), static_cast<uint32_t>(r.err));
  debug::obs::Emit(debug::obs::Event::kFault, nullptr, static_cast<uint32_t>(c),
                   static_cast<uint32_t>(r.err));
  return r.err;
}

uint64_t InjectedCount(Call c) { return RuleFor(c).injected; }

bool ParseSpec(const char* spec) {
  if (spec == nullptr) {
    return false;
  }
  // Validate every clause before arming any: a half-armed bad spec is worse than none.
  if (!ParseSpecPass(spec, /*arm=*/false)) {
    return false;
  }
  return ParseSpecPass(spec, /*arm=*/true);
}

void InitFromEnv() {
  if (g_env_done) {
    return;
  }
  g_env_done = true;
  const char* spec = std::getenv("FSUP_FAULT_SPEC");
  if (spec != nullptr && *spec != '\0') {
    ParseSpec(spec);
  }
}

const char* CallName(Call c) {
  for (const NameEntry& e : kCallNames) {
    if (e.call == c) {
      return e.name;
    }
  }
  return "?";
}

}  // namespace fsup::hostos::fault
