// Deterministic fault injection at the hostos boundary.
//
// The paper confines the library to ~20 UNIX services, all funnelled through the counted
// wrappers in unix_if. That choke point makes the host kernel's failure modes — ENOMEM from
// mmap, EINTR from poll/setitimer, EAGAIN anywhere — injectable *deterministically*: a rule is
// keyed off the per-call invocation ordinal, so replaying the same rule against the same
// workload reproduces the identical hostos::CallCount trajectory and the identical failure.
// Tests and soak runs use this to drive every error path the library claims to survive.
//
// Rules are armed programmatically (FailNth / FailEveryKth / FailRandom) or from the
// FSUP_FAULT_SPEC environment variable, which holds a ';'-separated list of
//
//   <call>:<mode>:<errno>
//
//   <call>   sigaction | sigprocmask | setitimer | mmap | munmap | mprotect |
//            sigaltstack | kill | poll | epoll_create | epoll_ctl | epoll_wait
//   <mode>   n=<N>        fail the Nth invocation after arming (one-shot, 1-based)
//            k=<K>        fail every Kth invocation after arming
//            p=<P>@<seed> fail with probability P/1000, seeded pseudo-random
//   <errno>  ENOMEM | EAGAIN | EINTR | EINVAL | EACCES | EBUSY | EPERM | EFAULT | <number>
//            | raise=<SIGUSR1 | SIGUSR2 | SIGALRM | number>
//
// e.g. FSUP_FAULT_SPEC="mmap:n=1:ENOMEM;setitimer:k=13:EINTR". The raise action fails
// nothing: at the selected invocation it sends the signal to the process just before the host
// call runs, which lands a signal in the window between the idle loop's last look at the
// deferred set and its sleep. With no rule armed the hook is a single predicted branch per
// host call.

#ifndef FSUP_SRC_HOSTOS_FAULT_HPP_
#define FSUP_SRC_HOSTOS_FAULT_HPP_

#include <cstdint>

#include "src/hostos/unix_if.hpp"

namespace fsup::hostos::fault {

// Disarms every rule and zeroes the per-call seen/injected counters.
void Clear();

// True if any rule is armed (cheap: one global flag).
bool AnyArmed();

// Arms a rule for `c`. Arming replaces any existing rule for the call and restarts its
// invocation ordinal at zero, so the Nth/Kth count is relative to the arming point.
void FailNth(Call c, uint64_t nth, int err);
void FailEveryKth(Call c, uint64_t k, int err);
void FailRandom(Call c, uint64_t seed, uint32_t permille, int err);
// The raise action on FailNth's ordinal: the nth invocation first sends `signo` to the
// process (an uncounted kill), then runs. Counted in InjectedCount, and traced by the
// signal's own arrival rather than as a fault.
void RaiseNth(Call c, uint64_t nth, int signo);

// The wrapper-side hook: records one invocation of `c` and returns the errno to inject, or 0
// to let the real call through. Deterministic for Nth/Kth/seeded-random rules.
int ShouldFail(Call c);

// Telemetry.
uint64_t InjectedCount(Call c);

// Parses and arms a FSUP_FAULT_SPEC string. Returns false (arming nothing) on syntax errors.
bool ParseSpec(const char* spec);

// Arms from the FSUP_FAULT_SPEC environment variable; no-op after the first call. Invoked by
// kernel::EnsureInit so soak runs can inject from the very first host call.
void InitFromEnv();

// Lower-case spec name of a call ("mmap", "poll", ...), for diagnostics.
const char* CallName(Call c);

}  // namespace fsup::hostos::fault

#endif  // FSUP_SRC_HOSTOS_FAULT_HPP_
