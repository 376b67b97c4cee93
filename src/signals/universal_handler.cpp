// The universal signal handler (paper, "Signal Delivery").
//
// One process-level handler is installed for every maskable UNIX signal. Its behaviour splits
// on the kernel flag:
//
//   in the kernel      — log the signal and set the dispatcher flag; it is replayed when the
//                        dispatcher runs (Figure 2). One store, no syscalls.
//   outside the kernel — enter the kernel and run the delivery model. A delivery that stays
//                        on the interrupted thread leaves the kernel here, running any
//                        handler it queued for this thread in this frame. A delivery that
//                        switches threads (it readied a better thread, ended a slice, or left
//                        deferred work) does not switch here: the handler keeps the kernel
//                        held and rewrites its ucontext so that sigreturn resumes the thread
//                        in a preemption thunk (arch/context.S, the paper's fake call applied
//                        to the running thread), which saves the interrupted registers,
//                        dispatches, and returns to the interrupted PC.
//
// The paper makes two sigsetmask calls per delivered signal: #1 re-enables signals once the
// kernel flag protects the handler, #2 blocks them again when a thread with a pending handler
// frame resumes. Here the handler is installed with an empty sa_mask (SIGPROF excepted: the
// sampler is not reentrant), so the host kernel blocks only the signal being taken, for free,
// and lifts it at sigreturn. Call #1 is gone: any other signal still lands, and is deferred by
// the kernel flag; a second instance of the same one is held by the host kernel until the
// frame returns, coalescing exactly as the deferred set would. Nesting is therefore bounded
// by the number of distinct signals. (SA_NODEFER would bound nothing: a sender faster than
// the host's frame setup stacks one frame per signal before a handler instruction runs.)
// Call #2 is gone too: no thread is ever suspended under a handler frame by a delivery, so
// none resumes under one. The host mask is empty everywhere but inside a live handler frame;
// the only mask calls left are made when a thread leaves such a frame other than by
// returning (sig::LeaveHandlerFrame).
//
// The handler also implements the restartable-atomic-sequence contract: if it interrupted a
// registered sequence, the saved program counter is rewound to the sequence start before
// anything else can run, so the thunk returns to the sequence start too.

#include <csignal>
#include <cerrno>
#include <cstddef>
#include <ucontext.h>
#include <unistd.h>

#include "src/arch/context.hpp"
#include "src/arch/ras.hpp"
#include "src/debug/introspect.hpp"
#include "src/debug/obs.hpp"
#include "src/debug/profiler.hpp"
#include "src/hostos/unix_if.hpp"
#include "src/kernel/kernel.hpp"
#include "src/signals/fake_call.hpp"
#include "src/signals/sigmodel.hpp"
#include "src/util/assert.hpp"
#include "src/util/counters.hpp"
#include "src/util/log.hpp"

namespace fsup::sig {
namespace {

// Asynchronous signals claimed by the universal handler. SIGKILL/SIGSTOP cannot be caught;
// SIGABRT stays with the runtime so FSUP_CHECK failures abort cleanly; synchronous faults get
// the dedicated handler below; SIGCONT's default is to do nothing catchable.
constexpr int kClaimedSignals[] = {
    SIGHUP,  SIGINT,  SIGQUIT, SIGUSR1, SIGUSR2,  SIGPIPE, SIGALRM, SIGTERM,
    SIGCHLD, SIGTSTP, SIGTTIN, SIGTTOU, SIGURG,   SIGXCPU, SIGXFSZ, SIGVTALRM,
    SIGPROF, SIGWINCH, SIGIO,  SIGPWR,
};

constexpr int kSyncSignals[] = {SIGILL, SIGFPE, SIGSEGV, SIGBUS, SIGSYS};

struct sigaction g_saved_actions[kMaxSignal + 1];
bool g_installed = false;

alignas(16) unsigned char g_alt_stack[64 * 1024];

void UniversalHandler(int signo, siginfo_t* info, void* ucv) {
  (void)info;
  auto* uc = static_cast<ucontext_t*>(ucv);
  // Restartable atomic sequences: rewind an interrupted sequence to its start.
  auto pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  if (ras::RewindIfInside(&pc)) {
    uc->uc_mcontext.gregs[REG_RIP] = static_cast<greg_t>(pc);
  }

  KernelState& k = kernel::ks();
  if (!k.initialized) {
    return;
  }

  // Live on-CPU sampling: when the profiler armed ITIMER_PROF, SIGPROF is a sample, not a
  // signal to deliver. Handled entirely here — in-kernel or not — because the sampler never
  // enters the kernel, never touches deferral state, and must observe kernel-time samples
  // too (attributed to the interrupted thread). When sampling is off, SIGPROF falls through
  // to the ordinary delivery model (a user can pt_sigwait it, as before).
  if (signo == SIGPROF && debug::profiler::g_signal_sampling) {
    debug::profiler::OnSigprof(uc);
    return;
  }

  if (k.in_kernel != 0) {
    // Defer: log the signal; the dispatcher replays it (Figure 2).
    k.sigs_caught_in_kernel.fetch_or(SigBit(signo), std::memory_order_relaxed);
    k.dispatch_pending = 1;
    counters::Bump(counters::kKernelDeferredSignals);
    return;
  }

  const int saved_errno = errno;

  k.in_kernel = 1;
  counters::Bump(counters::kKernelEntries);
  DeliverAsync(signo, debug::replay::AsyncSite::kPreEntry);

  if (k.dispatch_pending != 0) {
    // A switch: sigreturn resumes the thread in the preemption thunk, with the kernel held.
    CtxPreemptOnReturn(uc);
  } else {
    // No switch: leave the kernel here, running any handler the delivery queued for this
    // thread under the live signal frame (Figure 3's "same thread" case).
    Tcb* self = k.current;
    const bool outer = self->in_handler_frame;
    self->in_handler_frame = true;
    kernel::Dispatch();
    self->in_handler_frame = outer;
  }

  errno = saved_errno;
  // sigreturn restores the interrupted register state and the pre-signal mask.
}

void SyncHandler(int signo, siginfo_t* info, void* ucv) {
  auto* uc = static_cast<ucontext_t*>(ucv);
  auto pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  if (ras::RewindIfInside(&pc)) {
    // A fault inside a registered sequence is a library bug, not a preemption.
    FatalError("fault inside restartable atomic sequence", __FILE__, __LINE__);
  }

  KernelState& k = kernel::ks();

  // Stack overflow: every thread stack is mapped read-write in full, so a SIGSEGV on one
  // is either a hit on some live thread's guard page or an ordinary fault. This runs on the
  // alternate signal stack (SA_ONSTACK) and before the in-kernel fatal check, since kernel
  // code runs on thread stacks too and an overflow there should still name its victim.
  if (signo == SIGSEGV && info != nullptr) {
    if (Tcb* t = StackPool::GuardOwner(info->si_addr, k.current, k.all_threads)) {
      debug::obs::Emit(debug::obs::Event::kOverflow, t, t->id,
                       static_cast<uint32_t>(t->stack_size));
      log::RawWriteCstr("fsup fatal: stack overflow in thread ");
      log::RawWriteInt(t->id);
      if (t->name[0] != '\0') {
        log::RawWriteCstr(" [");
        log::RawWriteCstr(t->name);
        log::RawWriteCstr("]");
      }
      log::RawWriteCstr(" (stack size ");
      log::RawWriteInt(static_cast<int64_t>(t->stack_size));
      log::RawWriteCstr(")\n");
      debug::DumpThreads();
      ::abort();
    }
  }

  if (k.in_kernel != 0) {
    if (info != nullptr) {
      log::RawWriteCstr("fsup: sync fault sig=");
      log::RawWriteInt(signo);
      log::RawWriteCstr(" addr=");
      log::RawWriteHex(reinterpret_cast<uint64_t>(info->si_addr));
      log::RawWriteCstr(" pc=");
      log::RawWriteHex(static_cast<uint64_t>(uc->uc_mcontext.gregs[REG_RIP]));
      if (k.current != nullptr && k.current->stack_base != nullptr) {
        log::RawWriteCstr(" cur_stack=[");
        log::RawWriteHex(reinterpret_cast<uint64_t>(k.current->stack_base));
        log::RawWriteCstr(",");
        log::RawWriteHex(reinterpret_cast<uint64_t>(k.current->stack_base) +
                         k.current->stack_size);
        log::RawWriteCstr(")");
      }
      log::RawWriteCstr("\n");
    }
    debug::DumpThreads();
    FatalError("synchronous fault inside the Pthreads kernel", __FILE__, __LINE__);
  }

  // Synchronous delivery to the causing thread (recipient rule 2). A registered user handler
  // runs immediately — it may pt_handler_redirect / siglongjmp out (the Ada exception path);
  // if it returns, the faulting instruction re-executes.
  const VSigAction& a = k.actions[signo];
  if (a.installed && a.handler != nullptr) {
    Tcb* self = k.current;
    const SigSet saved = self->sigmask;
    self->sigmask = saved | a.mask | SigBit(signo);
    ++self->signals_taken;
    debug::obs::Emit(debug::obs::Event::kSignal, self, self->id, static_cast<uint32_t>(signo));
    const bool outer = self->in_handler_frame;
    self->in_handler_frame = true;  // the handler may block: every signal is blocked here
    a.handler(signo);
    self->sigmask = saved;
    ApplyRedirectIfAny();
    self->in_handler_frame = outer;
    return;
  }
  if (a.installed && a.ignore) {
    return;
  }

  // Default: uninstall and re-raise for the kernel's default action (core dump etc.).
  struct sigaction dfl{};
  dfl.sa_handler = SIG_DFL;
  ::sigemptyset(&dfl.sa_mask);
  hostos::Sigaction(signo, &dfl, nullptr);
}

}  // namespace

void InstallOsHandlers() {
  // A runtime whose universal handler is only half-installed delivers some signals through
  // the library and others straight to default dispositions — undefined behavior the first
  // time a timer fires. Any failure here (including an injected one) is fatal, with the
  // failing service named, rather than a latent landmine.
  stack_t ss{};
  ss.ss_sp = g_alt_stack;
  ss.ss_size = sizeof(g_alt_stack);
  if (hostos::SigaltStack(&ss, nullptr) != 0) {
    FatalError("init: sigaltstack failed — no overflow reporting possible", __FILE__,
               __LINE__);
  }

  // Every claimed signal but SIGPROF blocks only itself while its handler frame runs (see the
  // header). SIGPROF blocks everything: OnSigprof must not be re-entered.
  struct sigaction sa{};
  sa.sa_sigaction = &UniversalHandler;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_SIGINFO;
  struct sigaction prof = sa;
  ::sigfillset(&prof.sa_mask);
  for (int signo : kClaimedSignals) {
    if (hostos::Sigaction(signo, signo == SIGPROF ? &prof : &sa,
                          g_installed ? nullptr : &g_saved_actions[signo]) != 0) {
      log::RawWriteCstr("fsup fatal: init: sigaction failed for signal ");
      log::RawWriteInt(signo);
      log::RawWriteCstr("\n");
      FatalError("init: universal handler installation failed", __FILE__, __LINE__);
    }
  }

  struct sigaction sync{};
  sync.sa_sigaction = &SyncHandler;
  ::sigfillset(&sync.sa_mask);
  sync.sa_flags = SA_SIGINFO | SA_ONSTACK | SA_NODEFER;
  for (int signo : kSyncSignals) {
    if (hostos::Sigaction(signo, &sync,
                          g_installed ? nullptr : &g_saved_actions[signo]) != 0) {
      log::RawWriteCstr("fsup fatal: init: sigaction failed for fault signal ");
      log::RawWriteInt(signo);
      log::RawWriteCstr("\n");
      FatalError("init: fault handler installation failed", __FILE__, __LINE__);
    }
  }

  g_installed = true;
}

void UninstallOsHandlers() {
  if (!g_installed) {
    return;
  }
  for (int signo : kClaimedSignals) {
    hostos::Sigaction(signo, &g_saved_actions[signo], nullptr);
  }
  for (int signo : kSyncSignals) {
    hostos::Sigaction(signo, &g_saved_actions[signo], nullptr);
  }
  g_installed = false;
}

int SetAction(int signo, void (*handler)(int), SigSet mask, bool ignore, VSigAction* old) {
  kernel::EnsureInit();
  if (signo <= 0 || signo > kMaxSignal || signo == kSigCancel || signo == SIGKILL ||
      signo == SIGSTOP) {
    return EINVAL;
  }
  kernel::Enter();
  KernelState& k = kernel::ks();
  if (old != nullptr) {
    *old = k.actions[signo];
  }
  VSigAction& a = k.actions[signo];
  if (handler == nullptr && !ignore) {
    a = VSigAction{};  // back to default disposition
  } else {
    a.handler = handler;
    a.mask = mask;
    a.ignore = ignore;
    a.installed = true;
  }
  kernel::Exit();
  return 0;
}

}  // namespace fsup::sig

// The body of fsup_preempt_thunk: a switching delivery's dispatch, run on the thread the
// universal handler interrupted, after its sigreturn restored the pre-signal mask. Entered
// with the kernel held, and returns with it held unless handlers queued for this thread ran
// (outside the kernel, with nothing blocked). The thunk's tail then leaves the kernel and
// re-checks (Figure 2), reading the three flags at these offsets.
static_assert(offsetof(fsup::KernelState, in_kernel) == 0);
static_assert(offsetof(fsup::KernelState, dispatch_pending) == 4);
static_assert(offsetof(fsup::KernelState, sigs_caught_in_kernel) == 8);
extern "C" void* fsup_preempt_cc() {
  using namespace fsup;
  const int saved_errno = errno;
  kernel::DispatchKeepKernel();
  if (sig::SelfHandlersPending()) {
    kernel::ExitProtocol();
  }
  errno = saved_errno;
  return &kernel::ks();
}
