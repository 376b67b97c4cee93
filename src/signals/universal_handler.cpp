// The universal signal handler (paper, "Signal Delivery").
//
// One process-level handler is installed for every maskable UNIX signal. Its behaviour splits
// on the kernel flag:
//
//   in the kernel      — log the signal and set the dispatcher flag; it is replayed when the
//                        dispatcher runs (Figure 2). One store, no syscalls.
//   outside the kernel — enter the kernel, re-enable all signals (sigprocmask call #1 of the
//                        paper's two), run the delivery model, and invoke the dispatcher —
//                        which may switch away, leaving this handler frame pending on the
//                        interrupted thread's stack until the thread is re-dispatched (with
//                        signals blocked: call #2, in the dispatcher). Returning performs the
//                        kernel's sigreturn, restoring the pre-signal register state and mask.
//
// The handler also implements the restartable-atomic-sequence contract: if it interrupted a
// registered sequence, the saved program counter is rewound to the sequence start before
// anything else can run.

#include <csignal>
#include <cerrno>
#include <ucontext.h>
#include <unistd.h>

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
    debug::profiler::OnSigprof(ucv);
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
  Tcb* self = k.current;
  self->interrupted_by_signal = true;

  // Paper's sigsetmask call #1: with the kernel flag protecting us, all signals re-enable.
  UnblockAllOsSignals();

  DeliverAsync(signo, debug::replay::AsyncSite::kPreEntry);

  // May switch to another thread; if so, this frame stays pending on self's stack and we
  // resume here when self is next dispatched (with OS signals blocked by the dispatcher).
  kernel::Dispatch();

  self->interrupted_by_signal = false;

  if (SelfHandlersPending()) {
    // The delivery chose the interrupted thread itself: run the user handler now, at this
    // thread's priority, under the live signal frame (Figure 3's "same thread" case). Make
    // sure it runs preemptible even on the resumed-with-signals-blocked path.
    UnblockAllOsSignals();
    RunSelfHandlers();
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
    // Not in the kernel here, but the funnel is safe: this handler runs with every OS
    // signal blocked (sa_mask is the full set), so nothing can interleave with the
    // masked-thread counter update.
    NoteSigmaskSet(self, saved | a.mask | SigBit(signo));
    ++self->signals_taken;
    debug::obs::Emit(debug::obs::Event::kSignal, self, self->id, static_cast<uint32_t>(signo));
    a.handler(signo);
    NoteSigmaskSet(self, saved);
    ApplyRedirectIfAny();
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
  KernelState& k = kernel::ks();

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

  struct sigaction sa{};
  sa.sa_sigaction = &UniversalHandler;
  ::sigfillset(&sa.sa_mask);
  sa.sa_flags = SA_SIGINFO;
  for (int signo : kClaimedSignals) {
    if (hostos::Sigaction(signo, &sa, g_installed ? nullptr : &g_saved_actions[signo]) !=
        0) {
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

  k.os_handlers_installed = true;
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
  kernel::ks().os_handlers_installed = false;
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
  const bool had_handler = a.installed && a.handler != nullptr;
  if (handler == nullptr && !ignore) {
    a = VSigAction{};  // back to default disposition
  } else {
    a.handler = handler;
    a.mask = mask;
    a.ignore = ignore;
    a.installed = true;
  }
  // Keep the O(1) deadlock-detection counter in step with the disposition table.
  const bool has_handler = a.installed && a.handler != nullptr;
  if (had_handler != has_handler) {
    if (has_handler) {
      ++k.handlers_installed;
    } else {
      FSUP_ASSERT(k.handlers_installed > 0);
      --k.handlers_installed;
    }
  }
  kernel::Exit();
  return 0;
}

}  // namespace fsup::sig
