// Machine-dependent context layer (x86-64 SysV).
//
// This is the analogue of the paper's ~400 lines of SPARC assembly. A thread's saved context is
// nothing but a stack pointer: fsup_ctx_switch pushes the callee-saved registers (rbp, rbx,
// r12-r15) plus the SSE/x87 control words onto the current stack and records rsp in the old
// thread's Context, then restores the same frame shape from the new thread's Context. As the
// paper argues for SPARC, no other state needs to move: caller-saved registers are dead across
// the explicit call into the library. Every suspended thread got there by such a call: a thread
// interrupted asynchronously is not switched inside the signal handler but returned into a
// preemption thunk (CtxPreemptOnReturn), whose frame saves the registers the interrupted code
// had live and which then calls into the library like any other code.
//
// Saved frame layout, from the saved sp upward:
//   sp +  0 : mxcsr (4 bytes) | x87 control word (2 bytes) | pad
//   sp +  8 : r15
//   sp + 16 : r14
//   sp + 24 : r13
//   sp + 32 : r12
//   sp + 40 : rbx
//   sp + 48 : rbp
//   sp + 56 : return address
//
// Fake calls (paper Figure 3) are realized by CtxPushFakeCall: a wrapper frame is written below
// the saved sp whose return address is a thunk that pops (handler, arg, resume-sp) and tail-
// calls the C++ wrapper; the wrapper finishes by fsup_ctx_restore(resume-sp), putting the
// thread back at its interruption point — or anywhere else the handler redirected it to.

#ifndef FSUP_SRC_ARCH_CONTEXT_HPP_
#define FSUP_SRC_ARCH_CONTEXT_HPP_

#include <cstddef>
#include <cstdint>

namespace fsup {

struct Context {
  void* sp = nullptr;
};

// Signature of a thread's entry function; the return value becomes the thread's exit value.
using ThreadEntry = void* (*)(void*);

// Initializes `ctx` so the first switch to it calls entry(arg) on the given stack, and routes
// the entry function's return into fsup_thread_exit_cc.
void CtxMake(Context& ctx, void* stack_lo, size_t stack_size, ThreadEntry entry, void* arg);

// Injects a call to fn(arg) into a *suspended* context. When the context is next resumed it
// executes fsup_fake_call_cc(fn, arg, original_sp) instead of returning to its suspension
// point; the wrapper resumes the original frame when (and if) it chooses to.
void CtxPushFakeCall(Context& ctx, void (*fn)(void*), void* arg);

// Number of bytes CtxPushFakeCall consumes below the saved sp (frame + pop area).
inline constexpr size_t kFakeCallFrameBytes = 88;

// Rewrites a signal handler's ucontext so that its sigreturn resumes the interrupted thread in
// fsup_preempt_thunk, which saves the interrupted registers, calls fsup_preempt_cc with the
// kernel still held, and returns to the interrupted PC. A PC already in the thunk's tail
// re-dispatches from the thread's existing thunk frame instead of stacking a second one.
void CtxPreemptOnReturn(void* ucontext);

}  // namespace fsup

extern "C" {

// Saves the current context into *save and resumes *load. Returns when someone switches back.
void fsup_ctx_switch(fsup::Context* save, const fsup::Context* load);

// Resumes a saved frame without saving anything. Never returns.
[[noreturn]] void fsup_ctx_restore(void* sp);

// Discards everything below `sp` and calls fn(arg) there. fn must not return. Used for
// handler-specified control redirection (the paper's Ada exception-propagation hook).
[[noreturn]] void fsup_ctx_call_on(void* sp, void (*fn)(void*), void* arg);

// Defined in core/api.cpp: receives the entry function's return value when a thread's entry
// function returns, and performs pt_exit.
[[noreturn]] void fsup_thread_exit_cc(void* retval);

// Defined in signals/fake_call.cpp: the wrapper body that fake-call frames land in.
[[noreturn]] void fsup_fake_call_cc(void (*fn)(void*), void* arg, void* resume_sp);

// The preemption thunk (context.S) and its state. fsup_preempt_cc (signals/universal_handler.cpp)
// is its body: entered with the kernel held, it dispatches and returns the kernel state's
// address, whose flags the thunk's tail clears and re-checks.
void fsup_preempt_thunk();
void fsup_preempt_redispatch();
void* fsup_preempt_cc();
extern const char fsup_preempt_tail_begin[];
extern const char fsup_preempt_tail_end[];
extern uintptr_t fsup_preempt_pc;  // where the thunk returns to
extern uint64_t fsup_xsave_mask;   // the features the host saved in the signal frame
extern uint64_t fsup_xsave_bytes;  // their standard-format size

}  // extern "C"

#endif  // FSUP_SRC_ARCH_CONTEXT_HPP_
