#include "src/arch/context.hpp"

#include <cstring>

#include <ucontext.h>

#include "src/util/assert.hpp"

extern "C" void fsup_ctx_boot();
extern "C" void fsup_fake_call_thunk();

namespace fsup {
namespace {

// Offsets within the saved frame, matching context.S.
constexpr size_t kOffFpState = 0;
constexpr size_t kOffR15 = 8;
constexpr size_t kOffR14 = 16;
constexpr size_t kOffR13 = 24;  // argument for fsup_ctx_boot
constexpr size_t kOffR12 = 32;  // entry function for fsup_ctx_boot
constexpr size_t kOffRbx = 40;
constexpr size_t kOffRbp = 48;
constexpr size_t kOffRet = 56;
constexpr size_t kFrameBytes = 64;

uint64_t CurrentFpControlState() {
  uint32_t mxcsr = 0;
  uint16_t fcw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fcw));
  return static_cast<uint64_t>(mxcsr) | (static_cast<uint64_t>(fcw) << 32);
}

void StoreWord(void* base, ptrdiff_t off, uint64_t value) {
  std::memcpy(static_cast<char*>(base) + off, &value, sizeof(value));
}

uint64_t LoadWord(const void* base, ptrdiff_t off) {
  uint64_t value;
  std::memcpy(&value, static_cast<const char*>(base) + off, sizeof(value));
  return value;
}

// The host describes the xsave image of a signal frame in the fxsave area's software-reserved
// bytes: struct _fpx_sw_bytes, whose magic, feature mask and standard-format size sit here.
constexpr size_t kSwBytesOffset = 464;
constexpr uint32_t kXstateMagic1 = 0x46505853;

// The thunk's last three instructions, which follow its restartable tail: popfq, popq %rbp,
// ret $128 (one, one and three bytes).
constexpr uintptr_t kPreemptPopsBytes = 5;
constexpr greg_t kRedZoneBytes = 128;

}  // namespace

extern "C" {
uintptr_t fsup_preempt_pc = 0;
uint64_t fsup_xsave_mask = 0;
uint64_t fsup_xsave_bytes = 0;
}

void CtxPreemptOnReturn(void* ucontext) {
  auto* uc = static_cast<ucontext_t*>(ucontext);
  greg_t* g = uc->uc_mcontext.gregs;
  const auto pc = static_cast<uintptr_t>(g[REG_RIP]);
  const auto tail = reinterpret_cast<uintptr_t>(fsup_preempt_tail_begin);
  const auto end = reinterpret_cast<uintptr_t>(fsup_preempt_tail_end);
  if (pc == tail) {
    // Leaving an earlier preemption (the restart rewound any PC of the tail to its start):
    // dispatch again from that frame, which is intact and still addressed by %rsp and %rbp.
    g[REG_RIP] = reinterpret_cast<greg_t>(&fsup_preempt_redispatch);
    return;
  }
  if (pc - end < kPreemptPopsBytes) {
    // In the last pops: finish them here. The new frame then lands where the old one was.
    auto* sp = reinterpret_cast<const uint64_t*>(g[REG_RSP]);
    if (pc == end) {
      g[REG_EFL] = static_cast<greg_t>(*sp++);
    }
    if (pc <= end + 1) {
      g[REG_RBP] = static_cast<greg_t>(*sp++);
    }
    g[REG_RIP] = static_cast<greg_t>(*sp++);
    g[REG_RSP] = reinterpret_cast<greg_t>(sp) + kRedZoneBytes;
  }

  // Save what the host saved, sized by the frame rather than XCR0: features whose state the
  // host keeps out of signal frames (AMX tile data, say) would not fit a small stack.
  const char* sw = reinterpret_cast<const char*>(uc->uc_mcontext.fpregs) + kSwBytesOffset;
  uint32_t magic = 0;
  uint32_t bytes = 0;
  std::memcpy(&magic, sw, sizeof(magic));
  std::memcpy(&fsup_xsave_mask, sw + 8, sizeof(fsup_xsave_mask));
  std::memcpy(&bytes, sw + 16, sizeof(bytes));
  FSUP_CHECK_MSG(magic == kXstateMagic1, "preemption needs xsave signal frames");
  fsup_xsave_bytes = bytes;
  fsup_preempt_pc = static_cast<uintptr_t>(g[REG_RIP]);
  g[REG_RIP] = reinterpret_cast<greg_t>(&fsup_preempt_thunk);
}

void CtxMake(Context& ctx, void* stack_lo, size_t stack_size, ThreadEntry entry, void* arg) {
  FSUP_CHECK(stack_size >= 4096);
  auto top = reinterpret_cast<uintptr_t>(stack_lo) + stack_size;
  top &= ~static_cast<uintptr_t>(15);

  // One zero word above the boot frame terminates debugger backtraces.
  top -= 16;
  *reinterpret_cast<uint64_t*>(top) = 0;

  char* frame = reinterpret_cast<char*>(top - kFrameBytes);
  StoreWord(frame, kOffFpState, CurrentFpControlState());
  StoreWord(frame, kOffR15, 0);
  StoreWord(frame, kOffR14, 0);
  StoreWord(frame, kOffR13, reinterpret_cast<uint64_t>(arg));
  StoreWord(frame, kOffR12, reinterpret_cast<uint64_t>(entry));
  StoreWord(frame, kOffRbx, 0);
  StoreWord(frame, kOffRbp, 0);
  StoreWord(frame, kOffRet, reinterpret_cast<uint64_t>(&fsup_ctx_boot));
  ctx.sp = frame;
}

void CtxPushFakeCall(Context& ctx, void (*fn)(void*), void* arg) {
  FSUP_CHECK(ctx.sp != nullptr);
  char* old = static_cast<char*>(ctx.sp);

  // Pop area read by fsup_fake_call_thunk, directly below the original frame.
  StoreWord(old, -8, reinterpret_cast<uint64_t>(old));   // resume_sp
  StoreWord(old, -16, reinterpret_cast<uint64_t>(arg));  // arg
  StoreWord(old, -24, reinterpret_cast<uint64_t>(fn));   // fn

  // A fresh switch frame whose return address is the thunk. Callee-saved register values do
  // not matter to the thunk; copy the old ones so a debugger walking the doctored frame still
  // sees plausible state, and reuse the thread's FP control words.
  char* frame = old - kFakeCallFrameBytes;
  StoreWord(frame, kOffFpState, LoadWord(old, kOffFpState));
  StoreWord(frame, kOffR15, LoadWord(old, kOffR15));
  StoreWord(frame, kOffR14, LoadWord(old, kOffR14));
  StoreWord(frame, kOffR13, LoadWord(old, kOffR13));
  StoreWord(frame, kOffR12, LoadWord(old, kOffR12));
  StoreWord(frame, kOffRbx, LoadWord(old, kOffRbx));
  StoreWord(frame, kOffRbp, LoadWord(old, kOffRbp));
  StoreWord(frame, kOffRet, reinterpret_cast<uint64_t>(&fsup_fake_call_thunk));
  ctx.sp = frame;
}

}  // namespace fsup
