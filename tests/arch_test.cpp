// Machine layer: raw context switches, bootstrap frames, fake-call frame injection, and the
// registers a preempted thread keeps across the preemption thunk.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/arch/context.hpp"
#include "src/core/pthread.hpp"

namespace fsup {
namespace {

// A pair of raw contexts ping-ponging without any kernel involvement.
struct PingPong {
  Context main_ctx;
  Context thread_ctx;
  std::vector<int> log;
  alignas(16) char stack[64 * 1024];
};

PingPong* g_pp = nullptr;

void* PingPongBody(void* arg) {
  auto* pp = static_cast<PingPong*>(arg);
  pp->log.push_back(1);
  fsup_ctx_switch(&pp->thread_ctx, &pp->main_ctx);
  pp->log.push_back(3);
  fsup_ctx_switch(&pp->thread_ctx, &pp->main_ctx);
  return nullptr;  // never reached in this test
}

TEST(ContextTest, RawSwitchRoundTrip) {
  PingPong pp;
  g_pp = &pp;
  CtxMake(pp.thread_ctx, pp.stack, sizeof(pp.stack), &PingPongBody, &pp);
  pp.log.push_back(0);
  fsup_ctx_switch(&pp.main_ctx, &pp.thread_ctx);
  pp.log.push_back(2);
  fsup_ctx_switch(&pp.main_ctx, &pp.thread_ctx);
  pp.log.push_back(4);
  ASSERT_EQ(5u, pp.log.size());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(i, pp.log[i]);
  }
}

TEST(ContextTest, CalleeSavedRegistersSurviveSwitch) {
  // The compiler keeps locals in callee-saved registers across calls; round-tripping through
  // two raw switches must preserve them bit-exactly.
  PingPong pp;
  CtxMake(pp.thread_ctx, pp.stack, sizeof(pp.stack), &PingPongBody, &pp);
  const uint64_t a = 0x1122334455667788ull;
  const uint64_t b = 0xdeadbeefcafef00dull;
  const double d = 3.14159265358979;
  fsup_ctx_switch(&pp.main_ctx, &pp.thread_ctx);
  EXPECT_EQ(0x1122334455667788ull, a);
  EXPECT_EQ(0xdeadbeefcafef00dull, b);
  EXPECT_EQ(3.14159265358979, d);
  fsup_ctx_switch(&pp.main_ctx, &pp.thread_ctx);
}

struct FakeState {
  Context main_ctx;
  Context thread_ctx;
  std::vector<int> log;
  alignas(16) char stack[64 * 1024];
};

FakeState* g_fs = nullptr;

void* FakeBody(void* arg) {
  auto* fs = static_cast<FakeState*>(arg);
  fs->log.push_back(1);
  fsup_ctx_switch(&fs->thread_ctx, &fs->main_ctx);  // suspend: fake call lands on us here
  fs->log.push_back(3);                             // resumed at the interruption point
  fsup_ctx_switch(&fs->thread_ctx, &fs->main_ctx);
  return nullptr;
}

void FakeHandler(void* arg) {
  auto* fs = static_cast<FakeState*>(arg);
  fs->log.push_back(2);
}

TEST(ContextTest, FakeCallRunsBeforeResumingInterruptionPoint) {
  FakeState fs;
  g_fs = &fs;
  CtxMake(fs.thread_ctx, fs.stack, sizeof(fs.stack), &FakeBody, &fs);
  fs.log.push_back(0);
  fsup_ctx_switch(&fs.main_ctx, &fs.thread_ctx);  // body runs to its suspend
  // Thread suspended; doctor its saved frame with a fake call (Figure 3).
  CtxPushFakeCall(fs.thread_ctx, &FakeHandler, &fs);
  fsup_ctx_switch(&fs.main_ctx, &fs.thread_ctx);  // wrapper runs handler, resumes body
  fs.log.push_back(4);
  ASSERT_EQ(5u, fs.log.size());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(i, fs.log[i]) << i;
  }
}

TEST(ContextTest, NestedFakeCallsRunInLifoOrder) {
  FakeState fs;
  CtxMake(fs.thread_ctx, fs.stack, sizeof(fs.stack), &FakeBody, &fs);
  fs.log.push_back(0);
  fsup_ctx_switch(&fs.main_ctx, &fs.thread_ctx);
  static std::vector<int>* log;
  log = &fs.log;
  // Two fake calls pushed: the second lands on top and runs first.
  CtxPushFakeCall(fs.thread_ctx, +[](void*) { log->push_back(10); }, nullptr);
  CtxPushFakeCall(fs.thread_ctx, +[](void*) { log->push_back(20); }, nullptr);
  fsup_ctx_switch(&fs.main_ctx, &fs.thread_ctx);
  fs.log.push_back(4);
  // Expected: 0, 1, 20, 10, 3, 4.
  ASSERT_EQ(6u, fs.log.size());
  EXPECT_EQ(0, fs.log[0]);
  EXPECT_EQ(1, fs.log[1]);
  EXPECT_EQ(20, fs.log[2]);
  EXPECT_EQ(10, fs.log[3]);
  EXPECT_EQ(3, fs.log[4]);
  EXPECT_EQ(4, fs.log[5]);
}

TEST(ContextTest, StackAlignmentSupportsVectorCode) {
  // SSE spills require 16-byte alignment; misaligned thread stacks crash here.
  struct Align {
    Context main_ctx, thread_ctx;
    double result = 0;
    alignas(16) char stack[64 * 1024];
  };
  static Align a;
  auto body = +[](void* argp) -> void* {
    auto* s = static_cast<Align*>(argp);
    volatile double x = 1.5, y = 2.5;
    double acc = 0;
    for (int i = 0; i < 100; ++i) {
      acc += x * y;
    }
    s->result = acc;
    fsup_ctx_switch(&s->thread_ctx, &s->main_ctx);
    return nullptr;
  };
  CtxMake(a.thread_ctx, a.stack, sizeof(a.stack), body, &a);
  fsup_ctx_switch(&a.main_ctx, &a.thread_ctx);
  EXPECT_DOUBLE_EQ(375.0, a.result);
}

// Loads a pattern derived from `seed` into ymm8-ymm15 (zmm8-zmm15 with AVX-512) and r8-r11,
// counts `iters` down in a register loop that any slice may interrupt, and reports whether
// every one of those caller-saved registers still holds its pattern.
bool SpinHoldingRegisters(uint64_t seed, uint64_t iters, bool zmm) {
  alignas(64) uint64_t vin[64];
  alignas(64) uint64_t vout[64] = {};
  uint64_t gin[4];
  uint64_t gout[4] = {};
  for (int i = 0; i < 64; ++i) {
    vin[i] = seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(i);
  }
  for (int i = 0; i < 4; ++i) {
    gin[i] = ~seed + static_cast<uint64_t>(i);
  }
#define FSUP_LOAD_GPRS                                                          \
  "movq 0(%[gin]), %%r8\n movq 8(%[gin]), %%r9\n"                              \
  "movq 16(%[gin]), %%r10\n movq 24(%[gin]), %%r11\n"
#define FSUP_SPIN "1: decq %[n]\n jnz 1b\n"
#define FSUP_STORE_GPRS                                                         \
  "movq %%r8, 0(%[gout])\n movq %%r9, 8(%[gout])\n"                            \
  "movq %%r10, 16(%[gout])\n movq %%r11, 24(%[gout])\n"
  if (zmm) {
    asm volatile(
        "vmovdqu64 0(%[vin]), %%zmm8\n vmovdqu64 64(%[vin]), %%zmm9\n"
        "vmovdqu64 128(%[vin]), %%zmm10\n vmovdqu64 192(%[vin]), %%zmm11\n"
        "vmovdqu64 256(%[vin]), %%zmm12\n vmovdqu64 320(%[vin]), %%zmm13\n"
        "vmovdqu64 384(%[vin]), %%zmm14\n vmovdqu64 448(%[vin]), %%zmm15\n"
        FSUP_LOAD_GPRS FSUP_SPIN FSUP_STORE_GPRS
        "vmovdqu64 %%zmm8, 0(%[vout])\n vmovdqu64 %%zmm9, 64(%[vout])\n"
        "vmovdqu64 %%zmm10, 128(%[vout])\n vmovdqu64 %%zmm11, 192(%[vout])\n"
        "vmovdqu64 %%zmm12, 256(%[vout])\n vmovdqu64 %%zmm13, 320(%[vout])\n"
        "vmovdqu64 %%zmm14, 384(%[vout])\n vmovdqu64 %%zmm15, 448(%[vout])\n"
        "vzeroupper\n"
        : [n] "+c"(iters)
        : [vin] "r"(vin), [vout] "r"(vout), [gin] "r"(gin), [gout] "r"(gout)
        : "memory", "cc", "r8", "r9", "r10", "r11", "xmm8", "xmm9", "xmm10", "xmm11",
          "xmm12", "xmm13", "xmm14", "xmm15");
  } else {
    asm volatile(
        "vmovdqu 0(%[vin]), %%ymm8\n vmovdqu 32(%[vin]), %%ymm9\n"
        "vmovdqu 64(%[vin]), %%ymm10\n vmovdqu 96(%[vin]), %%ymm11\n"
        "vmovdqu 128(%[vin]), %%ymm12\n vmovdqu 160(%[vin]), %%ymm13\n"
        "vmovdqu 192(%[vin]), %%ymm14\n vmovdqu 224(%[vin]), %%ymm15\n"
        FSUP_LOAD_GPRS FSUP_SPIN FSUP_STORE_GPRS
        "vmovdqu %%ymm8, 0(%[vout])\n vmovdqu %%ymm9, 32(%[vout])\n"
        "vmovdqu %%ymm10, 64(%[vout])\n vmovdqu %%ymm11, 96(%[vout])\n"
        "vmovdqu %%ymm12, 128(%[vout])\n vmovdqu %%ymm13, 160(%[vout])\n"
        "vmovdqu %%ymm14, 192(%[vout])\n vmovdqu %%ymm15, 224(%[vout])\n"
        "vzeroupper\n"
        : [n] "+c"(iters)
        : [vin] "r"(vin), [vout] "r"(vout), [gin] "r"(gin), [gout] "r"(gout)
        : "memory", "cc", "r8", "r9", "r10", "r11", "xmm8", "xmm9", "xmm10", "xmm11",
          "xmm12", "xmm13", "xmm14", "xmm15");
  }
#undef FSUP_LOAD_GPRS
#undef FSUP_SPIN
#undef FSUP_STORE_GPRS
  const size_t vbytes = zmm ? 512 : 256;
  return std::memcmp(vin, vout, vbytes) == 0 && std::memcmp(gin, gout, sizeof(gin)) == 0;
}

TEST(PreemptionThunkTest, LiveVectorRegistersSurviveSlicePreemptions) {
  // Two round-robin threads under 100 µs slices hold different patterns in the same vector
  // and scratch registers while they spin: each slice preempts one of them at an arbitrary
  // instruction and runs the other, whose patterns would show through if the thunk lost any.
  if (__builtin_cpu_supports("avx") == 0) {
    GTEST_SKIP() << "no AVX";
  }
  pt_reinit();
  static bool zmm = false;
  zmm = __builtin_cpu_supports("avx512f") != 0;
  pt_enable_time_slicing(100);
  ThreadAttr rr;
  rr.inherit_policy = false;
  rr.policy = SchedPolicy::kRr;
  struct Spinner {
    uint64_t seed;
    bool intact = false;
  };
  auto body = +[](void* arg) -> void* {
    auto* s = static_cast<Spinner*>(arg);
    s->intact = SpinHoldingRegisters(s->seed, 150'000'000, zmm);
    return nullptr;
  };
  Spinner a{0x1111}, b{0x2222};
  pt_thread_t ta, tb;
  const uint64_t switches_before = pt_stats().ctx_switches;
  ASSERT_EQ(0, pt_create(&ta, &rr, body, &a));
  ASSERT_EQ(0, pt_create(&tb, &rr, body, &b));
  ASSERT_EQ(0, pt_join(ta, nullptr));
  ASSERT_EQ(0, pt_join(tb, nullptr));
  pt_disable_time_slicing();
  EXPECT_GE(pt_stats().ctx_switches - switches_before, 20u) << "too few slices to tell";
  EXPECT_TRUE(a.intact);
  EXPECT_TRUE(b.intact);
  pt_reinit();
}

}  // namespace
}  // namespace fsup
