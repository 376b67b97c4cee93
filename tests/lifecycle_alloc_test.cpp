// Deterministic count gate for the warm thread lifecycle: once every stack class, the TCB slab
// and the cleanup-node list are warm, a create -> TSD set -> cleanup push/pop -> lock/unlock ->
// exit -> join cycle makes no heap allocation and no host call.
//
// A binary of its own because it replaces the global operator new/delete with counting ones.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/core/pthread.hpp"
#include "src/hostos/unix_if.hpp"

namespace {

uint64_t g_news = 0;
uint64_t g_deletes = 0;

void* CountedNew(std::size_t n, std::size_t align) {
  ++g_news;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n == 0 ? 1 : n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void CountedDelete(void* p) {
  if (p != nullptr) {
    ++g_deletes;
    std::free(p);
  }
}

}  // namespace

void* operator new(std::size_t n) { return CountedNew(n, 0); }
void* operator new[](std::size_t n) { return CountedNew(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedNew(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedNew(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return CountedNew(n, 0);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return CountedNew(n, 0);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { CountedDelete(p); }
void operator delete[](void* p) noexcept { CountedDelete(p); }
void operator delete(void* p, std::size_t) noexcept { CountedDelete(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedDelete(p); }
void operator delete(void* p, std::align_val_t) noexcept { CountedDelete(p); }
void operator delete[](void* p, std::align_val_t) noexcept { CountedDelete(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { CountedDelete(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { CountedDelete(p); }

namespace fsup {
namespace {

// The five pooled classes the benchmark's spawn workload uses: 16 KiB .. 256 KiB.
constexpr size_t kClassSizes[] = {16u << 10, 32u << 10, 64u << 10, 128u << 10, 256u << 10};
constexpr int kCycles = 1000;

pt_key_t g_key;
pt_mutex_t g_mu;
int g_destructed = 0;
int g_cleaned = 0;
int g_locked = 0;

void* Body(void* arg) {
  pt_setspecific(g_key, arg);
  pt_cleanup_push(+[](void*) { ++g_cleaned; }, arg);
  pt_cleanup_pop(1);
  pt_mutex_lock(&g_mu);
  ++g_locked;
  pt_mutex_unlock(&g_mu);
  return arg;
}

// Runs `cycles` create/join cycles rotating over the class sizes; returns how many had a
// failed create or join or a wrong join value.
int RunCycles(int cycles) {
  int bad = 0;
  for (int i = 0; i < cycles; ++i) {
    ThreadAttr attr;
    attr.stack_size = kClassSizes[i % 5];
    pt_thread_t t;
    void* ret = nullptr;
    if (pt_create(&t, &attr, &Body, &g_key) != 0 || pt_join(t, &ret) != 0 || ret != &g_key) {
      ++bad;
    }
  }
  return bad;
}

TEST(LifecycleAllocTest, WarmCycleAllocatesNothing) {
  pt_init();
  ASSERT_EQ(0, pt_key_create(&g_key, +[](void*) { ++g_destructed; }));
  ASSERT_EQ(0, pt_mutex_init(&g_mu));
  ASSERT_EQ(0, RunCycles(5));  // warm: one stack per class, a TCB slot, a cleanup node

  g_destructed = g_cleaned = g_locked = 0;
  const uint64_t host_before = hostos::TotalCallCount();
  const uint64_t news_before = g_news;
  const uint64_t deletes_before = g_deletes;

  const int bad = RunCycles(kCycles);

  const uint64_t news = g_news - news_before;
  const uint64_t deletes = g_deletes - deletes_before;
  const uint64_t host_calls = hostos::TotalCallCount() - host_before;

  EXPECT_EQ(0, bad);
  EXPECT_EQ(kCycles, g_destructed);
  EXPECT_EQ(kCycles, g_cleaned);
  EXPECT_EQ(kCycles, g_locked);
  EXPECT_EQ(0u, news) << "operator new calls in " << kCycles << " warm cycles";
  EXPECT_EQ(0u, deletes) << "operator delete calls in " << kCycles << " warm cycles";
  EXPECT_EQ(0u, host_calls) << "hostos calls in " << kCycles << " warm cycles";
  pt_mutex_destroy(&g_mu);
  pt_key_delete(g_key);
}

}  // namespace
}  // namespace fsup
