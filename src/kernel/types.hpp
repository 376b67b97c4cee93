// Shared constants, enums and signal-set helpers for the fsup library kernel.

#ifndef FSUP_SRC_KERNEL_TYPES_HPP_
#define FSUP_SRC_KERNEL_TYPES_HPP_

#include <cstdint>

namespace fsup {

// Scheduling priorities. 0 is lowest; higher number = higher priority, as in the paper's
// P1 < P2 < P3 examples.
inline constexpr int kMinPrio = 0;
inline constexpr int kMaxPrio = 31;
inline constexpr int kNumPrios = kMaxPrio - kMinPrio + 1;
inline constexpr int kDefaultPrio = 15;

inline constexpr uint64_t kDefaultStackSize = 128 * 1024;
inline constexpr uint64_t kMinStackSize = 16 * 1024;

// Default round-robin quantum in microseconds when SCHED_RR time-slicing is enabled.
inline constexpr int64_t kDefaultSliceUs = 10000;

inline constexpr int kMaxTsdKeys = 64;
inline constexpr int kMaxFakeRecs = 16;   // max simultaneously pending fake-call records/thread

// Signals. Virtual signal numbers coincide with the host's classic UNIX numbers (1..31);
// SIGCANCEL is the paper's internal cancellation signal and exists only inside the library.
inline constexpr int kMaxSignal = 63;
inline constexpr int kSigCancel = 32;

using SigSet = uint64_t;

constexpr SigSet SigBit(int signo) { return signo > 0 ? (1ull << signo) : 0; }
constexpr bool SigIsMember(SigSet set, int signo) { return (set & SigBit(signo)) != 0; }
inline constexpr SigSet kSigSetAll = ~0ull & ~1ull;  // all signals 1..63
inline constexpr SigSet kSigSetEmpty = 0;

// Scheduling policies of the standard.
enum class SchedPolicy : uint8_t {
  kFifo = 0,  // run-to-block within a priority level
  kRr,        // FIFO + time slicing
};

// Perverted scheduling policies (paper: "Perverted Scheduling: Testing and Debugging").
enum class PervertedPolicy : uint8_t {
  kNone = 0,
  kMutexSwitch,  // forced switch on each successful mutex lock
  kRrOrdered,    // forced switch (to tail of lowest priority queue) on each kernel exit
  kRandom,       // coin-flip switch on kernel exit; next thread chosen at random
};

enum class ThreadState : uint8_t {
  kReady = 0,
  kRunning,
  kBlocked,
  kTerminated,
};

// Why a blocked thread is blocked (scheduler bookkeeping + thread dumps).
enum class BlockReason : uint8_t {
  kNone = 0,
  kMutex,
  kCond,
  kJoin,
  kSigwait,
  kDelay,
  kIo,
  kLazy,  // created with deferred activation (paper's lazy thread creation, future work §)
};

// Mutex protocols (standard: no protocol, priority inheritance, priority ceiling emulation).
enum class MutexProtocol : uint8_t {
  kNone = 0,
  kInherit,
  kProtect,  // priority ceiling: the holder runs at least at the mutex's ceiling
};

// Mutex types. Only kNormal is eligible for the kernel-bypassing fast path: the error-check
// and recursive variants need per-acquisition bookkeeping (the paper's complaint that "a
// simple mutex lock ... now requires an additional check of the attributes"), so they always
// enter the monitor.
enum class MutexType : uint8_t {
  kNormal = 0,  // relock by the owner reports EDEADLK (checked on the fast path too)
  kErrorCheck,  // same error semantics, always bookkept under the kernel monitor
  kRecursive,   // owner may relock; a count balances the releases
};

// Cancellation interruptibility (paper Table 1). Draft-6 terminology.
enum class Interruptibility : uint8_t {
  kDisabled = 0,
  kControlled,    // enabled, acted on at interruption points
  kAsynchronous,  // enabled, acted on immediately
};

// Exit status of a cancelled thread (POSIX PTHREAD_CANCELED analogue).
inline void* const kCanceled = reinterpret_cast<void*>(-1);

const char* ToString(ThreadState s);
const char* ToString(BlockReason r);

}  // namespace fsup

#endif  // FSUP_SRC_KERNEL_TYPES_HPP_
