// Restartable atomic sequences (RAS) — the paper's Figure 4 mechanism.
//
// The paper locks a mutex and records its owner inside a short instruction sequence that the
// universal signal handler promises to *restart* if it interrupts it (Bershad et al., "Fast
// Mutual Exclusion for Uniprocessors"). On a uniprocessor this makes the sequence atomic with
// respect to other threads without any hardware interlock, because the only way another thread
// can run is through a signal, and the handler rewinds the interrupted PC to the sequence start
// before any other thread is dispatched.
//
// Restart safety requires the committing store to be the *last* instruction of the sequence
// (re-executing the prefix must be harmless). The paper's SPARC sequence commits with ldstub
// first; we use the commit-last arrangement, which records the prospective owner before the
// lock-word store — the owner field is only meaningful while the lock word is set, so the early
// store is harmless on restart. Three primitives are exported so the evaluation can compare:
//
//   fsup_ras_lock  — plain load/test/store made atomic purely by restart (uniprocessor form)
//   fsup_xchg_lock — hardware test-and-set (SPARC ldstub analogue); owner recorded separately
//   fsup_cas_lock  — the compare-and-swap the paper argues every ISA should provide: one
//                    instruction both acquires the lock and records the owner in the lock word
//
// The registry below is consulted by the universal signal handler: RewindIfInside() takes the
// interrupted program counter and moves it back to the sequence start when it lies inside a
// registered sequence.

#ifndef FSUP_SRC_ARCH_RAS_HPP_
#define FSUP_SRC_ARCH_RAS_HPP_

#include <cstdint>

namespace fsup::ras {

struct Sequence {
  uintptr_t start;
  uintptr_t end;  // exclusive
};

// Registers a sequence. Bounded registry; exceeding it is a fatal configuration error.
void Register(uintptr_t start, uintptr_t end);

// If *pc lies inside a registered sequence, rewinds *pc to its start and returns true.
bool RewindIfInside(uintptr_t* pc);

// True if pc lies inside a registered sequence (no rewind). For tests.
bool Inside(uintptr_t pc);

// Installs the library's built-in sequences (the mutex lock path, the list push/pop, the
// idle sleep, the preemption thunk's tail). Idempotent.
void RegisterBuiltins();

}  // namespace fsup::ras

extern "C" {

// Atomic-by-restart lock acquire: if *lock == 0, records owner in *owner_slot and sets
// *lock = 1, returning 0. Returns 1 if the lock was already held.
int fsup_ras_lock(volatile uint8_t* lock, void* owner, void* volatile* owner_slot);

// Production mutex fast path, over the unified owner word (nullptr = unlocked, else the
// owning TCB). The single committing store both acquires and publishes the owner, so the
// kernel can never see a locked mutex without knowing who holds it. Returns nullptr on
// acquisition, else the current owner.
void* fsup_ras_owner_lock(void* volatile* word, void* self);

// Fast release of the owner word: clears it only when *has_waiters is 0 (returns 0); returns
// 1 (word untouched) when a waiter needs the kernel handoff. The waiter check + clearing
// store must be restart-atomic against handler-driven enqueues.
int fsup_ras_owner_unlock(void* volatile* word, volatile uint8_t* has_waiters);

// Hardware test-and-set (x86 xchg, the ldstub analogue). Returns previous lock value.
int fsup_xchg_lock(volatile uint8_t* lock);

// Compare-and-swap acquire: atomically replaces *word == nullptr with self. Returns nullptr on
// success, else the current owner.
void* fsup_cas_lock(void* volatile* word, void* self);

// Atomic-by-restart LIFO over a singly linked list whose link is each node's first word:
// pop returns the first node (nullptr if empty), push links node in front. The recycled
// cleanup-handler nodes live on such a list (cancel/cleanup.cpp), so a thread preempted
// mid-operation can never tear it and no kernel entry is needed. Nodes must stay mapped.
void* fsup_ras_list_pop(void* volatile* head);
void fsup_ras_list_push(void* volatile* head, void* node);

// The idle loop's sleep: issues syscall nr(a1, a2, a3, a4, NULL, 8) unless *deferred is
// nonzero, in which case it returns -EINTR without entering the host kernel. The test and the
// syscall instruction form one sequence, so a signal deferred anywhere before the sleep
// begins is seen. Returns the raw result (>= 0, or -errno).
long fsup_ras_idle_syscall(long nr, long a1, long a2, long a3, long a4,
                           const volatile uint64_t* deferred);

// Sequence bounds, exported for registration and tests.
extern const char fsup_ras_lock_begin[];
extern const char fsup_ras_lock_end[];
extern const char fsup_ras_owner_lock_begin[];
extern const char fsup_ras_owner_lock_end[];
extern const char fsup_ras_owner_unlock_begin[];
extern const char fsup_ras_owner_unlock_end[];
extern const char fsup_ras_list_pop_begin[];
extern const char fsup_ras_list_pop_end[];
extern const char fsup_ras_list_push_begin[];
extern const char fsup_ras_list_push_end[];
extern const char fsup_ras_idle_syscall_begin[];
extern const char fsup_ras_idle_syscall_end[];

}  // extern "C"

#endif  // FSUP_SRC_ARCH_RAS_HPP_
