/*
 * Lock primitives for fsup mutexes and the recycled-node list (see ras.hpp for the full
 * story).
 */

    .text

/*
 * int fsup_ras_lock(volatile uint8_t* lock %rdi, void* owner %rsi, void** owner_slot %rdx)
 *
 * Restartable atomic sequence, commit-last: the owner is recorded *before* the lock word is
 * set, so re-executing the sequence from the top after an interrupt is harmless. The universal
 * signal handler rewinds any PC inside [begin, end) back to begin.
 */
    .globl  fsup_ras_lock
    .globl  fsup_ras_lock_begin
    .globl  fsup_ras_lock_end
    .type   fsup_ras_lock, @function
    .align  16
fsup_ras_lock:
fsup_ras_lock_begin:
    movzbl  (%rdi), %eax
    testl   %eax, %eax
    jne     .Lheld
    movq    %rsi, (%rdx)        /* record prospective owner (dead until lock set) */
    movb    $1, (%rdi)          /* commit — final instruction of the sequence */
fsup_ras_lock_end:
    xorl    %eax, %eax
    ret
.Lheld:
    movl    $1, %eax
    ret
    .size   fsup_ras_lock, . - fsup_ras_lock

/*
 * int fsup_ras_unlock(volatile uint8_t* lock %rdi, volatile uint8_t* has_waiters %rsi)
 *
 * Fast-path unlock as a restartable atomic sequence: release only when no waiter is queued.
 * If a signal handler preempts the sequence and blocks another thread on the mutex, the
 * restart re-reads has_waiters and diverts to the kernel handoff path. Returns 0 on release,
 * 1 if a waiter requires the kernel. The lock-word clear is the committing final store; the
 * stale owner field is never consulted while the lock word is clear (library invariant).
 */
    .globl  fsup_ras_unlock
    .globl  fsup_ras_unlock_begin
    .globl  fsup_ras_unlock_end
    .type   fsup_ras_unlock, @function
    .align  16
fsup_ras_unlock:
fsup_ras_unlock_begin:
    movzbl  (%rsi), %eax
    testl   %eax, %eax
    jne     .Lhas_waiters
    movb    $0, (%rdi)          /* commit — final instruction of the sequence */
fsup_ras_unlock_end:
    xorl    %eax, %eax
    ret
.Lhas_waiters:
    movl    $1, %eax
    ret
    .size   fsup_ras_unlock, . - fsup_ras_unlock

/*
 * void* fsup_ras_owner_lock(void* volatile* word %rdi, void* self %rsi)
 *
 * Acquire over the unified owner word (nullptr = unlocked, else the owning TCB): the single
 * committing store both takes the lock and publishes the owner, so the monitor can never
 * observe a locked word without its owner. Returns 0 on acquisition, else the current owner.
 * The failure exit leaves the sequence before returning, so a stale owner value read by a
 * preempted loser is only ever used as a went-contended signal, never as lock state.
 */
    .globl  fsup_ras_owner_lock
    .globl  fsup_ras_owner_lock_begin
    .globl  fsup_ras_owner_lock_end
    .type   fsup_ras_owner_lock, @function
    .align  16
fsup_ras_owner_lock:
fsup_ras_owner_lock_begin:
    movq    (%rdi), %rax
    testq   %rax, %rax
    jne     .Lowner_held
    movq    %rsi, (%rdi)        /* commit — final instruction of the sequence */
fsup_ras_owner_lock_end:
    xorl    %eax, %eax
    ret
.Lowner_held:
    ret                          /* rax = current owner */
    .size   fsup_ras_owner_lock, . - fsup_ras_owner_lock

/*
 * int fsup_ras_owner_unlock(void* volatile* word %rdi, volatile uint8_t* has_waiters %rsi)
 *
 * Fast-path release over the unified owner word: clears it only when no waiter is queued.
 * A signal handler preempting the sequence may block another thread on the mutex; the restart
 * re-reads has_waiters and diverts to the kernel handoff path (returns 1, word untouched).
 * The waiter check and the clearing store must be one atomic unit with respect to
 * handler-driven enqueues, which a lone cmpxchg cannot provide; restart-atomicity is
 * sufficient on the uniprocessor model.
 */
    .globl  fsup_ras_owner_unlock
    .globl  fsup_ras_owner_unlock_begin
    .globl  fsup_ras_owner_unlock_end
    .type   fsup_ras_owner_unlock, @function
    .align  16
fsup_ras_owner_unlock:
fsup_ras_owner_unlock_begin:
    movzbl  (%rsi), %eax
    testl   %eax, %eax
    jne     .Lowner_waiters
    movq    $0, (%rdi)          /* commit — final instruction of the sequence */
fsup_ras_owner_unlock_end:
    xorl    %eax, %eax
    ret
.Lowner_waiters:
    movl    $1, %eax
    ret
    .size   fsup_ras_owner_unlock, . - fsup_ras_owner_unlock

/*
 * void* fsup_ras_list_pop(void* volatile* head %rdi)
 *
 * Pops the first node of a singly linked list whose link is each node's first word; returns
 * it, or 0 when the list is empty. The head store commits; a restart re-reads the head, so a
 * node another thread took meanwhile is never returned twice. Nodes must never be unmapped
 * (the handler treats a fault inside a sequence as fatal).
 */
    .globl  fsup_ras_list_pop
    .globl  fsup_ras_list_pop_begin
    .globl  fsup_ras_list_pop_end
    .type   fsup_ras_list_pop, @function
    .align  16
fsup_ras_list_pop:
fsup_ras_list_pop_begin:
    movq    (%rdi), %rax
    testq   %rax, %rax
    je      fsup_ras_list_pop_end
    movq    (%rax), %rdx
    movq    %rdx, (%rdi)        /* commit — final instruction of the sequence */
fsup_ras_list_pop_end:
    ret
    .size   fsup_ras_list_pop, . - fsup_ras_list_pop

/*
 * void fsup_ras_list_push(void* volatile* head %rdi, void* node %rsi)
 *
 * Pushes node onto the same kind of list. The link store touches only the caller's private
 * node, so re-executing it after a restart is harmless; the head store commits.
 */
    .globl  fsup_ras_list_push
    .globl  fsup_ras_list_push_begin
    .globl  fsup_ras_list_push_end
    .type   fsup_ras_list_push, @function
    .align  16
fsup_ras_list_push:
fsup_ras_list_push_begin:
    movq    (%rdi), %rax
    movq    %rax, (%rsi)        /* node->next = head */
    movq    %rsi, (%rdi)        /* commit — final instruction of the sequence */
fsup_ras_list_push_end:
    ret
    .size   fsup_ras_list_push, . - fsup_ras_list_push

/* int fsup_xchg_lock(volatile uint8_t* lock %rdi) — hardware test-and-set. */
    .globl  fsup_xchg_lock
    .type   fsup_xchg_lock, @function
    .align  16
fsup_xchg_lock:
    movl    $1, %eax
    xchgb   %al, (%rdi)
    movzbl  %al, %eax
    ret
    .size   fsup_xchg_lock, . - fsup_xchg_lock

/* void* fsup_cas_lock(void* volatile* word %rdi, void* self %rsi) */
    .globl  fsup_cas_lock
    .type   fsup_cas_lock, @function
    .align  16
fsup_cas_lock:
    xorl    %eax, %eax
    lock cmpxchgq %rsi, (%rdi)
    ret                          /* rax = 0 on success, else current owner */
    .size   fsup_cas_lock, . - fsup_cas_lock

    .section .note.GNU-stack, "", @progbits
