/*
 * fsup C interface — language-independent entry points (paper, "Design and Implementation":
 * "The interface consists of a C library with linkable entry points and can optionally be
 * compiled to generate a language-independent interface").
 *
 * Every function is a plain C-linkage symbol taking only C-compatible types, so any language
 * with a C FFI (the paper's case in point: Ada) can bind to the library without macros or
 * inline code — the exact property the paper's "Ada Interface and Binding" section argues
 * for. Handles are opaque pointers; synchronization objects are allocated and freed by the
 * library (no C++ types cross the boundary).
 *
 * Return conventions match the C++ API: 0 on success, an errno value on failure.
 */

#ifndef FSUP_SRC_CORE_CINTERFACE_H_
#define FSUP_SRC_CORE_CINTERFACE_H_

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

typedef void* fsup_thread_t;
typedef void* fsup_mutex_t;
typedef void* fsup_cond_t;
typedef void* fsup_sem_t;

/* Scheduling policies and mutex protocols (values match the C++ enums). */
#define FSUP_SCHED_FIFO 0
#define FSUP_SCHED_RR 1
#define FSUP_PROTO_NONE 0
#define FSUP_PROTO_INHERIT 1
#define FSUP_PROTO_PROTECT 2

/* Runtime */
void fsup_init(void);

/* Threads. priority -1 inherits the creator's. */
int fsup_thread_create(fsup_thread_t* thread, void* (*fn)(void*), void* arg, int priority);
int fsup_thread_join(fsup_thread_t thread, void** retval);
int fsup_thread_detach(fsup_thread_t thread);
void fsup_thread_exit(void* retval);
fsup_thread_t fsup_thread_self(void);
void fsup_thread_yield(void);
int fsup_thread_setprio(fsup_thread_t thread, int prio);
int fsup_thread_getprio(fsup_thread_t thread, int* prio);

/* Mutexes: allocated by the library (opaque to the caller). */
int fsup_mutex_create(fsup_mutex_t* mutex, int protocol, int ceiling);
int fsup_mutex_free(fsup_mutex_t mutex);
int fsup_mutex_lock(fsup_mutex_t mutex);
int fsup_mutex_trylock(fsup_mutex_t mutex);
int fsup_mutex_unlock(fsup_mutex_t mutex);

/* Condition variables. timeout_ns < 0 waits forever. */
int fsup_cond_create(fsup_cond_t* cond);
int fsup_cond_free(fsup_cond_t cond);
int fsup_cond_wait(fsup_cond_t cond, fsup_mutex_t mutex);
int fsup_cond_timedwait(fsup_cond_t cond, fsup_mutex_t mutex, int64_t timeout_ns);
int fsup_cond_signal(fsup_cond_t cond);
int fsup_cond_broadcast(fsup_cond_t cond);

/* Semaphores. */
int fsup_sem_create(fsup_sem_t* sem, int initial);
int fsup_sem_free(fsup_sem_t sem);
int fsup_sem_wait(fsup_sem_t sem);
int fsup_sem_post(fsup_sem_t sem);

/* Signals (library-level delivery model). */
int fsup_kill(fsup_thread_t thread, int signo);
int fsup_sigaction(int signo, void (*handler)(int));
int fsup_sigwait_any(uint64_t sigset_bits, int* signo);

/* Cancellation (draft-6 interruptibility). */
int fsup_cancel(fsup_thread_t thread);
int fsup_setintr(int enabled);
int fsup_setintrtype(int asynchronous);
void fsup_testintr(void);

/* Time. */
int fsup_delay_ns(int64_t duration_ns);

/* Observability. Metrics collection can also be enabled with the FSUP_METRICS environment
 * variable; fsup_trace_dump writes the event ring as Chrome trace_event JSON (also triggered
 * at exit by FSUP_TRACE_FILE). fsup_trace_user logs an application-defined event into the
 * ring so program milestones line up with scheduler events in the exported timeline. */
void fsup_metrics_enable(int on);
int fsup_metrics_dump(int fd);
int fsup_trace_dump(const char* path);
void fsup_trace_user(uint32_t a, uint32_t b);

/* Statistical on-/off-CPU profiler (also driven by FSUP_PROFILE / FSUP_PROFILE_HZ /
 * FSUP_PROFILE_FILE / FSUP_STATS_SHM). hz <= 0 picks the default rate. fsup_profile_dump
 * writes flamegraph.pl-compatible folded stacks plus <path>.offcpu and a <path>.maps
 * symbolization sidecar. */
int fsup_profile_start(int hz);
int fsup_profile_stop(void);
int fsup_profile_active(void);
int fsup_profile_dump(const char* path);
uint64_t fsup_profile_samples(void);

/* Deterministic record/replay of scheduling decisions (also driven by the FSUP_RECORD and
 * FSUP_REPLAY environment variables; see DESIGN.md "Determinism and replay"). A recorded
 * schedule saved with fsup_replay_record_save can be re-executed bit-exactly by launching
 * with FSUP_REPLAY=<path> or calling fsup_replay_start; a divergence aborts with the first
 * mismatched decision. fsup_replay_decisions returns the logical decision counter, which
 * advances in every mode and stamps each trace-ring record. */
void fsup_replay_record_start(void);
int fsup_replay_record_save(const char* path); /* stops recording; 0 or errno */
int fsup_replay_start(const char* path);       /* enters replay mode; 0 or errno */
size_t fsup_replay_stop(void);                 /* leaves replay; unconsumed records */
uint64_t fsup_replay_decisions(void);

#ifdef __cplusplus
}
#endif

#endif /* FSUP_SRC_CORE_CINTERFACE_H_ */
