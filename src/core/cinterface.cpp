#include "src/core/cinterface.h"

#include <cerrno>
#include <new>

#include "src/core/pthread.hpp"
#include "src/debug/replay.hpp"

namespace {

// Opaque-handle helpers: synchronization objects are heap-allocated here so no C++ layout
// crosses the language boundary.
fsup::Mutex* AsMutex(fsup_mutex_t m) { return static_cast<fsup::Mutex*>(m); }
fsup::Cond* AsCond(fsup_cond_t c) { return static_cast<fsup::Cond*>(c); }
fsup::Semaphore* AsSem(fsup_sem_t s) { return static_cast<fsup::Semaphore*>(s); }
fsup::Tcb* AsThread(fsup_thread_t t) { return static_cast<fsup::Tcb*>(t); }

}  // namespace

extern "C" {

void fsup_init(void) { fsup::pt_init(); }

int fsup_thread_create(fsup_thread_t* thread, void* (*fn)(void*), void* arg, int priority) {
  if (thread == nullptr) {
    return EINVAL;
  }
  fsup::ThreadAttr attr;
  attr.priority = priority;
  fsup::pt_thread_t t = nullptr;
  const int rc = fsup::pt_create(&t, &attr, fn, arg);
  *thread = t;
  return rc;
}

int fsup_thread_join(fsup_thread_t thread, void** retval) {
  return fsup::pt_join(AsThread(thread), retval);
}

int fsup_thread_detach(fsup_thread_t thread) { return fsup::pt_detach(AsThread(thread)); }

void fsup_thread_exit(void* retval) { fsup::pt_exit(retval); }

fsup_thread_t fsup_thread_self(void) { return fsup::pt_self(); }

void fsup_thread_yield(void) { fsup::pt_yield(); }

int fsup_thread_setprio(fsup_thread_t thread, int prio) {
  return fsup::pt_setprio(AsThread(thread), prio);
}

int fsup_thread_getprio(fsup_thread_t thread, int* prio) {
  return fsup::pt_getprio(AsThread(thread), prio);
}

int fsup_mutex_create(fsup_mutex_t* mutex, int protocol, int ceiling) {
  if (mutex == nullptr || protocol < FSUP_PROTO_NONE || protocol > FSUP_PROTO_PROTECT) {
    return EINVAL;
  }
  auto* m = new (std::nothrow) fsup::Mutex();
  if (m == nullptr) {
    return ENOMEM;
  }
  fsup::MutexAttr attr;
  attr.protocol = static_cast<fsup::MutexProtocol>(protocol);
  attr.ceiling = ceiling;
  const int rc = fsup::pt_mutex_init(m, &attr);
  if (rc != 0) {
    delete m;
    return rc;
  }
  *mutex = m;
  return 0;
}

int fsup_mutex_free(fsup_mutex_t mutex) {
  const int rc = fsup::pt_mutex_destroy(AsMutex(mutex));
  if (rc == 0) {
    delete AsMutex(mutex);
  }
  return rc;
}

int fsup_mutex_lock(fsup_mutex_t mutex) { return fsup::pt_mutex_lock(AsMutex(mutex)); }
int fsup_mutex_trylock(fsup_mutex_t mutex) { return fsup::pt_mutex_trylock(AsMutex(mutex)); }
int fsup_mutex_unlock(fsup_mutex_t mutex) { return fsup::pt_mutex_unlock(AsMutex(mutex)); }

int fsup_cond_create(fsup_cond_t* cond) {
  if (cond == nullptr) {
    return EINVAL;
  }
  auto* c = new (std::nothrow) fsup::Cond();
  if (c == nullptr) {
    return ENOMEM;
  }
  const int rc = fsup::pt_cond_init(c);
  if (rc != 0) {
    delete c;
    return rc;
  }
  *cond = c;
  return 0;
}

int fsup_cond_free(fsup_cond_t cond) {
  const int rc = fsup::pt_cond_destroy(AsCond(cond));
  if (rc == 0) {
    delete AsCond(cond);
  }
  return rc;
}

int fsup_cond_wait(fsup_cond_t cond, fsup_mutex_t mutex) {
  return fsup::pt_cond_wait(AsCond(cond), AsMutex(mutex));
}

int fsup_cond_timedwait(fsup_cond_t cond, fsup_mutex_t mutex, int64_t timeout_ns) {
  return fsup::pt_cond_timedwait(AsCond(cond), AsMutex(mutex), timeout_ns);
}

int fsup_cond_signal(fsup_cond_t cond) { return fsup::pt_cond_signal(AsCond(cond)); }
int fsup_cond_broadcast(fsup_cond_t cond) { return fsup::pt_cond_broadcast(AsCond(cond)); }

int fsup_sem_create(fsup_sem_t* sem, int initial) {
  if (sem == nullptr) {
    return EINVAL;
  }
  auto* s = new (std::nothrow) fsup::Semaphore();
  if (s == nullptr) {
    return ENOMEM;
  }
  const int rc = fsup::pt_sem_init(s, initial);
  if (rc != 0) {
    delete s;
    return rc;
  }
  *sem = s;
  return 0;
}

int fsup_sem_free(fsup_sem_t sem) {
  const int rc = fsup::pt_sem_destroy(AsSem(sem));
  if (rc == 0) {
    delete AsSem(sem);
  }
  return rc;
}

int fsup_sem_wait(fsup_sem_t sem) { return fsup::pt_sem_wait(AsSem(sem)); }
int fsup_sem_post(fsup_sem_t sem) { return fsup::pt_sem_post(AsSem(sem)); }

int fsup_kill(fsup_thread_t thread, int signo) {
  return fsup::pt_kill(AsThread(thread), signo);
}

int fsup_sigaction(int signo, void (*handler)(int)) {
  return fsup::pt_sigaction(signo, handler, 0);
}

int fsup_sigwait_any(uint64_t sigset_bits, int* signo) {
  return fsup::pt_sigwait(sigset_bits, signo);
}

int fsup_cancel(fsup_thread_t thread) { return fsup::pt_cancel(AsThread(thread)); }
int fsup_setintr(int enabled) { return fsup::pt_setintr(enabled != 0); }
int fsup_setintrtype(int asynchronous) { return fsup::pt_setintrtype(asynchronous != 0); }
void fsup_testintr(void) { fsup::pt_testintr(); }

int fsup_delay_ns(int64_t duration_ns) { return fsup::pt_delay(duration_ns); }

void fsup_metrics_enable(int on) { fsup::pt_metrics_enable(on != 0); }
int fsup_metrics_dump(int fd) { return fsup::pt_metrics_dump(fd); }
int fsup_trace_dump(const char* path) { return fsup::pt_trace_dump(path); }
void fsup_trace_user(uint32_t a, uint32_t b) { fsup::pt_trace_user(a, b); }

int fsup_profile_start(int hz) { return fsup::pt_profile_start(hz); }

int fsup_profile_stop(void) { return fsup::pt_profile_stop(); }

int fsup_profile_active(void) { return fsup::pt_profile_active() ? 1 : 0; }

int fsup_profile_dump(const char* path) { return fsup::pt_profile_dump(path); }

uint64_t fsup_profile_samples(void) { return fsup::pt_profile_samples(); }

void fsup_replay_record_start(void) {
  fsup::pt_init();
  fsup::debug::replay::StartRecording();
}

int fsup_replay_record_save(const char* path) {
  fsup::debug::replay::StopRecording();
  return fsup::debug::replay::SaveLog(path);
}

int fsup_replay_start(const char* path) {
  fsup::pt_init();
  return fsup::debug::replay::StartReplay(path);
}

size_t fsup_replay_stop(void) { return fsup::debug::replay::StopReplay(); }

uint64_t fsup_replay_decisions(void) { return fsup::debug::replay::DecisionCount(); }

}  // extern "C"
