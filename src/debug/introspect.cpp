#include "src/debug/introspect.hpp"

#include "src/debug/obs.hpp"
#include "src/io/io.hpp"
#include "src/kernel/kernel.hpp"
#include "src/kernel/stack_pool.hpp"
#include "src/sync/cond.hpp"
#include "src/sync/mutex.hpp"
#include "src/util/log.hpp"

namespace fsup::debug {

void DumpThreads(uint32_t max_threads) {
  KernelState& k = kernel::ks();
  if (!k.initialized) {
    log::RawWriteCstr("fsup: runtime not initialized\n");
    return;
  }
  log::RawWriteCstr("fsup threads:\n");
  uint32_t shown = 0;
  for (Tcb* t : k.all_threads) {
    if (max_threads != 0 && shown >= max_threads) {
      break;  // the cap makes the dump O(max_threads), not O(live)
    }
    ++shown;
    log::RawWriteCstr("  #");
    log::RawWriteInt(t->id);
    log::RawWriteCstr(" ");
    log::RawWriteCstr(t->name[0] != '\0' ? t->name : "-");
    log::RawWriteCstr(t == k.current ? " [current] " : " ");
    log::RawWriteCstr(ToString(t->state));
    if (t->state == ThreadState::kBlocked) {
      log::RawWriteCstr("/");
      log::RawWriteCstr(ToString(t->block_reason));
      if (t->block_reason == BlockReason::kMutex && t->waiting_on_mutex != nullptr) {
        log::RawWriteCstr(" mutex#");
        log::RawWriteInt(t->waiting_on_mutex->tag);
        // The owner word is authoritative even when the holder acquired on the fast path and
        // the kernel never saw the lock: print the edge the wait-for graph would follow.
        if (Tcb* owner = t->waiting_on_mutex->holder(); owner != nullptr) {
          log::RawWriteCstr(" owner=#");
          log::RawWriteInt(owner->id);
        }
        if (t->cond_requeued) {
          log::RawWriteCstr(" (requeued)");  // parked here by a broadcast, still in CondWait
        }
      } else if (t->block_reason == BlockReason::kCond && t->waiting_on_cond != nullptr) {
        log::RawWriteCstr(" cond#");
        log::RawWriteInt(t->waiting_on_cond->tag);
      }
    }
    log::RawWriteCstr(" prio=");
    log::RawWriteInt(t->prio);
    if (t->prio != t->base_prio) {
      log::RawWriteCstr(" (base=");
      log::RawWriteInt(t->base_prio);
      log::RawWriteCstr(")");
    }
    log::RawWriteCstr(" switches=");
    log::RawWriteInt(static_cast<int64_t>(t->switches_in));
    log::RawWriteCstr(" sig=");
    log::RawWriteInt(static_cast<int64_t>(t->signals_taken));
    if (t->metrics.stack_commits != 0) {
      log::RawWriteCstr(" commits=");
      log::RawWriteInt(static_cast<int64_t>(t->metrics.stack_commits));
    }
    if (obs::On(obs::kMetrics)) {
      const TcbMetrics& m = t->metrics;
      log::RawWriteCstr(" vol=");
      log::RawWriteInt(static_cast<int64_t>(m.voluntary));
      log::RawWriteCstr(" pre=");
      log::RawWriteInt(static_cast<int64_t>(m.preempted));
      log::RawWriteCstr(" mblk=");
      log::RawWriteInt(static_cast<int64_t>(m.mutex_blocks));
      log::RawWriteCstr(" fake=");
      log::RawWriteInt(static_cast<int64_t>(m.fake_calls));
      log::RawWriteCstr(" run_us=");
      log::RawWriteInt(m.running_ns / 1000);
      log::RawWriteCstr(" ready_us=");
      log::RawWriteInt(m.ready_ns / 1000);
      log::RawWriteCstr(" blk_us=");
      log::RawWriteInt(m.blocked_ns / 1000);
    }
    log::RawWriteCstr("\n");
  }
  if (k.live_threads > shown) {
    log::RawWriteCstr("  ... and ");
    log::RawWriteInt(static_cast<int64_t>(k.live_threads - shown));
    log::RawWriteCstr(" more threads\n");
  }
  log::RawWriteCstr("  ready=");
  log::RawWriteInt(static_cast<int64_t>(k.ready.size()));
  log::RawWriteCstr(" ctx_switches=");
  log::RawWriteInt(static_cast<int64_t>(k.ctx_switches));
  log::RawWriteCstr(" dispatches=");
  log::RawWriteInt(static_cast<int64_t>(k.dispatches));
  log::RawWriteCstr(" preemptions=");
  log::RawWriteInt(static_cast<int64_t>(k.preemptions));
  log::RawWriteCstr(" deferred_signals=");
  log::RawWriteInt(static_cast<int64_t>(k.deferred_signals));
  log::RawWriteCstr("\n");
  if (k.pool != nullptr) {
    const StackPool& pool = *k.pool;
    log::RawWriteCstr("  pool mapped_kb=");
    log::RawWriteInt(static_cast<int64_t>(pool.mapped_bytes() / 1024));
    log::RawWriteCstr(" hw_kb=");
    log::RawWriteInt(static_cast<int64_t>(pool.mapped_hw_bytes() / 1024));
    log::RawWriteCstr(" free=");
    log::RawWriteInt(static_cast<int64_t>(pool.pooled_stacks()));
    log::RawWriteCstr(" reuses=");
    log::RawWriteInt(static_cast<int64_t>(pool.stack_reuses()));
    log::RawWriteCstr(" maps=");
    log::RawWriteInt(static_cast<int64_t>(pool.stack_maps()));
    log::RawWriteCstr(" lazy_commits=");
    log::RawWriteInt(static_cast<int64_t>(pool.lazy_commits()));
    log::RawWriteCstr("\n");
  }
  const io::IoStats ios = io::GetStats();
  log::RawWriteCstr("  io[");
  log::RawWriteCstr(ios.epoll_backend ? "epoll" : "poll");
  log::RawWriteCstr("] waits=");
  log::RawWriteInt(static_cast<int64_t>(ios.waits));
  log::RawWriteCstr(" wakeups=");
  log::RawWriteInt(static_cast<int64_t>(ios.wakeups));
  log::RawWriteCstr(" cache_hits=");
  log::RawWriteInt(static_cast<int64_t>(ios.cache_hits));
  log::RawWriteCstr(" cache_misses=");
  log::RawWriteInt(static_cast<int64_t>(ios.cache_misses));
  log::RawWriteCstr(" active_waiters=");
  log::RawWriteInt(ios.active_waiters);
  log::RawWriteCstr(" cached_fds=");
  log::RawWriteInt(ios.cached_fds);
  log::RawWriteCstr("\n");
}

}  // namespace fsup::debug
