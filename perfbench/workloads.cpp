#include "perfbench/workloads.hpp"

#include <alloca.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace perfbench {

bool g_plant = false;

namespace {

bool g_planted = false;

// Plants the self-test's single fault on the first eligible op of the timed window.
bool PlantNow() {
  if (g_plant && !g_planted && g_log.recording) {
    g_planted = true;
    return true;
  }
  return false;
}

// Fixed proportions in a seeded order: the share of each kind is the same for every seed, so
// percentiles of a multi-modal latency mix do not jump between modes from seed to seed.
template <typename T>
void Shuffle(std::vector<T>* v, Rng* r) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[r->Below(static_cast<uint32_t>(i))]);
  }
}

// The per-stage busy work of a pipeline item; also the expected-output oracle.
uint64_t Churn(uint64_t v, uint32_t n) {
  for (uint32_t i = 0; i < n; ++i) {
    v ^= v >> 33;
    v = v * 0xff51afd7ed558ccdull + i;
  }
  return v;
}

template <typename Fn>
void ClientLoop(Gate& gate, Fn op) {
  uint64_t gen = 0;
  while (gate.Await(&gen)) {
    uint64_t done = 0;
    while (gate.More(done)) {
      done += op();
    }
    gate.Done();
  }
}

void InitMtx(Mtx* m) {
  pt_mutex_init(&m->m);
  m->unlock_tsc = 0;
}

void InitCv(Cv* cv) {
  pt_cond_init(&cv->c);
  cv->waiters = 0;
  cv->head = cv->tail = 0;
}

// ----- pipeline --------------------------------------------------------------------------
// Four bounded-buffer stages on pt_mutex/pt_cond, four threads per stage, buffers of two:
// puts and takes block. Sixteen clients keep up to sixteen items in flight: with eight, the
// latency distribution had two modes and its median fell between them. One op is one item,
// timed from inject to drain.

constexpr int kStages = 4;
constexpr int kPerStage = 4;
constexpr int kCap = 2;
constexpr int kPipeClients = 16;
constexpr int kPipeInputs = 4096;

class Pipeline final : public Workload {
 public:
  void Generate(uint64_t seed) override {
    Rng r{seed};
    for (auto& table : inputs_) {
      table.resize(kPipeInputs);
      for (Input& in : table) {
        in.value = r.Next();
        uint64_t v = in.value;
        for (uint32_t& w : in.work) {
          // Short next to a stage's sync and dispatch work, which dominates the op; with
          // 20-199 rounds the p50 of ten seeds spread twice as wide.
          w = r.Below(100);
          v = Churn(v, w);
        }
        in.expected = v;
      }
    }
  }

  void Setup() override {
    quit_ = false;
    injected_ = drained_ = injected_sum_ = drained_sum_ = 0;
    for (Mtx& m : emit_) {
      InitMtx(&m);
    }
    for (Buffer& b : buf_) {
      InitMtx(&b.m);
      InitCv(&b.not_empty);
      InitCv(&b.not_full);
      b.head = b.count = 0;
    }
    gate.Init(kPipeClients);
    for (int i = 0; i < kStages * kPerStage; ++i) {
      Worker& w = workers_[i];
      w = Worker{};
      w.p = this;
      w.stage = i / kPerStage;
      w.ctx.index = static_cast<uint16_t>(kPipeClients + i);
      Must(pt_create(&w.th, nullptr, &WorkerMain, &w), "pt_create");
    }
    for (int i = 0; i < kPipeClients; ++i) {
      Client& c = clients_[i];
      InitMtx(&c.m);
      InitCv(&c.cv);
      c.done = false;
      c.index = i;
      c.ctx = ThreadCtx{};
      c.ctx.index = static_cast<uint16_t>(i);
      c.p = this;
      Must(pt_create(&c.th, nullptr, &ClientMain, &c), "pt_create");
    }
  }

  void Teardown() override {
    gate.Quit();
    for (Client& c : clients_) {
      pt_join(c.th, nullptr);
    }
    quit_ = true;
    for (Buffer& b : buf_) {
      pt_mutex_lock(&b.m.m);
      pt_cond_broadcast(&b.not_empty.c);
      pt_mutex_unlock(&b.m.m);
    }
    for (Worker& w : workers_) {
      pt_join(w.th, nullptr);
    }
  }

  std::vector<std::pair<std::string, bool>> Checks() override {
    return {{"item_count", drained_ == injected_}, {"checksum", drained_sum_ == injected_sum_}};
  }

  uint64_t WarmupOps() const override { return 4000; }
  int Clients() const override { return kPipeClients; }

 private:
  struct Input {
    uint64_t value;
    uint32_t work[kStages];
    uint64_t expected;
  };
  struct Item {
    uint32_t op;
    int client;
    uint64_t value;
    bool delivered;
    const Input* in;
  };
  struct Buffer {
    Mtx m;
    Cv not_empty, not_full;
    Item* slot[kCap];
    int head, count;
  };
  struct Client {
    Mtx m;
    Cv cv;
    bool done;
    int index;
    size_t next = 0;
    Item item;
    ThreadCtx ctx;
    pt_thread_t th;
    Pipeline* p;
  };
  struct Worker {
    int stage = 0;
    ThreadCtx ctx;
    pt_thread_t th = nullptr;
    Pipeline* p = nullptr;
  };

  static void* WorkerMain(void* arg) {
    Worker& w = *static_cast<Worker*>(arg);
    Pipeline& p = *w.p;
    while (Item* it = p.Take(w.ctx, p.buf_[w.stage])) {
      {
        WorkSpan span(w.ctx, it->op);
        it->value = Churn(it->value, it->in->work[w.stage]);
      }
      if (w.stage + 1 < kStages) {
        // Emits of one stage are serialized; a full next buffer blocks the emitter while it
        // holds the emit lock, so the stage's other workers queue on a contended mutex.
        Mtx& emit = p.emit_[w.stage];
        Lock(w.ctx, emit, it->op);
        p.Put(w.ctx, p.buf_[w.stage + 1], it);
        Unlock(w.ctx, emit, it->op);
      } else {
        p.Deliver(w.ctx, it);
      }
    }
    return nullptr;
  }

  static void* ClientMain(void* arg) {
    Client& c = *static_cast<Client*>(arg);
    ClientLoop(c.p->gate, [&c] { return c.p->Inject(c); });
    return nullptr;
  }

  uint64_t Inject(Client& c) {
    const Input& in = inputs_[c.index][c.next++ % kPipeInputs];
    Item& it = c.item;
    it = Item{NewOp(), c.index, in.value, false, &in};
    const uint64_t start = Tsc();
    Put(c.ctx, buf_[0], &it);
    Lock(c.ctx, c.m, it.op);
    while (!c.done) {
      CondWait(c.ctx, c.cv, c.m, it.op);
    }
    c.done = false;
    Unlock(c.ctx, c.m, it.op);
    const uint64_t end = Tsc();
    ++injected_;
    injected_sum_ += in.expected;
    Complete(it.op, start, end, it.delivered && it.value == in.expected);
    return 1;
  }

  void Put(ThreadCtx& c, Buffer& b, Item* it) {
    Lock(c, b.m, it->op);
    while (b.count == kCap) {
      CondWait(c, b.not_full, b.m, it->op);
    }
    b.slot[(b.head + b.count++) % kCap] = it;
    CondSignal(c, b.not_empty, it->op);
    Unlock(c, b.m, it->op);
  }

  // The spans before the item is known get its op id once it is popped.
  Item* Take(ThreadCtx& c, Buffer& b) {
    Lock(c, b.m, kPendingOp);
    while (b.count == 0 && !quit_) {
      CondWait(c, b.not_empty, b.m, kPendingOp);
    }
    if (b.count == 0) {
      pt_mutex_unlock(&b.m.m);
      AssignPending(c, 0);
      return nullptr;
    }
    Item* it = b.slot[b.head];
    b.head = (b.head + 1) % kCap;
    const bool was_full = b.count-- == kCap;
    AssignPending(c, it->op);
    if (was_full) {
      CondBroadcast(c, b.not_full, it->op);  // every blocked putter re-checks: requeue path
    }
    Unlock(c, b.m, it->op);
    return it;
  }

  void Deliver(ThreadCtx& c, Item* it) {
    Client& cl = clients_[it->client];
    it->delivered = !PlantNow();  // self-test: the item is dropped before the drain
    if (it->delivered) {
      ++drained_;
      drained_sum_ += it->value;
    }
    Lock(c, cl.m, it->op);
    cl.done = true;
    CondSignal(c, cl.cv, it->op);
    Unlock(c, cl.m, it->op);
  }

  std::vector<Input> inputs_[kPipeClients];
  Buffer buf_[kStages];
  Mtx emit_[kStages];
  Client clients_[kPipeClients];
  Worker workers_[kStages * kPerStage];
  bool quit_ = false;
  uint64_t injected_ = 0, drained_ = 0, injected_sum_ = 0, drained_sum_ = 0;
};

// ----- echo ------------------------------------------------------------------------------
// Four clients, each owning one AF_UNIX stream socketpair to its own server thread. Requests
// are mostly 64 B, some 4 KiB, and carry a checksum; servers pt_read, transform, pt_write.
// One op is one request, timed from send to verified reply.

constexpr int kEchoPairs = 4;
constexpr int kEchoInputs = 1024;
constexpr size_t kPoolBytes = 8192;
constexpr size_t kMaxPayload = 4096;

struct MsgHeader {
  uint32_t op;
  uint32_t len;
  uint64_t sum;
};
constexpr size_t kHdr = sizeof(MsgHeader);

uint64_t Checksum(const uint8_t* p, size_t n) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * 0x100000001b3ull;
  }
  return h;
}

// The server's transform: the payload reversed, every byte xor 0x5a.
void Transform(const uint8_t* in, uint8_t* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = in[n - 1 - i] ^ 0x5a;
  }
}

class Echo final : public Workload {
 public:
  void Generate(uint64_t seed) override {
    Rng r{seed};
    for (Client& c : clients_) {
      c.pool.resize(kPoolBytes);
      for (uint8_t& b : c.pool) {
        b = static_cast<uint8_t>(r.Next());
      }
      c.reqs.resize(kEchoInputs);
      for (size_t i = 0; i < c.reqs.size(); ++i) {
        Req& q = c.reqs[i];
        q.len = i % 8 == 0 ? 4096 : 64;  // one request in eight is large
        q.offset = r.Below(static_cast<uint32_t>(kPoolBytes - q.len + 1));
      }
      Shuffle(&c.reqs, &r);
    }
  }

  void Setup() override {
    gate.Init(kEchoPairs);
    for (int i = 0; i < kEchoPairs; ++i) {
      int sv[2];
      Must(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) == 0 ? 0 : errno, "socketpair");
      Client& c = clients_[i];
      Server& s = servers_[i];
      c.fd = sv[0];
      s.fd = sv[1];
      c.ctx = ThreadCtx{};
      c.ctx.index = static_cast<uint16_t>(i);
      s.ctx = ThreadCtx{};
      s.ctx.index = static_cast<uint16_t>(kEchoPairs + i);
      c.p = this;
      s.bad_requests = 0;
      Must(pt_create(&s.th, nullptr, &ServerMain, &s), "pt_create");
      Must(pt_create(&c.th, nullptr, &ClientMain, &c), "pt_create");
    }
  }

  void Teardown() override {
    gate.Quit();
    for (Client& c : clients_) {
      pt_join(c.th, nullptr);
      ::close(c.fd);  // the server reads EOF and exits
    }
    for (Server& s : servers_) {
      pt_join(s.th, nullptr);
      ::close(s.fd);
      bad_requests_ += s.bad_requests;
    }
  }

  std::vector<std::pair<std::string, bool>> Checks() override {
    return {{"requests_intact", bad_requests_ == 0}};
  }

  uint64_t WarmupOps() const override { return 4000; }
  int Clients() const override { return kEchoPairs; }

 private:
  struct Req {
    uint32_t len;
    uint32_t offset;
  };
  struct Client {
    std::vector<uint8_t> pool;
    std::vector<Req> reqs;
    size_t next = 0;
    int fd = -1;
    ThreadCtx ctx;
    pt_thread_t th = nullptr;
    Echo* p = nullptr;
    uint8_t out[kHdr + kMaxPayload];
    uint8_t in[kHdr + kMaxPayload];
  };
  struct Server {
    int fd = -1;
    ThreadCtx ctx;
    pt_thread_t th = nullptr;
    uint64_t bad_requests = 0;
    uint8_t in[kHdr + kMaxPayload];
    uint8_t out[kHdr + kMaxPayload];
  };

  // Reads one whole message; false on EOF or error. The header's op id names the spans
  // that were made before it arrived.
  static bool ReadMsg(ThreadCtx& c, int fd, uint8_t* buf, uint32_t op) {
    size_t got = 0;
    size_t want = kHdr;
    while (got < want) {
      const long n = Read(c, fd, buf + got, kHdr + kMaxPayload - got, op);
      if (n <= 0) {
        return false;
      }
      got += static_cast<size_t>(n);
      if (got >= kHdr) {
        MsgHeader h;
        std::memcpy(&h, buf, kHdr);
        if (h.len > kMaxPayload) {
          return false;
        }
        want = kHdr + h.len;
      }
    }
    return got == want;
  }

  static bool WriteAll(ThreadCtx& c, int fd, const uint8_t* buf, size_t n, uint32_t op) {
    for (size_t done = 0; done < n;) {
      const long w = Write(c, fd, buf + done, n - done, op);
      if (w <= 0) {
        return false;
      }
      done += static_cast<size_t>(w);
    }
    return true;
  }

  static void* ServerMain(void* arg) {
    Server& s = *static_cast<Server*>(arg);
    while (ReadMsg(s.ctx, s.fd, s.in, kPendingOp)) {
      MsgHeader h;
      std::memcpy(&h, s.in, kHdr);
      AssignPending(s.ctx, h.op);
      {
        WorkSpan span(s.ctx, h.op);
        if (Checksum(s.in + kHdr, h.len) != h.sum) {
          ++s.bad_requests;
        }
        Transform(s.in + kHdr, s.out + kHdr, h.len);
        h.sum = Checksum(s.out + kHdr, h.len);
        std::memcpy(s.out, &h, kHdr);
        if (PlantNow()) {
          s.out[kHdr] ^= 1;  // self-test: one corrupted reply byte
        }
      }
      if (!WriteAll(s.ctx, s.fd, s.out, kHdr + h.len, h.op)) {
        break;
      }
    }
    return nullptr;
  }

  static void* ClientMain(void* arg) {
    Client& c = *static_cast<Client*>(arg);
    ClientLoop(c.p->gate, [&c] { return Request(c); });
    return nullptr;
  }

  static uint64_t Request(Client& c) {
    const Req& q = c.reqs[c.next++ % kEchoInputs];
    const uint8_t* payload = c.pool.data() + q.offset;
    const uint32_t op = NewOp();
    const MsgHeader h{op, q.len, Checksum(payload, q.len)};
    std::memcpy(c.out, &h, kHdr);
    std::memcpy(c.out + kHdr, payload, q.len);
    const uint64_t start = Tsc();
    bool ok = WriteAll(c.ctx, c.fd, c.out, kHdr + q.len, op) && ReadMsg(c.ctx, c.fd, c.in, op);
    {
      WorkSpan span(c.ctx, op);
      MsgHeader r;
      std::memcpy(&r, c.in, kHdr);
      ok = ok && r.op == op && r.len == q.len && r.sum == Checksum(c.in + kHdr, q.len);
      for (uint32_t i = 0; ok && i < q.len; ++i) {
        ok = c.in[kHdr + i] == (payload[q.len - 1 - i] ^ 0x5a);
      }
    }
    Complete(op, start, Tsc(), ok);
    return 1;
  }

  Client clients_[kEchoPairs];
  Server servers_[kEchoPairs];
  uint64_t bad_requests_ = 0;
};

// ----- spawn -----------------------------------------------------------------------------
// A spawner thread runs fork-join batches of short-lived threads with a seeded batch size and
// stack mix over five stack_pool size classes. Each task sets a TSD value with a destructor,
// pushes and pops a cleanup handler, does uncontended lock/unlock pairs on a shared mutex
// and touches part of its stack. One op is one task, from pt_create to pt_join's return.

constexpr int kMaxBatch = 16;
constexpr int kSpawnInputs = 4096;
constexpr uint32_t kStackClasses[] = {16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10};

class Spawn final : public Workload {
 public:
  void Generate(uint64_t seed) override {
    Rng r{seed};
    batches_.resize(kSpawnInputs);
    for (uint32_t& b : batches_) {
      b = 1 + r.Below(kMaxBatch);
    }
    tasks_.resize(kSpawnInputs);
    for (Task& t : tasks_) {
      t.stack = kStackClasses[r.Below(5)];
      t.touch = t.stack >> (2 + r.Below(3));  // a quarter to a sixteenth of the stack
      t.pairs = 1 + r.Below(16);
      t.arg = r.Next();
      t.expected = Mix(t.arg) + 1;
    }
  }

  void Setup() override {
    counter_ = expected_counter_ = 0;
    InitMtx(&shared_);
    Must(pt_key_create(&key_, &OnDestroy), "pt_key_create");
    gate.Init(1);
    ctx_ = ThreadCtx{};
    Must(pt_create(&spawner_, nullptr, &SpawnerMain, this), "pt_create");
  }

  void Teardown() override {
    gate.Quit();
    pt_join(spawner_, nullptr);
    pt_key_delete(key_);
  }

  std::vector<std::pair<std::string, bool>> Checks() override {
    return {{"shared_counter", counter_ == expected_counter_}};
  }

  // Long enough that a set-up round is mostly steady-state tasks: with 2000, a round took
  // ~4 ms, mostly first-touch stack mapping, and setup_s swung by a quarter between batches.
  uint64_t WarmupOps() const override { return 16000; }
  int Clients() const override { return 1; }

 private:
  struct Task {
    uint32_t stack, touch, pairs;
    uint64_t arg, expected;
  };
  struct Slot {
    const Task* in;
    uint32_t op;
    uint64_t start, exit_tsc;
    int cleanups, dtors;
    ThreadCtx ctx;
    Spawn* p;
    pt_thread_t th;
  };

  static uint64_t Mix(uint64_t v) {
    v ^= v >> 31;
    v *= 0x7fb5d329728ea185ull;
    return v ^ (v >> 27);
  }

  static void OnDestroy(void* v) { ++static_cast<Slot*>(v)->dtors; }
  static void OnCleanup(void* v) { ++static_cast<Slot*>(v)->cleanups; }

  static void* TaskMain(void* arg) {
    Slot& s = *static_cast<Slot*>(arg);
    Spawn& p = *s.p;
    SetSpecific(s.ctx, p.key_, &s, s.op);
    CleanupPush(s.ctx, &OnCleanup, &s, s.op);
    CleanupPop(s.ctx, true, s.op);
    for (uint32_t i = 0; i < s.in->pairs; ++i) {
      Lock(s.ctx, p.shared_, s.op);
      ++p.counter_;
      Unlock(s.ctx, p.shared_, s.op);
    }
    uint64_t value;
    {
      WorkSpan span(s.ctx, s.op);
      auto* stack = static_cast<uint8_t*>(alloca(s.in->touch));
      std::memset(stack, 1, s.in->touch);
      asm volatile("" : : "r"(stack) : "memory");
      value = Mix(s.in->arg) + stack[s.in->touch - 1];
    }
    s.exit_tsc = Tsc();
    return reinterpret_cast<void*>(value);
  }

  static void* SpawnerMain(void* arg) {
    Spawn& p = *static_cast<Spawn*>(arg);
    ClientLoop(p.gate, [&p] { return p.Batch(); });
    return nullptr;
  }

  uint64_t Batch() {
    const uint32_t n = batches_[next_batch_++ % kSpawnInputs];
    for (uint32_t i = 0; i < n; ++i) {
      Slot& s = slots_[i];
      s = Slot{&tasks_[next_task_++ % kSpawnInputs], NewOp(), 0, 0, 0, 0, ThreadCtx{}, this,
               nullptr};
      s.ctx.index = static_cast<uint16_t>(1 + i);
      ThreadAttr attr;
      attr.stack_size = s.in->stack;
      s.start = Tsc();
      if (Create(ctx_, &s.th, &attr, &TaskMain, &s, s.op) != 0) {
        s.th = nullptr;
      }
    }
    for (uint32_t i = 0; i < n; ++i) {
      Slot& s = slots_[i];
      void* ret = nullptr;
      const bool joined = s.th != nullptr && Join(ctx_, s.th, &ret, s.op) == 0;
      const uint64_t end = Tsc();
      if (joined) {
        expected_counter_ += s.in->pairs;
        if (g_trace.on) {
          g_trace.exit_to_join.Add(end - s.exit_tsc);
        }
      }
      const bool ok = joined && reinterpret_cast<uint64_t>(ret) == s.in->expected &&
                      s.cleanups == 1 && s.dtors == 1;
      Complete(s.op, s.start, end, ok);
    }
    return n;
  }

  std::vector<uint32_t> batches_;
  std::vector<Task> tasks_;
  size_t next_batch_ = 0, next_task_ = 0;
  Slot slots_[kMaxBatch];
  Mtx shared_;
  pt_key_t key_ = 0;
  uint64_t counter_ = 0, expected_counter_ = 0;
  ThreadCtx ctx_;
  pt_thread_t spawner_ = nullptr;
};

// ----- signals ---------------------------------------------------------------------------
// A seeded mix of the paper's Ada-runtime events, one at a time from one sender thread. One op is
// one event, from send to observed:
//   external: kill(getpid()) caught by a pt_sigaction handler on the sender;
//   sigwait:  kill(getpid()) of a signal a pt_sigwait thread takes;
//   internal: pt_kill at a worker blocked in pt_cond_wait, which returns EINTR through the
//             fake call with its mutex re-held;
//   timed:    a pt_cond_timedwait satisfied before its deadline (arms and cancels a timer).

enum Event : uint8_t { kExternal, kSigwaitEv, kInternal, kTimed, kEventKinds };
constexpr int kSignalInputs = 8000;
constexpr int kExternalSig = SIGUSR1;
constexpr int kSigwaitSig = SIGUSR2;
constexpr int kInternalSig = SIGWINCH;
constexpr int64_t kTimedwaitNs = 1000000000;

volatile uint64_t g_ext_count = 0, g_ext_tsc = 0;
volatile uint64_t g_int_count = 0;
void OnExternal(int) {
  g_ext_tsc = Tsc();
  g_ext_count = g_ext_count + 1;
}
void OnInternal(int) { g_int_count = g_int_count + 1; }

class Signals final : public Workload {
 public:
  void Generate(uint64_t seed) override {
    Rng r{seed};
    // 40% external, 20% each of the others: the median falls inside the external mode.
    static constexpr uint8_t kMix[] = {kExternal, kExternal, kSigwaitEv, kInternal, kTimed};
    events_.resize(kSignalInputs);
    for (size_t i = 0; i < events_.size(); ++i) {
      events_[i] = kMix[i % 5];
    }
    Shuffle(&events_, &r);
  }

  void Setup() override {
    g_ext_count = 0;
    g_int_count = 0;
    for (uint64_t& n : sent_) {
      n = 0;
    }
    sw_count_ = w_eintr_ = t_count_ = 0;
    quit_ = sw_done_ = w_waiting_ = w_done_ = t_waiting_ = t_go_ = t_done_ = false;
    unheld_ = late_ = 0;
    for (Mtx* m : {&sm_, &wm_, &tm_}) {
      InitMtx(m);
    }
    for (Cv* cv : {&s_ack_, &w_cv_, &w_ack_, &t_cv_, &t_ack_}) {
      InitCv(cv);
    }
    // Threads inherit the creator's mask: only the sender takes the external signal, and the
    // sigwait signal stays blocked everywhere so the delivery model hands it to pt_sigwait.
    Must(pt_sigmask(SigMaskHow::kBlock, SigBit(kExternalSig) | SigBit(kSigwaitSig), nullptr),
         "pt_sigmask");
    Must(pt_sigaction(kExternalSig, &OnExternal, 0), "pt_sigaction");
    Must(pt_sigaction(kInternalSig, &OnInternal, 0), "pt_sigaction");
    gate.Init(1);
    for (int i = 0; i < 4; ++i) {
      ctx_[i] = ThreadCtx{};
      ctx_[i].index = static_cast<uint16_t>(i);
    }
    Must(pt_create(&sigwaiter_, nullptr, &SigwaiterMain, this), "pt_create");
    Must(pt_create(&worker_, nullptr, &WorkerMain, this), "pt_create");
    Must(pt_create(&timed_, nullptr, &TimedMain, this), "pt_create");
    Must(pt_create(&sender_, nullptr, &SenderMain, this), "pt_create");
  }

  void Teardown() override {
    gate.Quit();
    pt_join(sender_, nullptr);
    quit_ = true;
    pt_mutex_lock(&wm_.m);
    pt_cond_signal(&w_cv_.c);
    pt_mutex_unlock(&wm_.m);
    pt_mutex_lock(&tm_.m);
    pt_cond_signal(&t_cv_.c);
    pt_mutex_unlock(&tm_.m);
    ::kill(::getpid(), kSigwaitSig);
    for (pt_thread_t t : {worker_, timed_, sigwaiter_}) {
      pt_join(t, nullptr);
    }
    pt_sigaction(kExternalSig, nullptr, 0);
    pt_sigaction(kInternalSig, nullptr, 0);
  }

  std::vector<std::pair<std::string, bool>> Checks() override {
    return {{"external_once", g_ext_count == sent_[kExternal]},
            {"sigwait_once", sw_count_ == sent_[kSigwaitEv]},
            {"internal_once", g_int_count == sent_[kInternal] && w_eintr_ == sent_[kInternal]},
            {"eintr_mutex_held", unheld_ == 0},
            {"timedwait_once", t_count_ == sent_[kTimed] && late_ == 0}};
  }

  uint64_t WarmupOps() const override { return 2000; }
  int Clients() const override { return 1; }

 private:
  static void* SenderMain(void* arg) {
    Signals& p = *static_cast<Signals*>(arg);
    pt_sigmask(SigMaskHow::kUnblock, SigBit(kExternalSig), nullptr);
    ClientLoop(p.gate, [&p] { return p.Send(); });
    return nullptr;
  }

  uint64_t Send() {
    ThreadCtx& c = ctx_[0];
    const auto kind = static_cast<Event>(events_[next_++ % kSignalInputs]);
    const uint32_t op = NewOp();
    cur_op_ = op;
    ++sent_[kind];
    bool ok = false;
    uint64_t start = 0;
    switch (kind) {
      case kExternal: {
        const uint64_t before = g_ext_count;
        start = Tsc();
        KillSelf(c, kExternalSig, op);
        for (int spins = 0; g_ext_count == before && spins < 1000; ++spins) {
          pt_yield();
        }
        ok = g_ext_count == before + 1;
        if (g_trace.on && ok) {
          g_trace.external.Add(g_ext_tsc - start);
        }
        break;
      }
      case kSigwaitEv: {
        const uint64_t before = sw_count_;
        Lock(c, sm_, op);
        sw_done_ = false;
        start = Tsc();
        KillSelf(c, kSigwaitSig, op);
        while (!sw_done_) {
          CondWait(c, s_ack_, sm_, op);
        }
        Unlock(c, sm_, op);
        ok = sw_count_ == before + 1 && sw_signo_ == kSigwaitSig;
        if (g_trace.on) {
          g_trace.sigwait.Add(sw_tsc_ - start);
        }
        break;
      }
      case kInternal: {
        const uint64_t before = w_eintr_;
        Lock(c, wm_, op);
        while (!w_waiting_) {
          CondWait(c, w_ack_, wm_, op);
        }
        w_waiting_ = w_done_ = false;
        start = Tsc();
        PtKill(c, worker_, kInternalSig, op);
        while (!w_done_) {
          CondWait(c, w_ack_, wm_, op);
        }
        Unlock(c, wm_, op);
        ok = w_eintr_ == before + 1 && g_int_count == w_eintr_;
        if (g_trace.on) {
          g_trace.internal.Add(w_tsc_ - start);
        }
        break;
      }
      default: {
        const uint64_t before = t_count_;
        Lock(c, tm_, op);
        while (!t_waiting_) {
          CondWait(c, t_ack_, tm_, op);
        }
        t_waiting_ = t_done_ = false;
        t_go_ = true;
        start = Tsc();
        CondSignal(c, t_cv_, op);
        while (!t_done_) {
          CondWait(c, t_ack_, tm_, op);
        }
        Unlock(c, tm_, op);
        ok = t_count_ == before + 1;
        if (g_trace.on) {
          g_trace.timedwait.Add(t_tsc_ - start);
        }
        break;
      }
    }
    Complete(op, start, Tsc(), ok);
    return 1;
  }

  static void* SigwaiterMain(void* arg) {
    Signals& p = *static_cast<Signals*>(arg);
    ThreadCtx& c = p.ctx_[1];
    for (;;) {
      int signo = 0;
      Sigwait(c, SigBit(kSigwaitSig), &signo, kPendingOp);
      const uint64_t now = Tsc();
      if (p.quit_) {
        break;
      }
      AssignPending(c, p.cur_op_);
      Lock(c, p.sm_, p.cur_op_);
      p.sw_tsc_ = now;
      p.sw_signo_ = signo;
      ++p.sw_count_;
      p.sw_done_ = true;
      CondSignal(c, p.s_ack_, p.cur_op_);
      Unlock(c, p.sm_, p.cur_op_);
    }
    return nullptr;
  }

  static void* WorkerMain(void* arg) {
    Signals& p = *static_cast<Signals*>(arg);
    ThreadCtx& c = p.ctx_[2];
    pt_mutex_lock(&p.wm_.m);
    while (!p.quit_) {
      p.w_waiting_ = true;
      CondSignal(c, p.w_ack_, p.cur_op_);
      const int rc = CondWait(c, p.w_cv_, p.wm_, kPendingOp);
      AssignPending(c, p.cur_op_);
      if (rc == EINTR) {
        p.w_tsc_ = Tsc();
        p.unheld_ += p.wm_.m.holder() == pt_self() ? 0 : 1;
        ++p.w_eintr_;
        p.w_done_ = true;
        CondSignal(c, p.w_ack_, p.cur_op_);
      }
    }
    pt_mutex_unlock(&p.wm_.m);
    return nullptr;
  }

  static void* TimedMain(void* arg) {
    Signals& p = *static_cast<Signals*>(arg);
    ThreadCtx& c = p.ctx_[3];
    pt_mutex_lock(&p.tm_.m);
    while (!p.quit_) {
      p.t_waiting_ = true;
      CondSignal(c, p.t_ack_, p.cur_op_);
      while (!p.t_go_ && !p.quit_) {
        const int rc = CondTimedwait(c, p.t_cv_, p.tm_, kTimedwaitNs, kPendingOp);
        AssignPending(c, p.cur_op_);
        p.late_ += rc == ETIMEDOUT && p.t_go_ ? 1 : 0;  // a sent wake that missed its deadline
      }
      if (p.t_go_) {
        p.t_tsc_ = Tsc();
        p.t_go_ = false;
        ++p.t_count_;
        p.t_done_ = true;
        CondSignal(c, p.t_ack_, p.cur_op_);
      }
    }
    pt_mutex_unlock(&p.tm_.m);
    return nullptr;
  }

  std::vector<uint8_t> events_;
  size_t next_ = 0;
  uint32_t cur_op_ = 0;
  uint64_t sent_[kEventKinds] = {};
  ThreadCtx ctx_[4];
  pt_thread_t sender_ = nullptr, sigwaiter_ = nullptr, worker_ = nullptr, timed_ = nullptr;
  bool quit_ = false;

  Mtx sm_;  // sigwait acknowledgement
  Cv s_ack_;
  bool sw_done_ = false;
  int sw_signo_ = 0;
  uint64_t sw_count_ = 0, sw_tsc_ = 0;

  Mtx wm_;  // internal-signal worker
  Cv w_cv_, w_ack_;
  bool w_waiting_ = false, w_done_ = false;
  uint64_t w_eintr_ = 0, w_tsc_ = 0, unheld_ = 0;

  Mtx tm_;  // timed waiter
  Cv t_cv_, t_ack_;
  bool t_waiting_ = false, t_go_ = false, t_done_ = false;
  uint64_t t_count_ = 0, t_tsc_ = 0, late_ = 0;
};

}  // namespace

void Gate::Init(int clients) {
  pt_mutex_init(&m_);
  pt_cond_init(&go_);
  pt_cond_init(&done_);
  gen_ = 0;
  clients_ = clients;
  active_ = 0;
  quit_ = false;
}

bool Gate::Await(uint64_t* gen) {
  pt_mutex_lock(&m_);
  while (*gen == gen_ && !quit_) {
    pt_cond_wait(&go_, &m_);
  }
  *gen = gen_;
  const bool run = !quit_;
  pt_mutex_unlock(&m_);
  return run;
}

void Gate::Done() {
  pt_mutex_lock(&m_);
  if (--active_ == 0) {
    pt_cond_signal(&done_);
  }
  pt_mutex_unlock(&m_);
}

void Gate::Run(uint64_t ops_per_client, uint64_t deadline_tsc) {
  pt_mutex_lock(&m_);
  op_limit_ = ops_per_client;
  deadline_ = deadline_tsc;
  active_ = clients_;
  ++gen_;
  pt_cond_broadcast(&go_);
  while (active_ > 0) {
    pt_cond_wait(&done_, &m_);
  }
  pt_mutex_unlock(&m_);
}

void Gate::Quit() {
  pt_mutex_lock(&m_);
  quit_ = true;
  pt_cond_broadcast(&go_);
  pt_mutex_unlock(&m_);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "pipeline") {
    return std::make_unique<Pipeline>();
  }
  if (name == "echo") {
    return std::make_unique<Echo>();
  }
  if (name == "spawn") {
    return std::make_unique<Spawn>();
  }
  if (name == "signals") {
    return std::make_unique<Signals>();
  }
  return nullptr;
}

}  // namespace perfbench
