#pragma once
// Work-stealing thread pool for binary fork-join computations.
//
// This is the multicore substrate of the paper (Section A.2): parallelism is
// expressed only through paired binary fork/join; scheduling is randomized
// work stealing in the style of Blumofe–Leiserson. Each worker owns a deque;
// forks push the second branch to the bottom, the first branch runs inline,
// and a join either pops the un-stolen branch back (the common fast path) or
// helps execute other tasks until the stolen branch completes.
//
// The pool is the Runtime's one shared arena: every concurrent caller of
// run() (a Runtime method on a client thread or a submitted job) claims
// its own external participation queue, and every worker steals from
// every queue, so concurrent pipelines' forks interleave freely across
// the whole pool — the model's composition of nested and concurrent forks.
//
// The deques are mutex-protected rather than lock-free Chase-Lev: this keeps
// the scheduler obviously correct, and the library's measured quantities
// (work/span/cache) come from the analytic executor, not wall-clock timing.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/obs.hpp"

namespace dopar::fj {

/// A forked-but-not-yet-joined task. Lives on the forker's stack: fork2
/// blocks until both branches complete, so the storage outlives all uses.
/// An exception thrown by the branch (e.g. the oblivious primitives'
/// negligible-probability BinOverflow, which callers catch and retry) is
/// captured here and rethrown at the join in the forker — it must not
/// unwind a worker's loop, which would std::terminate the process.
struct Task {
  void (*exec)(Task*) = nullptr;
  std::atomic<uint32_t>* pending = nullptr;
  std::exception_ptr error;

  void run() {
    try {
      exec(this);
    } catch (...) {
      error = std::current_exception();
    }
    pending->fetch_sub(1, std::memory_order_acq_rel);
  }
};

class Pool {
 public:
  /// Spawns `helpers` background worker threads plus `external_slots`
  /// participation queues for non-worker threads (each concurrent run()
  /// claims one for the call's duration).
  explicit Pool(unsigned helpers, unsigned external_slots = 1);
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Total participants of a whole-arena run: worker threads + the one
  /// external caller (the historical meaning; Runtime::threads()).
  unsigned workers() const { return n_workers_ + 1; }

  /// Execute `root` with the calling thread participating through a free
  /// external slot (the whole arena cooperates).
  /// All forks performed inside have joined by the time this returns,
  /// whether it returns normally or by exception (retryable overflow
  /// events from the oblivious primitives unwind through here). If every
  /// external slot is taken, `root` runs serially on the caller — a
  /// degraded but correct fallback.
  template <class Root>
  void run(Root&& root) {
    obs::Span span("pool.run");
    SlotGuard slot(*this);
    root();
  }

  /// Binary fork: runs `a` inline while exposing `b` for stealing, then
  /// joins. Must be called on a participating thread (a worker, or a
  /// caller inside run()); calls from foreign threads execute serially.
  template <class A, class B>
  void fork2(A&& a, B&& b) {
    if (tls_queue_id() < 0) {
      a();
      b();
      return;
    }
    using Bfn = std::remove_reference_t<B>;
    struct BranchTask : Task {
      Bfn* fn;
    };
    std::atomic<uint32_t> pending{1};
    BranchTask t;
    t.fn = &b;
    t.pending = &pending;
    t.exec = [](Task* base) { (*static_cast<BranchTask*>(base)->fn)(); };
    push_local(&t);
    try {
      a();
    } catch (...) {
      // `t` lives on this stack frame: before unwinding, either reclaim it
      // from the deque or wait for the thief to finish with it. A stolen
      // branch's own error is superseded by the first branch's.
      if (!pop_local_if(&t)) help_until(pending);
      throw;
    }
    if (pop_local_if(&t)) {
      b();  // nobody stole it; run the branch inline (throws propagate)
      return;
    }
    help_until(pending);
    if (t.error) std::rethrow_exception(t.error);
  }

  /// The pool installed on the *current thread* (see ScopedPool); null when
  /// absent. Worker threads are permanently bound to their owning pool;
  /// client threads install a pool with ScopedPool (or via dopar::Runtime,
  /// which owns one pool per runtime). Thread-locality is what lets two
  /// runtimes with independent pools coexist in one process.
  static Pool*& current();

  static bool on_worker_thread() { return tls_queue_id() >= 0; }

 private:
  struct WorkerQueue {
    std::mutex m;
    std::deque<Task*> q;
  };

  /// Index into queues_ of the queue this thread pushes to; -1 when the
  /// thread is not participating. Queue layout: [0, n_external_) are
  /// external participation slots, [n_external_, n_external_+n_workers_)
  /// belong to the worker threads.
  static int& tls_queue_id();

  /// RAII external-slot claim used by run(): claims any free slot and
  /// installs it as this thread's queue.
  struct SlotGuard {
    Pool& pool;
    int prev;
    int slot;
    explicit SlotGuard(Pool& p)
        : pool(p), prev(tls_queue_id()), slot(p.try_acquire_external_slot()) {
      if (slot >= 0) tls_queue_id() = slot;
    }
    ~SlotGuard() {
      tls_queue_id() = prev;
      if (slot >= 0) pool.release_external_slot(slot);
    }
    SlotGuard(const SlotGuard&) = delete;
    SlotGuard& operator=(const SlotGuard&) = delete;
  };

  /// Claim a free external participation queue. Returns the queue index,
  /// or -1 when every slot is taken (run() then executes serially).
  int try_acquire_external_slot();
  /// Return a slot claimed by try_acquire_external_slot. The claiming
  /// run() must have completed: the queue is empty by fork2's structure.
  void release_external_slot(int queue_idx);
  void push_local(Task* t);
  bool pop_local_if(Task* t);
  Task* try_pop_local();
  Task* try_steal(unsigned self);
  Task* find_task(unsigned self);
  void help_until(std::atomic<uint32_t>& pending);
  void worker_loop(unsigned id);

  unsigned n_workers_ = 0;
  unsigned n_external_ = 1;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> threads_;
  std::atomic<bool> shutdown_{false};
  std::mutex slots_m_;
  std::vector<int> free_slots_;
  std::mutex sleep_m_;
  std::condition_variable sleep_cv_;
  std::atomic<uint64_t> steal_seed_{0x9e3779b97f4a7c15ULL};
};

/// RAII installer: makes `p` the current pool of this thread so that
/// fj::invoke (api.hpp) dispatches to it. The Runtime façade wraps every
/// method call in one of these; install manually only in harness code.
class ScopedPool {
 public:
  explicit ScopedPool(Pool& p) : prev_(Pool::current()) {
    Pool::current() = &p;
  }
  ~ScopedPool() { Pool::current() = prev_; }
  ScopedPool(const ScopedPool&) = delete;
  ScopedPool& operator=(const ScopedPool&) = delete;

 private:
  Pool* prev_;
};

/// RAII helper: constructs a pool and installs it as this thread's current
/// pool so that fj::invoke (api.hpp) dispatches to it.
class WithPool {
 public:
  explicit WithPool(unsigned helpers) : pool_(helpers) {}

  template <class Root>
  void run(Root&& root) {
    pool_.run(std::forward<Root>(root));
  }
  Pool& pool() { return pool_; }

 private:
  Pool pool_;
  ScopedPool scoped_{pool_};
};

}  // namespace dopar::fj
