#include "forkjoin/pool.hpp"

#include <cassert>
#include <chrono>

namespace dopar::fj {

namespace {
// Arena-wide obs counters (summed across workers and pools). Bundled so
// the registry entries appear together on the first enabled use.
struct PoolMetrics {
  obs::Counter& steal_attempts;
  obs::Counter& steals;
  obs::Counter& tasks;
  obs::Counter& busy_ns;
  obs::Counter& idle_ns;
};
PoolMetrics& pm() {
  static PoolMetrics m{
      obs::Registry::global().counter("dopar_pool_steal_attempts_total"),
      obs::Registry::global().counter("dopar_pool_steals_total"),
      obs::Registry::global().counter("dopar_pool_tasks_total"),
      obs::Registry::global().counter("dopar_pool_worker_busy_ns_total"),
      obs::Registry::global().counter("dopar_pool_worker_idle_ns_total")};
  return m;
}
}  // namespace

int& Pool::tls_queue_id() {
  thread_local int id = -1;
  return id;
}

Pool*& Pool::current() {
  thread_local Pool* p = nullptr;
  return p;
}

Pool::Pool(unsigned helpers, unsigned external_slots)
    : n_workers_(helpers),
      n_external_(external_slots == 0 ? 1 : external_slots) {
  queues_.reserve(n_external_ + n_workers_);
  for (unsigned i = 0; i < n_external_ + n_workers_; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  free_slots_.reserve(n_external_);
  // Stack of free external slots; pop_back hands out slot 0 first so the
  // single-slot legacy pool reproduces the classic queue-0 layout.
  for (unsigned i = n_external_; i-- > 0;) {
    free_slots_.push_back(static_cast<int>(i));
  }
  threads_.reserve(n_workers_);
  for (unsigned i = 0; i < n_workers_; ++i) {
    threads_.emplace_back([this, i] { worker_loop(n_external_ + i); });
  }
}

Pool::~Pool() {
  shutdown_.store(true, std::memory_order_release);
  sleep_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

int Pool::try_acquire_external_slot() {
  std::lock_guard<std::mutex> lk(slots_m_);
  if (free_slots_.empty()) return -1;
  const int slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

void Pool::release_external_slot(int queue_idx) {
  assert(queue_idx >= 0 && static_cast<unsigned>(queue_idx) < n_external_);
#ifndef NDEBUG
  {
    WorkerQueue& wq = *queues_[static_cast<unsigned>(queue_idx)];
    std::lock_guard<std::mutex> lk(wq.m);
    assert(wq.q.empty() && "external slot released with forks still queued");
  }
#endif
  std::lock_guard<std::mutex> lk(slots_m_);
  free_slots_.push_back(queue_idx);
}

void Pool::push_local(Task* t) {
  WorkerQueue& wq = *queues_[static_cast<unsigned>(tls_queue_id())];
  {
    std::lock_guard<std::mutex> lk(wq.m);
    wq.q.push_back(t);
  }
  sleep_cv_.notify_one();
}

bool Pool::pop_local_if(Task* t) {
  WorkerQueue& wq = *queues_[static_cast<unsigned>(tls_queue_id())];
  std::lock_guard<std::mutex> lk(wq.m);
  if (!wq.q.empty() && wq.q.back() == t) {
    wq.q.pop_back();
    return true;
  }
  return false;
}

Task* Pool::try_pop_local() {
  WorkerQueue& wq = *queues_[static_cast<unsigned>(tls_queue_id())];
  std::lock_guard<std::mutex> lk(wq.m);
  if (wq.q.empty()) return nullptr;
  Task* t = wq.q.back();
  wq.q.pop_back();
  return t;
}

Task* Pool::try_steal(unsigned self) {
  // One "attempt" per search across the victim queues, not per probe.
  const bool mon = obs::metrics_on();
  if (mon) pm().steal_attempts.inc();
  const unsigned n = static_cast<unsigned>(queues_.size());
  // Randomized victim selection per Blumofe-Leiserson, over every queue.
  uint64_t seed = steal_seed_.fetch_add(0x9e3779b97f4a7c15ULL,
                                        std::memory_order_relaxed);
  seed ^= seed >> 33;
  seed *= 0xff51afd7ed558ccdULL;
  for (unsigned attempt = 0; attempt < n; ++attempt) {
    const unsigned v = static_cast<unsigned>((seed + attempt) % n);
    if (v == self) continue;
    WorkerQueue& wq = *queues_[v];
    std::lock_guard<std::mutex> lk(wq.m);
    if (!wq.q.empty()) {
      Task* t = wq.q.front();  // steal from the top: oldest, largest task
      wq.q.pop_front();
      if (mon) pm().steals.inc();
      return t;
    }
  }
  return nullptr;
}

Task* Pool::find_task(unsigned self) {
  if (Task* t = try_pop_local()) return t;
  return try_steal(self);
}

void Pool::help_until(std::atomic<uint32_t>& pending) {
  const unsigned self = static_cast<unsigned>(tls_queue_id());
  while (pending.load(std::memory_order_acquire) != 0) {
    if (Task* t = find_task(self)) {
      t->run();
    } else {
      std::this_thread::yield();
    }
  }
}

void Pool::worker_loop(unsigned id) {
  tls_queue_id() = static_cast<int>(id);
  // Workers are permanently bound to their owning pool: stolen task bodies
  // that fork again must dispatch into the same pool.
  current() = this;
  unsigned idle_rounds = 0;
  while (!shutdown_.load(std::memory_order_acquire)) {
    if (Task* t = find_task(id)) {
      if (obs::metrics_on()) {
        const uint64_t t0 = obs::now_ns();
        t->run();
        pm().busy_ns.inc(obs::now_ns() - t0);
        pm().tasks.inc();
      } else {
        t->run();
      }
      idle_rounds = 0;
      continue;
    }
    if (++idle_rounds > 64) {
      // Only the deep-sleep wait is attributed to idle time; the brief
      // yield-spin rounds between tasks are left unmeasured (clocking
      // every spin iteration would perturb the steal path it measures).
      if (obs::metrics_on()) {
        const uint64_t t0 = obs::now_ns();
        std::unique_lock<std::mutex> lk(sleep_m_);
        sleep_cv_.wait_for(lk, std::chrono::milliseconds(1));
        lk.unlock();
        pm().idle_ns.inc(obs::now_ns() - t0);
      } else {
        std::unique_lock<std::mutex> lk(sleep_m_);
        sleep_cv_.wait_for(lk, std::chrono::milliseconds(1));
      }
      idle_rounds = 0;
    } else {
      std::this_thread::yield();
    }
  }
  tls_queue_id() = -1;
  current() = nullptr;
}

}  // namespace dopar::fj
