#pragma once
// dopar::sched — the scheduler subsystem behind the Runtime.
//
// The paper states its algorithms in the binary fork-join model over one
// randomized work-stealing scheduler (Section A.2), where nested and
// concurrent forks compose freely. The Scheduler owns the Runtime's one
// fork-join arena (fj::Pool) and runs every primitive call on it: each
// concurrent caller claims its own external participation queue, and
// every worker steals from every queue, so the primitives of concurrently
// submitted pipelines overlap on the whole arena with no lock between
// them.
//
// The Scheduler also owns the submit() machinery (bounded lazily-spawned
// job workers, FIFO queue, drain-on-destroy) that used to live inside
// Runtime, and stamps each job's JobState (sched/job.hpp) so a Future can
// detect the wait-from-a-job-on-a-queued-job deadlock and throw.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "forkjoin/pool.hpp"
#include "obs/obs.hpp"
#include "sched/job.hpp"

namespace dopar::sched {

/// Retained only so existing Runtime::Builder::scheduler() callers
/// compile: there is one schedule, the shared arena, and the builder
/// ignores the value.
enum class SchedPolicy { Stealing };

class Scheduler {
 public:
  /// `threads` is the Runtime's total parallelism (calling thread
  /// included): threads > 1 builds an arena with threads-1 workers;
  /// threads <= 1 builds no arena and every primitive runs serially on
  /// its calling thread (jobs still overlap). `max_job_workers` caps the
  /// concurrently executing submit() jobs (floored at 1; default
  /// kMaxJobWorkers).
  explicit Scheduler(unsigned threads,
                     size_t max_job_workers = kMaxJobWorkers);

  /// Drains every queued job (executing it), then joins the job workers.
  /// The arena is torn down last, after no job can touch it.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  fj::Pool* pool() { return pool_.get(); }
  /// Total parallelism of one full-arena primitive (1 = serial).
  unsigned parallelism() const { return pool_ ? pool_->workers() : 1; }
  /// Process-unique identity (JobState::scheduler_id of jobs enqueued
  /// here).
  uint64_t id() const { return id_; }

  // ---- primitive execution (Runtime::with_env) ------------------------

  /// Execute one oblivious-primitive body on the shared arena, with the
  /// pool installed thread-locally (fj::invoke dispatch). Concurrent
  /// callers each participate through their own external slot; a serial
  /// scheduler runs the body on the caller.
  template <class F>
  void run_primitive(F&& f) {
    obs::Span span("sched.primitive");
    if (!pool_) {
      f();
      return;
    }
    fj::ScopedPool guard(*pool_);
    pool_->run(f);
  }

  // ---- job execution (Runtime::submit) --------------------------------

  /// Default cap on concurrently executing submitted jobs (the actual cap
  /// is the constructor's max_job_workers; see max_job_workers()).
  static constexpr size_t kMaxJobWorkers = 4;

  /// The configured cap on concurrently executing submitted jobs.
  size_t max_job_workers() const { return max_job_workers_; }

  /// Enqueue a type-erased job (Runtime::submit wraps the user fn in a
  /// packaged_task upstream). Stamps and advances `state` so Futures can
  /// apply the Future-blocking rule. Throws std::logic_error once the
  /// scheduler is shutting down.
  void enqueue(std::function<void()> job, std::shared_ptr<JobState> state);

 private:
  void job_loop();

  const uint64_t id_;
  const size_t max_job_workers_;
  std::unique_ptr<fj::Pool> pool_;

  // Job queue + bounded lazily-spawned job workers.
  struct QueuedJob {
    std::function<void()> fn;
    std::shared_ptr<JobState> state;
    uint64_t enq_ns;  ///< obs enqueue stamp; 0 when metrics were off
  };
  std::mutex jobs_m_;
  std::condition_variable jobs_cv_;
  std::deque<QueuedJob> jobs_;
  std::vector<std::thread> job_threads_;
  size_t running_jobs_ = 0;
  bool jobs_closed_ = false;
};

}  // namespace dopar::sched
