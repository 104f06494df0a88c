#include "sched/scheduler.hpp"

#include <atomic>
#include <stdexcept>

namespace dopar::sched {

namespace {
uint64_t next_scheduler_id() {
  static std::atomic<uint64_t> n{0};
  return n.fetch_add(1, std::memory_order_relaxed) + 1;
}

// How long submitted jobs sit queued before a job worker picks them up.
// Lazily registered: the registry entry only exists once metrics have
// actually been on at an enqueue.
obs::Histogram& queue_wait_ns_hist() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("dopar_sched_job_queue_wait_ns");
  return h;
}

obs::Counter& jobs_total() {
  static obs::Counter& c =
      obs::Registry::global().counter("dopar_sched_jobs_total");
  return c;
}
}  // namespace

Scheduler::Scheduler(unsigned threads, size_t max_job_workers)
    : id_(next_scheduler_id()),
      max_job_workers_(max_job_workers == 0 ? 1 : max_job_workers) {
  if (threads > 1) {
    // Enough external slots for every concurrent primitive call: the
    // bounded job workers plus direct method calls from client threads.
    // On exhaustion a call degrades to serial participation (correct,
    // just slower), so the headroom is latency, not correctness.
    const unsigned slots = static_cast<unsigned>(max_job_workers_) + 4;
    pool_ = std::make_unique<fj::Pool>(threads - 1, slots);
  }
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lk(jobs_m_);
    jobs_closed_ = true;
  }
  jobs_cv_.notify_all();
  for (std::thread& t : job_threads_) t.join();
}

void Scheduler::enqueue(std::function<void()> job,
                        std::shared_ptr<JobState> state) {
  state->scheduler_id = id_;
  {
    std::lock_guard<std::mutex> lk(jobs_m_);
    // Fail fast (also in Release): a job enqueued after shutdown would
    // never run and its Future would hang forever.
    if (jobs_closed_) {
      throw std::logic_error("Runtime::submit: runtime is shutting down");
    }
    jobs_.push_back(QueuedJob{std::move(job), std::move(state),
                              obs::metrics_on() ? obs::now_ns() : 0});
    // Lazily grow the job-worker set while jobs outnumber workers
    // (capped): a Runtime that never submits pays nothing.
    if (job_threads_.size() < max_job_workers_ &&
        job_threads_.size() < jobs_.size() + running_jobs_) {
      try {
        job_threads_.emplace_back([this] { job_loop(); });
      } catch (...) {
        if (job_threads_.empty()) {
          // No worker exists to ever run the job: un-queue it and let
          // the caller see the failure (otherwise the job would be
          // silently dropped at destruction — or run twice if the
          // caller resubmitted after catching).
          jobs_.pop_back();
          throw;
        }
        // Existing workers will drain the queue; only the extra
        // concurrency is lost.
      }
    }
  }
  jobs_cv_.notify_one();
}

void Scheduler::job_loop() {
  tls_job_scheduler_id() = id_;
  std::unique_lock<std::mutex> lk(jobs_m_);
  for (;;) {
    jobs_cv_.wait(lk, [&] { return jobs_closed_ || !jobs_.empty(); });
    if (jobs_.empty()) break;  // only when closed
    QueuedJob qj = std::move(jobs_.front());
    auto& [job, state, enq_ns] = qj;
    jobs_.pop_front();
    ++running_jobs_;
    // Mark kRunning while still holding jobs_m_: dequeue order is the
    // FIFO submission order, so once any later job observes itself
    // running, every earlier job is already marked — which is what keeps
    // the documented-legal "await a job submitted before me" pattern
    // from tripping the Future-blocking check in the dequeue-to-mark
    // window.
    state->phase.store(JobState::kRunning, std::memory_order_release);
    lk.unlock();
    // enq_ns == 0: metrics were off at enqueue — no wait to attribute.
    if (enq_ns != 0) {
      queue_wait_ns_hist().observe(obs::now_ns() - enq_ns);
      jobs_total().inc();
    }
    {
      obs::Span span("sched.job");
      job();  // packaged_task: exceptions land in the future
    }
    state->phase.store(JobState::kFinished, std::memory_order_release);
    lk.lock();
    --running_jobs_;
  }
  tls_job_scheduler_id() = 0;
}

}  // namespace dopar::sched
