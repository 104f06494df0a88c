#pragma once
// Measurement plumbing of the benchmark: exact sample quantiles, the
// benchmark's own span tracer (with a fold into self/total time per span
// name), process resource readings, the environment record and the result
// line. Nothing here calls into the library except to read the active ISA
// and the spans the library itself records while its tracing gate is open.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dopar.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline uint64_t ns_of(Clock::time_point t) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

// ---- exact quantiles -----------------------------------------------------

/// Exact sample quantile with linear interpolation between the two nearest
/// order statistics (Hyndman-Fan type 7, numpy's default): q = 0 is the
/// minimum, q = 1 the maximum. An empty sample yields 0.
double quantile(std::vector<double> v, double q);

/// Median and 99th percentile of one sample, with its size.
struct Summary {
  size_t n = 0;
  double p50 = 0;
  double p99 = 0;
};
Summary summarize(const std::vector<double>& v);

// ---- spans ---------------------------------------------------------------

/// One recorded span. `id` is unique per span, `parent` is the enclosing
/// span's id (0 = root) and `req` is shared by every span of one request
/// or operation.
struct SpanRec {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t req = 0;
  uint64_t t0_ns = 0;
  uint64_t t1_ns = 0;
  uint32_t tid = 0;
};

/// In-memory span store of the benchmark. Disabled unless a traced run
/// turns it on; disabled spans cost one relaxed load.
class Tracer {
 public:
  static Tracer& get();
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  uint64_t next_id() { return ids_.fetch_add(1, std::memory_order_relaxed); }
  void record(SpanRec r);
  std::vector<SpanRec> spans() const;

 private:
  std::atomic<bool> on_{false};
  std::atomic<uint64_t> ids_{1};
  mutable std::mutex m_;
  std::vector<SpanRec> spans_;
};

/// Small stable id of the calling thread.
uint32_t thread_tag();

/// RAII span around one public call. The parent defaults to the innermost
/// open span on this thread and the request id to the parent's; a span
/// opened on another thread (a submitted job) passes both explicitly.
class Span {
 public:
  explicit Span(const char* name, uint64_t req = 0, uint64_t parent = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  uint64_t id() const { return rec_.id; }

 private:
  bool live_ = false;
  SpanRec rec_;
  uint64_t saved_id_ = 0;
  uint64_t saved_req_ = 0;
};

/// Record a span whose interval is known only after the fact (an open-loop
/// request, timed from its due time to its observed completion). `id` was
/// drawn from Tracer::next_id() earlier, so child spans could name it.
void record_span(const char* name, uint64_t id, uint64_t req,
                 uint64_t parent, Clock::time_point t0, Clock::time_point t1);

/// Per-name fold of a span set: call count, total time, and self time
/// (total minus the time covered by direct children).
struct FoldRow {
  std::string name;
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

/// Fold the benchmark's spans together with the library's own obs spans.
/// Library spans carry no parent, so each is nested under the innermost
/// library span of its thread that contains it.
std::vector<FoldRow> fold(const std::vector<SpanRec>& bench,
                          const std::vector<dopar::obs::TraceEvent>& lib);

/// Write both span sets as Chrome trace-event JSON (ids, request ids and
/// parents in args). Returns false if the file cannot be written.
bool write_spans(const std::string& path, const std::vector<SpanRec>& bench,
                 const std::vector<dopar::obs::TraceEvent>& lib);

// ---- process and environment ---------------------------------------------

/// Process CPU time (user + system), seconds.
double cpu_seconds();
/// Peak resident set size, MiB.
double peak_rss_mb();
unsigned nproc();

/// Environment record printed with every result.
std::string env_json(const std::string& workload, uint64_t seed,
                     unsigned runtime_threads, bool traced);

// ---- result line ---------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, uint64_t attempted, uint64_t failed,
                        const Metrics& m);

}  // namespace pb
