#pragma once
// dopar::obs — low-overhead observability: named metrics (counters,
// gauges, log-bucketed latency histograms) and a span tracer with Chrome
// trace-event export.
//
// Two cooperating pieces:
//
//  * METRICS. obs::Registry::global() is a process-wide directory of named
//    Counter / Gauge / Histogram objects (get-or-create; pointers are
//    stable forever, so hook sites cache them in function-local statics).
//    Counters and histograms are sharded across cache-line-padded atomic
//    cells merged on read, so concurrent workers never contend on one
//    line. Registry::render_text() emits a Prometheus-style text
//    exposition (cumulative `le` buckets, `_sum`/`_count` series).
//
//  * SPANS. obs::Span is an RAII wall-clock span ({name, tid, t_start,
//    t_end, up to two named integer args}) recorded into a fixed-capacity
//    per-thread ring buffer (oldest events overwritten — tracing never
//    allocates after a thread's first event and never blocks). instant()
//    records a zero-length marker event. write_chrome_trace(path) merges
//    every thread's ring into Chrome trace-event JSON, loadable in
//    chrome://tracing or https://ui.perfetto.dev.
//
// THE DISABLED-MODE CONTRACT (test-pinned by tests/test_obs.cpp and
// bench/bench_obs.cpp): every hook the library plants — Span construction,
// instant(), and each `if (obs::metrics_on()) ...` metric update — costs
// exactly one relaxed atomic load and a predictable branch while the
// corresponding gate is off: no clock read, no allocation, no mutex.
// Registry/ring allocations happen only on the first *enabled* use of a
// site. Consequently the hooks are within measurement noise of
// uninstrumented code (BENCH_obs.json tracks this).
//
// THE NON-PERTURBATION CONTRACT: obs never calls sim::tick and never
// touches tracked (sim) buffers, so enabling metrics or tracing leaves
// analytic work/span/miss counts and memory-trace digests bit-identical
// (same invariant the SIMD kernel layer holds; pinned by the
// digest-invariance battery in tests/test_obs.cpp).
//
// Enabling: gates are process-wide relaxed refcounts held by RAII
// ScopedEnable handles. Runtime::Builder::tracing() / metrics() hold one
// for the Runtime's lifetime (the DOPAR_TRACE environment variable
// enables tracing for every Runtime); svc::Service holds a metrics enable
// by default (Options::metrics). Multiple enablers nest.

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <chrono>
#include <string>
#include <vector>

namespace dopar::obs {

// ---- enable gates ------------------------------------------------------

namespace detail {
// Refcounts of active enablers (ScopedEnable handles). Plain relaxed
// atomics: the gates carry no data dependency — metric/ring state is
// internally synchronized.
extern std::atomic<uint32_t> g_metrics_refs;
extern std::atomic<uint32_t> g_tracing_refs;
}  // namespace detail

/// True while at least one metrics enabler is alive. The library's metric
/// hooks are all gated on this — one relaxed load when off.
inline bool metrics_on() {
  return detail::g_metrics_refs.load(std::memory_order_relaxed) != 0;
}
/// True while at least one tracing enabler is alive (Span/instant record).
inline bool tracing_on() {
  return detail::g_tracing_refs.load(std::memory_order_relaxed) != 0;
}

/// RAII enabler: bumps the chosen gate refcounts for its lifetime.
/// Runtime and Service hold one; tests scope one around traced regions.
class ScopedEnable {
 public:
  ScopedEnable(bool metrics, bool tracing)
      : metrics_(metrics), tracing_(tracing) {
    if (metrics_) {
      detail::g_metrics_refs.fetch_add(1, std::memory_order_relaxed);
    }
    if (tracing_) {
      detail::g_tracing_refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  ~ScopedEnable() {
    if (metrics_) {
      detail::g_metrics_refs.fetch_sub(1, std::memory_order_relaxed);
    }
    if (tracing_) {
      detail::g_tracing_refs.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

  bool metrics() const { return metrics_; }
  bool tracing() const { return tracing_; }

 private:
  bool metrics_;
  bool tracing_;
};

/// True when the DOPAR_TRACE environment variable requests tracing (set,
/// non-empty and not "0"). Read once and cached; Runtime construction
/// consults it so `DOPAR_TRACE=1 ./app` traces without a rebuild.
bool env_trace_requested();

/// Monotonic wall clock in nanoseconds (steady_clock).
inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---- sharded metric primitives -----------------------------------------

/// Shards per metric: enough that 8 contending workers usually hit
/// distinct cache lines, small enough that merging on read is trivial.
inline constexpr size_t kMetricShards = 8;

namespace detail {
struct alignas(64) ShardCell {
  std::atomic<uint64_t> v{0};
};
/// This thread's shard index: assigned round-robin at first use, so
/// long-lived workers spread across shards deterministically.
size_t shard_index();
}  // namespace detail

/// Monotonic counter (per-thread-sharded relaxed adds, summed on read).
class Counter {
 public:
  void inc(uint64_t n = 1) {
    cells_[detail::shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const {
    uint64_t t = 0;
    for (const auto& c : cells_) t += c.v.load(std::memory_order_relaxed);
    return t;
  }
  void reset() {
    for (auto& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<detail::ShardCell, kMetricShards> cells_{};
};

/// Last-write-wins signed gauge (set/add; one atomic — gauges are rare
/// and set() has no shardable meaning).
class Gauge {
 public:
  void set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Merged read-side view of a Histogram (see below). bucket b counts
/// observed values v with bit_width(v) == b, i.e. v in [2^(b-1), 2^b)
/// (bucket 0 counts zeros; bucket 63 absorbs everything >= 2^62).
struct HistSnapshot {
  static constexpr size_t kBuckets = 64;
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  std::array<uint64_t, kBuckets> buckets{};

  /// Upper bound (inclusive) of bucket b.
  static uint64_t bucket_bound(size_t b) {
    if (b == 0) return 0;
    if (b >= 63) return ~uint64_t{0};
    return (uint64_t{1} << b) - 1;
  }

  /// Approximate quantile (q in [0, 1]): the upper bound of the bucket
  /// holding the q-th observation, clamped to the exact observed max.
  uint64_t quantile(double q) const {
    if (count == 0) return 0;
    if (q < 0) q = 0;
    if (q > 1) q = 1;
    const uint64_t target =
        std::max<uint64_t>(1, static_cast<uint64_t>(q * double(count) + 0.5));
    uint64_t cum = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      cum += buckets[b];
      if (cum >= target) return std::min(bucket_bound(b), max);
    }
    return max;
  }

  /// Counts since `base` (an earlier snapshot of the same histogram):
  /// monotonic fields subtract; max is clamped to the current exact max
  /// and to the highest non-empty delta bucket's bound (an estimate when
  /// earlier observations shared that bucket).
  HistSnapshot since(const HistSnapshot& base) const {
    HistSnapshot d;
    d.count = count - base.count;
    d.sum = sum - base.sum;
    size_t top = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      d.buckets[b] = buckets[b] - base.buckets[b];
      if (d.buckets[b] != 0) top = b;
    }
    d.max = d.count == 0 ? 0 : std::min(max, bucket_bound(top));
    return d;
  }
};

/// Log-bucketed histogram of unsigned values (latencies in ns, batch
/// sizes, ...): sharded count/sum/max plus 64 power-of-two buckets.
/// observe() is a handful of relaxed atomic ops on one shard.
class Histogram {
 public:
  void observe(uint64_t v) {
    Shard& s = shards_[detail::shard_index()];
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    uint64_t m = s.max.load(std::memory_order_relaxed);
    while (m < v &&
           !s.max.compare_exchange_weak(m, v, std::memory_order_relaxed)) {
    }
    s.buckets[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  }

  HistSnapshot snapshot() const {
    HistSnapshot out;
    for (const Shard& s : shards_) {
      out.count += s.count.load(std::memory_order_relaxed);
      out.sum += s.sum.load(std::memory_order_relaxed);
      out.max = std::max(out.max, s.max.load(std::memory_order_relaxed));
      for (size_t b = 0; b < HistSnapshot::kBuckets; ++b) {
        out.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
      }
    }
    return out;
  }

  void reset() {
    for (Shard& s : shards_) {
      s.count.store(0, std::memory_order_relaxed);
      s.sum.store(0, std::memory_order_relaxed);
      s.max.store(0, std::memory_order_relaxed);
      for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    }
  }

  static size_t bucket_of(uint64_t v) {
    const unsigned w = static_cast<unsigned>(std::bit_width(v));
    return w < HistSnapshot::kBuckets ? w : HistSnapshot::kBuckets - 1;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
    std::array<std::atomic<uint64_t>, HistSnapshot::kBuckets> buckets{};
  };
  std::array<Shard, kMetricShards> shards_{};
};

// ---- registry ----------------------------------------------------------

/// Process-wide directory of named metrics. Lookup is mutex-guarded
/// get-or-create (never on a gated-off hot path — hook sites cache the
/// returned reference in a function-local static); returned references
/// stay valid for the process lifetime. Names follow Prometheus
/// conventions (snake_case, `_total` counters, unit suffixes); labels are
/// folded into the name (e.g. dopar_svc_latency_ns_sort).
class Registry {
 public:
  static Registry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Prometheus-style text exposition of every registered metric:
  /// `# TYPE` headers, gauge/counter value lines, cumulative `le` bucket
  /// lines plus `_sum`/`_count` for histograms. Deterministic order
  /// (lexicographic by name).
  std::string render_text() const;

  /// Zero every registered metric's value, keeping the registrations (and
  /// thus every cached reference) intact. Test harness only.
  void reset_values();

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

// ---- span tracer -------------------------------------------------------

/// One recorded trace event. `name`/`k0`/`k1` must be string literals (or
/// otherwise immortal): the tracer stores the pointers, never copies.
struct TraceEvent {
  const char* name = nullptr;
  const char* k0 = nullptr;  ///< first arg name (nullptr = no arg)
  const char* k1 = nullptr;  ///< second arg name
  uint64_t v0 = 0;
  uint64_t v1 = 0;
  uint64_t t0_ns = 0;  ///< start (obs::now_ns clock)
  uint64_t t1_ns = 0;  ///< end; == t0_ns for instants
  uint32_t tid = 0;    ///< small per-thread id (assigned at first event)
  char phase = 'X';    ///< 'X' complete span, 'i' instant
};

namespace detail {
/// Slow paths of Span/instant (ring lookup + clock); only reached while
/// tracing_on().
void span_record(const TraceEvent& e);
void instant_record(const char* name, const char* k0, uint64_t v0);
}  // namespace detail

/// RAII wall-clock span. Construction while tracing is off costs one
/// relaxed load; while on, it reads the clock and the destructor records
/// one event into this thread's ring buffer. Arg keys must be literals.
class Span {
 public:
  explicit Span(const char* name, const char* k0 = nullptr, uint64_t v0 = 0,
                const char* k1 = nullptr, uint64_t v1 = 0) {
    if (!tracing_on()) return;  // disabled: single relaxed-atomic branch
    name_ = name;
    k0_ = k0;
    k1_ = k1;
    v0_ = v0;
    v1_ = v1;
    t0_ = now_ns();
  }
  ~Span() {
    if (name_ == nullptr) return;
    TraceEvent e;
    e.name = name_;
    e.k0 = k0_;
    e.k1 = k1_;
    e.v0 = v0_;
    e.v1 = v1_;
    e.t0_ns = t0_;
    e.t1_ns = now_ns();
    e.phase = 'X';
    detail::span_record(e);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach / update the second arg after construction (e.g. a result
  /// count known only at the end of the spanned region). No-op when the
  /// span is inert.
  void arg1(const char* k1, uint64_t v1) {
    if (name_ == nullptr) return;
    k1_ = k1;
    v1_ = v1;
  }

 private:
  const char* name_ = nullptr;
  const char* k0_ = nullptr;
  const char* k1_ = nullptr;
  uint64_t v0_ = 0;
  uint64_t v1_ = 0;
  uint64_t t0_ = 0;
};

/// Record a zero-length instant event (e.g. a job submission).
inline void instant(const char* name, const char* k0 = nullptr,
                    uint64_t v0 = 0) {
  if (!tracing_on()) return;  // disabled: single relaxed-atomic branch
  detail::instant_record(name, k0, v0);
}

/// Events each per-thread ring retains (oldest overwritten beyond this).
inline constexpr size_t kRingCapacity = size_t{1} << 13;

/// Merged snapshot of every thread's ring, oldest-first by start time.
/// Quiesce traced threads first: the rings are single-writer/lock-free,
/// so a snapshot taken under live tracing may miss or tear the newest
/// events (never older ones).
std::vector<TraceEvent> snapshot_trace();

/// Drop every ring's recorded events (test harness; same quiescence
/// caveat as snapshot_trace).
void reset_trace();

/// Write the merged trace as Chrome trace-event JSON ({"traceEvents":
/// [...]}; ts/dur in microseconds, rebased to the earliest event). Load
/// it in chrome://tracing or https://ui.perfetto.dev. Returns false when
/// the file cannot be written. Runtime::dump_trace forwards here.
bool write_chrome_trace(const std::string& path);

}  // namespace dopar::obs
