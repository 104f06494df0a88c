#pragma once
// svc::Service — a multi-tenant serving front-end over a dopar::Runtime.
//
// The library's oblivious sort is priced for throughput, not per-request
// latency: at serving-size inputs (hundreds to thousands of keys) the
// fixed cost of the Theorem 3.2 pipeline dominates, so submitting each
// small request as its own pipeline wastes almost all of the machine. The
// Service closes that gap with two cooperating mechanisms:
//
//  1. COALESCER. Accepted requests wait in a bounded queue for a short
//     window (Options::window) or until a size/count threshold fires;
//     compatible queued requests of the SAME KIND are then merged into
//     ONE shared plan and split back per request:
//
//       * sort      — one oblivious sort over slot-tagged composite keys
//                     (svc/coalesce.hpp) on the Runtime's comparator-
//                     network sorter layer (Runtime::backend_sort);
//       * join      — equi_join()/band_join() requests share one run of
//                     the join engine (rel::detail::join_engine, via
//                     Runtime::join_batched), one slot per request: each
//                     slot runs the recorded-network plan concurrently,
//                     and ONE output frame — its public bound the SUM of
//                     the per-request output bounds — is split back per
//                     slot. Equi and band requests coalesce freely
//                     (bandedness is per-slot public shape).
//       * group-by  — group_by_aggregate() requests with the SAME
//                     aggregation operator share one run of the group-by
//                     engine the same way (the operator is part of the
//                     plan, so mixed-agg requests never coalesce).
//
//     Each kind keeps its own coalescible-row accounting against
//     Options::max_batch_elems — a request's footprint is its total rows
//     plus, for join/group-by, its output bound. Every kind has exactly
//     one plan: a request that cannot share a batch (keys > 2^48-1,
//     oversize footprint) or that finds no batch-mate runs as a one-slot
//     batch of the same plan, on the Runtime's configured backend. A
//     one-slot sort needs no slot bits (slot 0 leaves every key as it
//     is), so it is exactly Runtime::backend_sort over the request's rows;
//     a one-slot join or group-by is exactly what a direct Runtime call
//     runs. Either way a request's output is BIT-IDENTICAL to what it
//     would get served alone: for sorts the tie order is normalized from
//     a per-request content-derived seed stream (normalize_ties), since
//     the network's order of equal keys depends on the request's position
//     in the batch; join/group-by results have no free tie order at all —
//     the output contract fixes a total row order, so they are a pure
//     function of the request. Provable by replaying a request alone and
//     comparing bytes, or by comparing instrumented trace digests across
//     runs.
//
//  2. ADMISSION CONTROL + BACKPRESSURE. The submit queue is bounded
//     (Options::queue_limit). try_sort() rejects immediately when full;
//     sort()/sort_records() block for Options::submit_timeout (forever if
//     unset) and throw SubmitTimeout on expiry. Submitting to a stopped
//     Service throws std::logic_error.
//
// Batches execute as Runtime::submit jobs, so batch concurrency is capped
// by Runtime::Builder::max_job_workers and Options::max_inflight_batches.
// Destruction drains: queued requests are dispatched (ignoring the
// window), in-flight batches complete, then the dispatcher joins — every
// returned Future is completed. The Service must outlive its futures'
// consumers' submissions, and the Runtime must outlive the Service.

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/future.hpp"
#include "core/runtime.hpp"
#include "obs/obs.hpp"
#include "rel/rel.hpp"
#include "svc/coalesce.hpp"

namespace dopar::svc {

/// Thrown by the blocking submit paths when Options::submit_timeout
/// expires before the queue has room.
class SubmitTimeout : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Options {
  /// How long the oldest queued request may wait for batch-mates before
  /// the coalescer dispatches regardless.
  std::chrono::microseconds window{500};
  /// Requests per batch (clamped to kMaxBatchSlots = 65536, the slot-tag
  /// capacity).
  size_t max_batch_requests = 64;
  /// Total rows per batch; also the per-request coalescibility bound
  /// (larger requests run as one-slot batches). A request's charged
  /// footprint is its input rows plus, for join/group-by, its output
  /// bound.
  size_t max_batch_elems = size_t{1} << 16;
  /// Bound on queued (accepted, not yet dispatched) requests.
  size_t queue_limit = 1024;
  /// Batches allowed in flight at once (each is one submitted job).
  size_t max_inflight_batches = 2;
  /// Blocking-submit patience when the queue is full; unset = wait
  /// forever.
  std::optional<std::chrono::milliseconds> submit_timeout{};
  /// Seed of the per-request tie-normalization streams. Two Services with
  /// the same seed serve identical outputs for identical requests.
  uint64_t seed = 0x5e4c'5eedULL;
  /// Hold the obs metrics gate open for the Service's lifetime, so the
  /// per-kind latency / window-wait / occupancy histograms (and the
  /// scheduler- and pool-level series underneath) record while serving.
  /// Stats::kinds[].latency and metrics_text() are empty when false.
  bool metrics = true;
};

class Service {
 public:
  /// Request kinds the coalescer understands. Only same-kind requests
  /// share a batch; group-by additionally requires an equal aggregation
  /// operator. Values index Stats::kinds.
  enum class Kind : uint8_t { Sort = 0, Join = 1, GroupBy = 2 };
  static constexpr size_t kNumKinds = 3;

  /// End-to-end latency summary of one request kind (admission to
  /// Future-ready), derived from this Service's slice of the obs latency
  /// histogram (log2 buckets: quantiles are bucket upper bounds clamped
  /// to the exact max). All zeros when Options::metrics is false.
  struct LatencySummary {
    uint64_t count = 0;   ///< completed requests measured
    uint64_t p50_ns = 0;
    uint64_t p95_ns = 0;
    uint64_t p99_ns = 0;
    uint64_t max_ns = 0;
  };

  /// Per-kind slice of the batch counters.
  struct KindStats {
    uint64_t accepted = 0;           ///< requests admitted (inline incl.)
    uint64_t batches = 0;            ///< dispatched batches of this kind
    uint64_t solo_batches = 0;       ///< batches of exactly one request
    uint64_t coalesced_requests = 0; ///< requests served in >= 2-batches
    uint64_t solo_requests = 0;      ///< requests served alone
    LatencySummary latency{};        ///< enqueue -> Future-ready, this kind
  };

  /// Monotonic counters, snapshot via stats().
  struct Stats {
    uint64_t accepted = 0;   ///< requests admitted to the queue
    uint64_t rejected = 0;   ///< try_* refusals (queue full)
    uint64_t timed_out = 0;  ///< blocking submits that hit submit_timeout
    uint64_t batches = 0;    ///< dispatched batches (solo included)
    uint64_t solo_batches = 0;       ///< batches of exactly one request
    uint64_t coalesced_requests = 0; ///< requests served in >= 2-batches
    uint64_t solo_requests = 0;      ///< requests served alone
    /// batch_size_hist[b] counts batches of 2^b..2^(b+1)-1 requests
    /// (b = 16 also absorbs anything larger).
    std::array<uint64_t, 17> batch_size_hist{};
    size_t queue_depth_high_water = 0;
    size_t inflight_high_water = 0;
    /// Always 0: the Runtime has one schedule. Kept so existing readers
    /// of the field compile.
    uint64_t policy_switches = 0;
    std::array<KindStats, kNumKinds> kinds{};  ///< per-kind breakdown
  };

  explicit Service(Runtime& rt, Options opts = {});
  /// Stops intake, dispatches everything still queued (ignoring the
  /// window), waits for in-flight batches, joins the dispatcher.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Submit a sort request: the future yields `keys` sorted ascending.
  /// Blocks while the queue is full (up to Options::submit_timeout, then
  /// throws SubmitTimeout). Keys must be < 2^64-1 (the filler sentinel);
  /// throws std::invalid_argument otherwise, and std::logic_error after
  /// the Service has stopped.
  Future<std::vector<uint64_t>> sort(uint64_t tenant,
                                     std::vector<uint64_t> keys);

  /// Non-blocking submit: std::nullopt (and a `rejected` tick) when the
  /// queue is full.
  std::optional<Future<std::vector<uint64_t>>> try_sort(
      uint64_t tenant, std::vector<uint64_t> keys);

  /// Submit arbitrary records sorted by an extracted integer key — the
  /// serving analogue of Runtime::sort_records. Same blocking/throwing
  /// behavior as sort(). Tie order follows the request's normalization
  /// stream (deterministic, not stable).
  template <class Rec, class KeyFn>
  Future<std::vector<Rec>> sort_records(uint64_t tenant,
                                        std::vector<Rec> recs,
                                        KeyFn key_of) {
    std::vector<uint64_t> keys(recs.size());
    for (size_t i = 0; i < recs.size(); ++i) {
      keys[i] = static_cast<uint64_t>(key_of(recs[i]));
    }
    auto held = std::make_shared<std::vector<Rec>>(std::move(recs));
    return *submit<std::vector<Rec>, SortOut>(
        /*block=*/true,
        [&](FinishFn f, bool block) {
          return enqueue(tenant, std::move(keys), std::move(f), block);
        },
        [held](SortOut&& res) {
          std::vector<Rec> out;
          out.reserve(held->size());
          for (uint32_t idx : res.order) {
            out.push_back(std::move((*held)[idx]));
          }
          return out;
        });
  }

  /// Submit an oblivious equi-join of two key tables: the future yields
  /// every (l, r) key pair with l == r, grouped by left row in input
  /// order, each group ascending by right (key, index) — exactly the
  /// Runtime::equi_join output over the same tables, byte for byte,
  /// whether the request shared its batch or ran alone. Keys must be
  /// < rel::kKeyLimit (2^62); keys <= 2^48-1 and a footprint (|L| + |R| +
  /// bound) within Options::max_batch_elems make the request coalescible.
  /// `output_bound` caps the returned pairs (0 = |L|*|R|, which must stay
  /// < 2^32). Blocking/throwing behavior matches sort().
  Future<rel::JoinResult<uint64_t, uint64_t>> equi_join(
      uint64_t tenant, std::vector<uint64_t> left_keys,
      std::vector<uint64_t> right_keys, size_t output_bound = 0);

  /// Non-blocking equi_join: std::nullopt (and a `rejected` tick) when
  /// the queue is full.
  std::optional<Future<rel::JoinResult<uint64_t, uint64_t>>> try_equi_join(
      uint64_t tenant, std::vector<uint64_t> left_keys,
      std::vector<uint64_t> right_keys, size_t output_bound = 0);

  /// Band join: pairs with |l - r| <= band. Same contract as equi_join
  /// (band = 0 degenerates to it exactly); equi and band requests
  /// coalesce into the same batches.
  Future<rel::JoinResult<uint64_t, uint64_t>> band_join(
      uint64_t tenant, std::vector<uint64_t> left_keys,
      std::vector<uint64_t> right_keys, uint64_t band,
      size_t output_bound = 0);

  std::optional<Future<rel::JoinResult<uint64_t, uint64_t>>> try_band_join(
      uint64_t tenant, std::vector<uint64_t> left_keys,
      std::vector<uint64_t> right_keys, uint64_t band,
      size_t output_bound = 0);

  /// Submit an oblivious group-by aggregation over parallel (key, value)
  /// columns: the future yields one GroupRow per distinct key (ascending,
  /// truncated to `group_bound`; 0 = row count) — byte-identical to the
  /// solo Runtime::group_by_aggregate result. Only requests with the SAME
  /// `agg` coalesce; footprint is rows + bound. Keys < rel::kKeyLimit.
  Future<rel::GroupByResult> group_by_aggregate(
      uint64_t tenant, std::vector<uint64_t> keys,
      std::vector<uint64_t> values, rel::Agg agg, size_t group_bound = 0);

  std::optional<Future<rel::GroupByResult>> try_group_by_aggregate(
      uint64_t tenant, std::vector<uint64_t> keys,
      std::vector<uint64_t> values, rel::Agg agg, size_t group_bound = 0);

  /// Dispatch everything currently queued without waiting for the window
  /// (returns immediately; await the futures for completion).
  void flush();

  Stats stats() const;
  /// Requests accepted but not yet carved into a batch.
  size_t queue_depth() const;
  const Options& options() const { return opts_; }

  /// Prometheus-style text exposition of every obs metric registered in
  /// the process (the Service's dopar_svc_* series plus whatever the
  /// scheduler/pool layers recorded while the metrics gate was open).
  static std::string metrics_text() {
    return obs::Registry::global().render_text();
  }

 private:
  /// A finished sort request: the sorted keys and the original-index
  /// permutation.
  struct SortOut {
    std::vector<uint64_t> keys;
    std::vector<uint32_t> order;
  };
  /// Completion callback of one request: exactly one of {result, error}
  /// is meaningful.
  template <class R>
  using Finish = std::function<void(R&&, std::exception_ptr)>;
  using FinishFn = Finish<SortOut>;
  using JoinFinishFn = Finish<rel::JoinResult<uint64_t, uint64_t>>;
  using GroupFinishFn = Finish<rel::GroupByResult>;

  enum class Admit { kOk, kFull, kTimeout };

  /// The one submit adapter: `enqueue(finish, block)` admits a request
  /// whose completion callback fulfils the returned Future with
  /// `unpack(result)`. std::nullopt when a non-blocking submit found the
  /// queue full; a blocking submit throws SubmitTimeout instead, so its
  /// optional always holds a Future.
  template <class T, class R, class Enqueue, class Unpack = std::identity>
  std::optional<Future<T>> submit(bool block, Enqueue&& enqueue,
                                  Unpack unpack = {}) {
    auto prom = std::make_shared<std::promise<T>>();
    Future<T> fut(prom->get_future(), nullptr);
    const Admit a = enqueue(
        Finish<R>([prom, unpack = std::move(unpack)](R&& res,
                                                      std::exception_ptr err) {
          if (err) {
            prom->set_exception(err);
          } else {
            prom->set_value(unpack(std::move(res)));
          }
        }),
        block);
    if (block) throw_on(a);
    if (a != Admit::kOk) return std::nullopt;
    return fut;
  }

  struct PendingReq {
    Kind kind = Kind::Sort;
    uint64_t ticket = 0;
    uint64_t tenant = 0;
    /// Sort keys / join left keys / group-by keys.
    std::vector<uint64_t> keys;
    /// Join right keys / group-by values (unused for sorts).
    std::vector<uint64_t> keys2;
    size_t bound = 0;     ///< effective join output / group bound
    bool banded = false;  ///< join: band mode
    uint64_t band = 0;    ///< join: band half-width
    rel::Agg agg = rel::Agg::Sum;  ///< group-by operator (compat key)
    uint64_t stream = 0;  ///< content-derived tie-normalization stream
                          ///< (sorts only; join/group-by have no free
                          ///< tie order to normalize)
    bool coalescible = false;
    /// Rows charged against max_batch_elems when coalescing: input rows
    /// plus, for join/group-by, the output bound (the request's share of
    /// the batched frame).
    size_t footprint = 0;
    std::chrono::steady_clock::time_point enqueued{};
    FinishFn finish;            ///< exactly one of the three is set,
    JoinFinishFn finish_join;   ///< matching `kind`
    GroupFinishFn finish_group;
  };

  struct Batch {
    std::vector<PendingReq> reqs;  ///< all of one kind (and one agg)
    Kind kind = Kind::Sort;
    size_t done = 0;         ///< requests already finished (error scoping)
  };

  std::optional<Future<std::vector<uint64_t>>> submit_sort(
      uint64_t tenant, std::vector<uint64_t> keys, bool block);
  std::optional<Future<rel::JoinResult<uint64_t, uint64_t>>> submit_join(
      uint64_t tenant, std::vector<uint64_t> left,
      std::vector<uint64_t> right, bool banded, uint64_t band,
      size_t output_bound, bool block);
  std::optional<Future<rel::GroupByResult>> submit_group(
      uint64_t tenant, std::vector<uint64_t> keys,
      std::vector<uint64_t> values, rel::Agg agg, size_t group_bound,
      bool block);
  Admit enqueue(uint64_t tenant, std::vector<uint64_t> keys, FinishFn finish,
                bool block);
  Admit enqueue_join(uint64_t tenant, std::vector<uint64_t> left,
                     std::vector<uint64_t> right, bool banded, uint64_t band,
                     size_t output_bound, JoinFinishFn finish, bool block);
  Admit enqueue_group(uint64_t tenant, std::vector<uint64_t> keys,
                      std::vector<uint64_t> values, rel::Agg agg,
                      size_t group_bound, GroupFinishFn finish, bool block);
  /// Common admission tail: space wait, ticket, queue push, accounting.
  Admit admit(PendingReq&& req, bool block);
  static void throw_on(Admit a);
  static void fail_req(PendingReq& r, std::exception_ptr err);
  size_t max_batch_requests_for(Kind k) const;
  void dispatcher_loop();
  bool ripe_locked() const;
  std::shared_ptr<Batch> carve_locked();
  void run_batch(Batch& b);
  void run_sort(Batch& b);
  void run_join(Batch& b);
  void run_group(Batch& b);
  /// Record one finished request's enqueue->ready latency (metrics-gated).
  void observe_latency(const PendingReq& r) const;

  Runtime& rt_;
  Options opts_;
  /// Holds the obs metrics gate open while the Service lives
  /// (Options::metrics; tracing stays governed by the Runtime).
  obs::ScopedEnable obs_enable_;
  /// Registry baselines captured at construction: stats() reports this
  /// Service's latency slice as snapshot-minus-baseline, so a second
  /// Service (or an earlier one in the same process) doesn't bleed in.
  std::array<obs::HistSnapshot, kNumKinds> lat_base_{};

  mutable std::mutex m_;
  std::condition_variable cv_work_;   ///< dispatcher: work/capacity/stop
  std::condition_variable cv_space_;  ///< submitters: queue has room
  std::deque<PendingReq> queue_;
  /// Queued COALESCIBLE rows / requests per kind: the ripeness thresholds
  /// only count rows that could actually ride the next batch — an
  /// uncoalescible (one-slot) request mid-queue must not trip them.
  std::array<size_t, kNumKinds> coal_elems_{};
  std::array<size_t, kNumKinds> coal_count_{};
  size_t inflight_ = 0;
  bool stop_ = false;
  /// Flush watermark: every request with ticket <= flush_upto_ is ripe.
  /// Self-clearing by construction (later requests have larger tickets),
  /// so no stale reset can eat a flush issued while the dispatcher was
  /// parked at the inflight gate.
  uint64_t flush_upto_ = 0;
  uint64_t next_ticket_ = 0;
  Stats stats_;
  std::thread dispatcher_;  ///< last member: started last, joined in dtor
};

}  // namespace dopar::svc
