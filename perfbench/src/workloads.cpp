#include "workloads.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <random>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include "insecure/graph.hpp"
#include "oracles.hpp"

namespace pb {

namespace {

using dopar::Future;
using dopar::Runtime;
using dopar::Service;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// A heap Runtime (it is pinned to its address, so it cannot be moved).
std::unique_ptr<Runtime> make_runtime(const Runtime::Builder& b) {
  return std::unique_ptr<Runtime>(new Runtime(b.build()));
}

// ---- closed loop -----------------------------------------------------------

/// One client that issues its next op only after the previous one
/// returned. prepare() and check() run outside the timed region.
class ClosedLoop : public Workload {
 public:
  void setup(bool traced) final {
    rt_ = make_runtime(builder().threads(p_.threads).seed(p_.seed).tracing(
        traced));
    // The warm-up op takes no layer samples.
    const bool measuring = std::exchange(measuring_, false);
    prepare(0);
    execute(0, 0);
    const bool corrupt = std::exchange(corrupt_, false);
    const bool ok = check(0);
    corrupt_ = corrupt;
    measuring_ = measuring;
    if (!ok) throw std::runtime_error("warm-up op failed its oracle");
  }
  void teardown() override { rt_.reset(); }

  /// Runs every op on the Runtime the last setup() built. Which instance
  /// that is matters: on a 4-vCPU x86-64 VM, instances built after another
  /// was torn down run every op at one of two speeds 25-40% apart, picked
  /// afresh per instance, while the first instance of a process runs at
  /// the same speed in every run. An untraced run therefore measures on the
  /// process's first Runtime (see run_untraced in main.cpp).
  Phase run(double seconds, size_t min_ops) override {
    Phase ph;
    samples_.clear();
    measuring_ = true;
    const auto start = Clock::now();
    for (size_t i = 0; ph.attempted < min_ops || secs_since(start) < seconds;
         ++i) {
      ++ph.attempted;
      prepare(i);
      bool ok = false;
      const auto t0 = Clock::now();
      auto t1 = t0;
      try {
        {
          Span op("pb.op");
          execute(i, op.id());
        }
        t1 = Clock::now();
        ok = check(i);
      } catch (const std::exception& e) {
        t1 = Clock::now();
        std::fprintf(stderr, "op %zu threw: %s\n", i, e.what());
      }
      ph.busy_s += std::chrono::duration<double>(t1 - t0).count();
      if (!ok) {
        ++ph.failed;
        continue;
      }
      ++ph.completed;
      ph.lat_ms.push_back(ms_between(t0, t1));
    }
    measuring_ = false;
    ph.wall_s = secs_since(start);
    return ph;
  }

 protected:
  explicit ClosedLoop(const Params& p) : p_(p) {}
  /// The workload's Runtime configuration (threads, seed and tracing are
  /// set by setup()).
  virtual Runtime::Builder builder() const { return Runtime::builder(); }
  virtual void prepare(size_t) {}
  /// The timed op; `op_span` is the enclosing span's id (0 untraced).
  virtual void execute(size_t i, uint64_t op_span) = 0;
  virtual bool check(size_t i) = 0;

  /// Records one layer sample of a measured op. Samples cover the last
  /// run() only, and setup()'s warm-up op takes none.
  void sample(const std::string& metric, double v) {
    if (measuring_) samples_[metric].push_back(v);
  }
  double median_of(const std::string& metric) const {
    const auto f = samples_.find(metric);
    return f == samples_.end() ? 0 : median(f->second);
  }
  double sum_of(const std::string& metric) const {
    const auto f = samples_.find(metric);
    return f == samples_.end()
               ? 0
               : std::accumulate(f->second.begin(), f->second.end(), 0.0);
  }

  Params p_;
  std::unique_ptr<Runtime> rt_;

 private:
  bool measuring_ = false;
  std::map<std::string, std::vector<double>> samples_;
};

// ---- sort_osort ------------------------------------------------------------

class SortWorkload final : public ClosedLoop {
 public:
  explicit SortWorkload(const Params& p) : ClosedLoop(p) {
    const size_t n = p.tiny ? size_t{1} << 10 : size_t{1} << 16;
    std::mt19937_64 rng(p.seed ^ 0x50a7);
    for (auto& in : inputs_) {
      in.resize(n);
      for (size_t i = 0; i < n; ++i) {
        in[i].key = rng() % (n / 4);  // ~4 copies of each key
        in[i].payload = i;
      }
    }
  }

  void teardown() override {
    buf_ = {};
    ClosedLoop::teardown();
  }
  void layer_metrics(Metrics& m) const override {
    m["core.sort_ms"] = {median_of("core.sort_ms"), "ms"};
  }
  int setup_reps() const override { return 5; }

 private:
  const std::vector<dopar::Elem>& input(size_t i) const {
    return inputs_[i % inputs_.size()];
  }
  void prepare(size_t i) override { buf_ = rt_->make_vec(input(i)); }
  void execute(size_t, uint64_t) override {
    const auto t0 = Clock::now();
    {
      Span s("pb.sort");
      rt_->sort(buf_.s());
    }
    sample("core.sort_ms", ms_between(t0, Clock::now()));
  }
  bool check(size_t i) override {
    std::vector<dopar::Elem>& out = buf_.underlying();
    if (corrupt_ && out.size() > 1) std::swap(out.front(), out.back());
    return sort_matches(input(i), out);
  }

  std::array<std::vector<dopar::Elem>, 2> inputs_;
  dopar::vec<dopar::Elem> buf_;
};

// ---- join_tpch -------------------------------------------------------------

class JoinWorkload final : public ClosedLoop {
 public:
  explicit JoinWorkload(const Params& p) : ClosedLoop(p) {
    const size_t no = p.tiny ? 256 : 4096;
    std::mt19937_64 rng(p.seed ^ 0x7c4);
    for (auto& t : tables_) {
      t = make_tpch(no, 4 * no, rng);
      t.expect_join = join_oracle(t.orders, t.items);
      t.expect_groups = group_oracle(t.items);
    }
  }

  void layer_metrics(Metrics& m) const override {
    m["rel.equi_join_ms"] = {median_of("rel.equi_join_ms"), "ms"};
    m["rel.group_by_ms"] = {median_of("rel.group_by_ms"), "ms"};
    const double bound = sum_of("bound");
    m["rel.pad_frac"] = {bound > 0 ? sum_of("matched") / bound : 0, "frac"};
  }
  int setup_reps() const override { return 9; }

 private:
  const TpchTables& table(size_t i) const {
    return tables_[i % tables_.size()];
  }
  void execute(size_t i, uint64_t) override {
    const TpchTables& t = table(i);
    const auto t0 = Clock::now();
    {
      Span s("pb.equi_join");
      join_ = rt_->equi_join(std::span<const Order>(t.orders), order_key,
                             std::span<const Item>(t.items), item_key,
                             dopar::JoinOptions{.output_bound = t.items.size(),
                                                .sort = {}});
    }
    const auto t1 = Clock::now();
    {
      Span s("pb.group_by_aggregate");
      groups_ = rt_->group_by_aggregate(
          std::span<const Item>(t.items), item_key, item_price,
          dopar::Agg::Sum,
          dopar::GroupByOptions{.group_bound = t.orders.size(), .sort = {}});
    }
    sample("rel.equi_join_ms", ms_between(t0, t1));
    sample("rel.group_by_ms", ms_between(t1, Clock::now()));
    sample("matched", double(join_.matched));
    sample("bound", double(t.items.size()));
  }
  bool check(size_t i) override {
    const TpchTables& t = table(i);
    if (corrupt_ && !join_.rows.empty()) join_.rows[0].second.idx ^= 1;
    return join_rows_match(join_, t.expect_join) &&
           groups_match(groups_, t.expect_groups);
  }

  std::array<TpchTables, 2> tables_;
  dopar::JoinResult<Order, Item> join_;
  dopar::GroupByResult groups_;
};

// ---- graph_cc_msf ----------------------------------------------------------

class GraphWorkload final : public ClosedLoop {
 public:
  explicit GraphWorkload(const Params& p) : ClosedLoop(p) {
    std::mt19937_64 rng(p.seed ^ 0x96a9);
    n_social_ = p.tiny ? 256 : 1024;
    n_mesh_ = p.tiny ? 128 : 512;
    social_ = two_communities(n_social_, rng);
    mesh_ = ring_with_chords(n_mesh_, rng);
    cc_expect_ = dopar::insecure::cc_oracle(n_social_, social_);
    msf_expect_ = dopar::insecure::msf_weight_oracle(n_mesh_, mesh_);
  }

  void layer_metrics(Metrics& m) const override {
    m["apps.cc_ms"] = {median_of("apps.cc_ms"), "ms"};
    m["apps.msf_ms"] = {median_of("apps.msf_ms"), "ms"};
    m["sched.submit_wait_ms"] = {median_of("sched.submit_wait_ms"), "ms"};
    m["sched.overlap"] = {median_of("sched.overlap"), "ratio"};
  }
  int setup_reps() const override { return 5; }

 private:
  Runtime::Builder builder() const override {
    return Runtime::builder().scheduler(dopar::SchedPolicy::Stealing);
  }
  void execute(size_t, uint64_t op_span) override {
    const uint64_t req = op_span;
    const auto t0 = Clock::now();
    Clock::time_point cc0, cc1, msf0, msf1;
    Future<std::vector<uint64_t>> cc_fut;
    Future<std::vector<uint8_t>> msf_fut;
    {
      Span s("pb.submit");
      cc_fut = rt_->submit([&] {
        cc0 = Clock::now();
        std::vector<uint64_t> out;
        {
          Span c("pb.connected_components", req, op_span);
          out = rt_->connected_components(n_social_, social_);
        }
        cc1 = Clock::now();
        return out;
      });
      msf_fut = rt_->submit([&] {
        msf0 = Clock::now();
        std::vector<uint8_t> out;
        {
          Span c("pb.msf", req, op_span);
          out = rt_->msf(n_mesh_, mesh_);
        }
        msf1 = Clock::now();
        return out;
      });
    }
    labels_ = cc_fut.get();
    flags_ = msf_fut.get();
    const auto t1 = Clock::now();
    const double cc = ms_between(cc0, cc1), msf = ms_between(msf0, msf1);
    sample("apps.cc_ms", cc);
    sample("apps.msf_ms", msf);
    sample("sched.submit_wait_ms", ms_between(t0, cc0));
    sample("sched.submit_wait_ms", ms_between(t0, msf0));
    sample("sched.overlap", (cc + msf) / ms_between(t0, t1));
  }
  bool check(size_t) override {
    if (corrupt_ && !labels_.empty()) labels_.back() += 1;
    uint64_t weight = 0;
    for (size_t e = 0; e < mesh_.size(); ++e) {
      if (flags_.at(e)) weight += mesh_[e].w;
    }
    return labels_ == cc_expect_ && flags_.size() == mesh_.size() &&
           weight == msf_expect_;
  }

  size_t n_social_ = 0, n_mesh_ = 0;
  std::vector<dopar::GEdge> social_, mesh_;
  std::vector<uint64_t> cc_expect_;
  uint64_t msf_expect_ = 0;
  std::vector<uint64_t> labels_;
  std::vector<uint8_t> flags_;
};

// ---- svc_mixed_open --------------------------------------------------------

class SvcWorkload final : public Workload {
 public:
  explicit SvcWorkload(const Params& p) : p_(p), pool_(make_svc_pool(p)) {}

  void setup(bool traced) override {
    rt_ = make_runtime(Runtime::builder()
                                        .threads(p_.threads)
                                        .seed(p_.seed)
                                        .tracing(traced));
    svc_ = std::make_unique<Service>(*rt_);
    // Warm-up: one request of each kind, each awaited and checked.
    auto s = svc_->sort(0, pool_.sorts[0].keys);
    auto j = svc_->equi_join(0, pool_.joins[0].left, pool_.joins[0].right,
                             pool_.joins[0].bound);
    auto g = svc_->group_by_aggregate(0, pool_.groups[0].keys,
                                      pool_.groups[0].values,
                                      dopar::Agg::Sum);
    const bool ok = s.get() == pool_.sorts[0].expect &&
                    join_pairs_match(j.get(), pool_.joins[0]) &&
                    groups_match(g.get(), pool_.groups[0].expect);
    if (!ok) throw std::runtime_error("svc_mixed_open warm-up failed");
  }
  void teardown() override {
    svc_.reset();
    rt_.reset();
  }
  int setup_reps() const override { return 7; }

  Phase run(double seconds, size_t) override;

  void layer_metrics(Metrics& m) const override {
    const Service::Stats& a = stats0_;
    const Service::Stats& b = stats1_;
    const double accepted = double(b.accepted - a.accepted);
    const double batches = double(b.batches - a.batches);
    m["svc.admit_us_p50"] = {median(admit_us_), "us"};
    m["svc.batch_reqs_mean"] = {batches > 0 ? accepted / batches : 0,
                                "reqs"};
    m["svc.coalesced_frac"] = {
        accepted > 0 ? double(b.coalesced_requests - a.coalesced_requests) /
                           accepted
                     : 0,
        "frac"};
    m["svc.queue_depth_hw"] = {double(b.queue_depth_high_water), "reqs"};
    m["svc.inflight_hw"] = {double(b.inflight_high_water), "batches"};
    m["svc.policy_switches"] = {double(b.policy_switches - a.policy_switches),
                                "count"};
    m["svc.rejected"] = {double(b.rejected - a.rejected), "count"};
    m["gen.lag_ms_p99"] = {quantile(lag_ms_, 0.99), "ms"};
  }

 private:
  struct Pending {
    Kind kind = kSort;
    size_t idx = 0;
    uint64_t span = 0;
    Clock::time_point due;
    Future<std::vector<uint64_t>> sort;
    Future<dopar::JoinResult<uint64_t, uint64_t>> join;
    Future<dopar::GroupByResult> group;
    bool ready() const {
      constexpr auto zero = std::chrono::seconds(0);
      switch (kind) {
        case kSort: return sort.wait_for(zero) == std::future_status::ready;
        case kJoin: return join.wait_for(zero) == std::future_status::ready;
        default: return group.wait_for(zero) == std::future_status::ready;
      }
    }
  };

  /// Submit one request; false when the Service refused it.
  bool submit(Pending& r);
  /// Take the result of a ready request and check it against its oracle.
  bool finish(Pending& r);

  Params p_;
  SvcPool pool_;
  std::unique_ptr<Runtime> rt_;
  std::unique_ptr<Service> svc_;
  Service::Stats stats0_, stats1_;
  std::vector<double> admit_us_, lag_ms_;
};

bool SvcWorkload::submit(Pending& r) {
  const uint64_t tenant = r.idx % 16;
  Span admit("pb.admit", r.span, r.span);
  bool ok = false;
  switch (r.kind) {
    case kSort: {
      auto keys = pool_.sorts[r.idx].keys;
      const auto t0 = Clock::now();
      auto f = svc_->try_sort(tenant, std::move(keys));
      admit_us_.push_back(ms_between(t0, Clock::now()) * 1e3);
      if ((ok = f.has_value())) r.sort = std::move(*f);
      break;
    }
    case kJoin: {
      const JoinReq& q = pool_.joins[r.idx];
      auto left = q.left;
      auto right = q.right;
      const auto t0 = Clock::now();
      auto f = q.band == 0
                   ? svc_->try_equi_join(tenant, std::move(left),
                                         std::move(right), q.bound)
                   : svc_->try_band_join(tenant, std::move(left),
                                         std::move(right), q.band, q.bound);
      admit_us_.push_back(ms_between(t0, Clock::now()) * 1e3);
      if ((ok = f.has_value())) r.join = std::move(*f);
      break;
    }
    default: {
      const GroupReq& q = pool_.groups[r.idx];
      auto keys = q.keys;
      auto values = q.values;
      const auto t0 = Clock::now();
      auto f = svc_->try_group_by_aggregate(tenant, std::move(keys),
                                            std::move(values),
                                            dopar::Agg::Sum);
      admit_us_.push_back(ms_between(t0, Clock::now()) * 1e3);
      if ((ok = f.has_value())) r.group = std::move(*f);
      break;
    }
  }
  return ok;
}

bool SvcWorkload::finish(Pending& r) {
  try {
    switch (r.kind) {
      case kSort: {
        auto out = r.sort.get();
        if (corrupt_ && !out.empty()) out[0] ^= 1;
        return out == pool_.sorts[r.idx].expect;
      }
      case kJoin: {
        auto out = r.join.get();
        if (corrupt_) out.matched += 1;
        return join_pairs_match(out, pool_.joins[r.idx]);
      }
      default: {
        auto out = r.group.get();
        if (corrupt_ && !out.groups.empty()) out.groups[0].value += 1;
        return groups_match(out, pool_.groups[r.idx].expect);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "request threw: %s\n", e.what());
    return false;
  }
}

Phase SvcWorkload::run(double seconds, size_t) {
  Phase ph;
  admit_us_.clear();
  lag_ms_.clear();
  std::mt19937_64 rng(p_.seed ^ 0xa771);
  std::exponential_distribution<double> gap(kSvcRate);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  auto next_gap = [&] {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(gap(rng)));
  };
  // Polling granularity of the completion sweep: completions are observed
  // at most this late.
  constexpr auto kPoll = std::chrono::microseconds(100);
  // A request still unfinished this long after the schedule ends counts
  // as failed.
  constexpr auto kDrainLimit = std::chrono::seconds(60);

  stats0_ = svc_->stats();
  std::vector<Pending> outstanding;
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  auto due = start + next_gap();
  auto last_done = start;
  Tracer& tracer = Tracer::get();
  while (true) {
    auto now = Clock::now();
    if (due < end && now >= due) {
      Pending r;
      const double u = unit(rng);
      r.kind = u < 0.6 ? kSort : (u < 0.9 ? kJoin : kGroupBy);
      const size_t pool_n = r.kind == kSort   ? pool_.sorts.size()
                            : r.kind == kJoin ? pool_.joins.size()
                                              : pool_.groups.size();
      r.idx = rng() % pool_n;
      r.due = due;
      r.span = tracer.on() ? tracer.next_id() : 0;
      lag_ms_.push_back(ms_between(due, now));
      ++ph.attempted;
      if (submit(r)) {
        outstanding.push_back(std::move(r));
      } else {
        ++ph.failed;  // refused: the queue was full
      }
      due += next_gap();
      continue;
    }
    // Sweep: stamp and check every request that has completed.
    for (size_t i = 0; i < outstanding.size();) {
      Pending& r = outstanding[i];
      if (!r.ready()) {
        ++i;
        continue;
      }
      const auto done = Clock::now();
      last_done = std::max(last_done, done);
      record_span("pb.request", r.span, r.span, 0, r.due, done);
      if (finish(r)) {
        ++ph.completed;
        const double ms = ms_between(r.due, done);
        ph.lat_ms.push_back(ms);
        ph.kind_ms[r.kind].push_back(ms);
      } else {
        ++ph.failed;
      }
      outstanding[i] = std::move(outstanding.back());
      outstanding.pop_back();
    }
    now = Clock::now();
    if (due >= end) {
      if (outstanding.empty()) break;
      if (now - end > kDrainLimit) {
        ph.failed += outstanding.size();
        std::fprintf(stderr, "%zu requests never completed\n",
                     outstanding.size());
        break;
      }
    }
    auto wake = now + kPoll;
    if (due < end && due < wake) wake = due;
    std::this_thread::sleep_until(wake);
  }
  ph.wall_s = std::chrono::duration<double>(last_done - start).count();
  ph.busy_s = ph.wall_s;
  stats1_ = svc_->stats();
  ph.lag_ms_p99 = quantile(lag_ms_, 0.99);
  ph.invalid = ph.lag_ms_p99 > kMaxLagMs;
  return ph;
}

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Params& p) {
  if (name == "svc_mixed_open") return std::make_unique<SvcWorkload>(p);
  if (name == "sort_osort") return std::make_unique<SortWorkload>(p);
  if (name == "join_tpch") return std::make_unique<JoinWorkload>(p);
  if (name == "graph_cc_msf") return std::make_unique<GraphWorkload>(p);
  return nullptr;
}

}  // namespace pb
