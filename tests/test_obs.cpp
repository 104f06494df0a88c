// dopar::obs — registry correctness under contention, span nesting and
// ring wraparound, Chrome trace-event export, and the two contracts the
// subsystem is built around:
//
//   * DISABLED MODE: a gated-off hook performs no allocation (pinned here
//     by a counting operator new) — it is one relaxed atomic load and a
//     branch.
//   * NON-PERTURBATION: enabling metrics/tracing changes neither outputs
//     nor replay trace digests, for every registered sorter backend.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dopar.hpp"
#include "testutil.hpp"

// ---- counting operator new (disabled-mode no-allocation assertion) ------

namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

// noinline: with the bodies visible, GCC's -Wmismatched-new-delete
// pattern-matches the inlined free() against new expressions and warns
// spuriously (malloc/free are in fact paired across both replacements).
__attribute__((noinline)) void* operator new(std::size_t sz) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}

__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::size_t) noexcept {
  std::free(p);
}

namespace dopar {
namespace {

// ---- metric primitives --------------------------------------------------

TEST(ObsRegistry, CounterGaugeHistogramBasics) {
  obs::Counter& c = obs::Registry::global().counter("test_obs_basic_total");
  const uint64_t before = c.value();
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), before + 42);

  obs::Gauge& g = obs::Registry::global().gauge("test_obs_basic_gauge");
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
  g.add(10);
  EXPECT_EQ(g.value(), 3);

  // Same name => same object (stable references are the caching contract).
  EXPECT_EQ(&c, &obs::Registry::global().counter("test_obs_basic_total"));
}

TEST(ObsRegistry, HistogramBucketsQuantilesAndSince) {
  obs::Histogram& h = obs::Registry::global().histogram("test_obs_hist");
  const obs::HistSnapshot base = h.snapshot();
  // 100 observations of 100ns, 10 of ~1us, 1 of ~1ms.
  for (int i = 0; i < 100; ++i) h.observe(100);
  for (int i = 0; i < 10; ++i) h.observe(1000);
  h.observe(1000000);
  const obs::HistSnapshot s = h.snapshot().since(base);
  EXPECT_EQ(s.count, 111u);
  EXPECT_EQ(s.sum, 100u * 100 + 10u * 1000 + 1000000u);
  EXPECT_EQ(s.max, 1000000u);
  // p50 lands in the 100ns bucket [64, 127]; p99+ sees the tail.
  EXPECT_LE(s.quantile(0.5), 127u);
  EXPECT_GE(s.quantile(0.5), 100u);
  EXPECT_EQ(s.quantile(1.0), 1000000u);  // clamped to the exact max
  EXPECT_LE(s.quantile(0.95), 2047u);    // inside the ~1us bucket
}

TEST(ObsRegistry, ShardedCountersSumExactlyUnderContention) {
  obs::Counter& c =
      obs::Registry::global().counter("test_obs_contended_total");
  obs::Histogram& h =
      obs::Registry::global().histogram("test_obs_contended_hist");
  const uint64_t cbase = c.value();
  const obs::HistSnapshot hbase = h.snapshot();
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(uint64_t(t) + 1);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value() - cbase, kThreads * kPerThread);
  const obs::HistSnapshot s = h.snapshot().since(hbase);
  EXPECT_EQ(s.count, kThreads * kPerThread);
  EXPECT_EQ(s.max, uint64_t(kThreads));
  uint64_t expect_sum = 0;
  for (int t = 0; t < kThreads; ++t) expect_sum += (uint64_t(t) + 1) * kPerThread;
  EXPECT_EQ(s.sum, expect_sum);
}

TEST(ObsRegistry, RenderTextIsPrometheusShapedAndDeterministic) {
  obs::ScopedEnable metrics(true, false);
  obs::Registry::global().counter("test_obs_render_total").inc(5);
  obs::Registry::global().histogram("test_obs_render_ns").observe(300);
  const std::string text = obs::Registry::global().render_text();
  EXPECT_NE(text.find("# TYPE test_obs_render_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("test_obs_render_total 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_obs_render_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("test_obs_render_ns_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("test_obs_render_ns_sum"), std::string::npos);
  EXPECT_NE(text.find("test_obs_render_ns_count"), std::string::npos);
  EXPECT_EQ(text, obs::Registry::global().render_text());  // deterministic
}

// ---- enable gates -------------------------------------------------------

TEST(ObsGates, ScopedEnablesNestAndRefcount) {
  EXPECT_FALSE(obs::metrics_on());
  EXPECT_FALSE(obs::tracing_on());
  {
    obs::ScopedEnable outer(true, true);
    EXPECT_TRUE(obs::metrics_on());
    EXPECT_TRUE(obs::tracing_on());
    {
      obs::ScopedEnable inner(true, false);
      EXPECT_TRUE(obs::metrics_on());
    }
    // The outer enabler still holds both gates.
    EXPECT_TRUE(obs::metrics_on());
    EXPECT_TRUE(obs::tracing_on());
  }
  EXPECT_FALSE(obs::metrics_on());
  EXPECT_FALSE(obs::tracing_on());
}

// ---- span tracer --------------------------------------------------------

TEST(ObsTracer, NestedSpansRecordWithContainedTimes) {
  obs::ScopedEnable tracing(false, true);
  obs::reset_trace();
  {
    obs::Span outer("test.outer", "a", 1);
    {
      obs::Span inner("test.inner");
      obs::instant("test.mark", "v", 7);
    }
  }
  const std::vector<obs::TraceEvent> evs = obs::snapshot_trace();
  const obs::TraceEvent* outer = nullptr;
  const obs::TraceEvent* inner = nullptr;
  const obs::TraceEvent* mark = nullptr;
  for (const auto& e : evs) {
    if (!e.name) continue;
    const std::string n = e.name;
    if (n == "test.outer") outer = &e;
    if (n == "test.inner") inner = &e;
    if (n == "test.mark") mark = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(mark, nullptr);
  EXPECT_EQ(outer->phase, 'X');
  EXPECT_EQ(mark->phase, 'i');
  EXPECT_STREQ(outer->k0, "a");
  EXPECT_EQ(outer->v0, 1u);
  EXPECT_EQ(mark->v0, 7u);
  // Nesting: the inner span's interval sits inside the outer's.
  EXPECT_LE(outer->t0_ns, inner->t0_ns);
  EXPECT_GE(outer->t1_ns, inner->t1_ns);
  EXPECT_GE(mark->t0_ns, inner->t0_ns);
  EXPECT_EQ(mark->t0_ns, mark->t1_ns);
}

TEST(ObsTracer, RingWrapsKeepingTheNewestEvents) {
  obs::ScopedEnable tracing(false, true);
  obs::reset_trace();
  const size_t total = obs::kRingCapacity + 123;
  for (size_t i = 0; i < total; ++i) {
    obs::instant("test.wrap", "i", i);
  }
  const std::vector<obs::TraceEvent> evs = obs::snapshot_trace();
  size_t wraps = 0;
  uint64_t min_v = ~uint64_t{0};
  uint64_t max_v = 0;
  for (const auto& e : evs) {
    if (e.name && std::string(e.name) == "test.wrap") {
      ++wraps;
      min_v = std::min(min_v, e.v0);
      max_v = std::max(max_v, e.v0);
    }
  }
  // Exactly one ring's worth retained, and it is the newest slice.
  EXPECT_EQ(wraps, obs::kRingCapacity);
  EXPECT_EQ(max_v, total - 1);
  EXPECT_EQ(min_v, total - obs::kRingCapacity);
}

TEST(ObsTracer, DisabledSpansRecordNothing) {
  {
    obs::ScopedEnable tracing(false, true);
    obs::reset_trace();
  }
  ASSERT_FALSE(obs::tracing_on());
  {
    obs::Span span("test.should_not_appear");
    obs::instant("test.should_not_appear_either");
  }
  for (const auto& e : obs::snapshot_trace()) {
    if (!e.name) continue;
    EXPECT_STRNE(e.name, "test.should_not_appear");
    EXPECT_STRNE(e.name, "test.should_not_appear_either");
  }
}

// ---- Chrome export with real library spans ------------------------------

TEST(ObsExport, EquiJoinPhasesExportAsChromeTraceJson) {
  auto rt = Runtime::builder().seed(5).threads(2).tracing().build();
  ASSERT_TRUE(rt.tracing());
  obs::reset_trace();

  // A facade sort first: exercises the rt.sort span and the pool.run span
  // of the arena underneath.
  auto v = rt.make_vec<Elem>(test::random_elems(128, 21));
  rt.sort(v.s());

  std::vector<uint64_t> lk, rk;
  for (uint64_t i = 0; i < 64; ++i) {
    lk.push_back(i % 16);
    rk.push_back(i % 16);
  }
  const auto ident = [](uint64_t k) { return k; };
  rel::JoinOptions jo;
  jo.output_bound = 512;
  const auto res = rt.equi_join(std::span<const uint64_t>(lk), ident,
                                std::span<const uint64_t>(rk), ident, jo);
  EXPECT_GT(res.matched, 0u);

  const std::string path = ::testing::TempDir() + "obs_trace.json";
  ASSERT_TRUE(rt.dump_trace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();

  // Structural sanity plus the layer spans the tentpole promises: facade,
  // relational phases, scheduler admission, pool execution.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
  for (const char* name :
       {"rt.equi_join", "rel.multiplicity", "rel.distribute_expand",
        "rel.align_concat", "sched.primitive", "pool.run", "rt.sort",
        "\"ph\":\"X\"", "\"pid\":1", "\"cat\":\"dopar\""}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
  std::remove(path.c_str());
}

// ---- the non-perturbation contract --------------------------------------

// Enabling observability must not change outputs or replay trace digests:
// obs reads the wall clock and plain memory only, never sim::tick or
// tracked buffers. Battery over every registered sorter backend.
TEST(ObsInvariance, TracingAndMetricsNeverPerturbDigestsOrOutputs) {
  constexpr size_t n = 512;
  for (const std::string& backend : backend_names()) {
    auto run = [&](bool obs_on) {
      auto b = Runtime::builder().seed(1717).trace().backend(backend);
      if (obs_on) b.tracing().metrics();
      auto rt = b.build();
      auto v = rt.make_vec<Elem>(test::random_elems(n, 99));
      rt.sort(v.s());
      std::vector<uint64_t> keys(n);
      for (size_t i = 0; i < n; ++i) keys[i] = v.underlying()[i].key;
      return std::make_pair(keys, rt.trace_digest());
    };
    const auto [keys_off, digest_off] = run(false);
    const auto [keys_on, digest_on] = run(true);
    EXPECT_EQ(keys_off, keys_on) << backend;
    EXPECT_NE(digest_off, 0u) << backend;
    EXPECT_EQ(digest_off, digest_on) << backend;
  }
}

// ---- the disabled-mode contract -----------------------------------------

TEST(ObsDisabled, GatedOffHooksNeverAllocate) {
  ASSERT_FALSE(obs::metrics_on());
  ASSERT_FALSE(obs::tracing_on());
  // Warm up: touch the hook shapes once so one-time lazy state (if any)
  // is excluded from the measured window.
  {
    obs::Span span("test.noalloc");
    obs::instant("test.noalloc");
  }
  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 100000; ++i) {
    obs::Span span("test.noalloc", "k", uint64_t(i));
    obs::instant("test.noalloc", "k", uint64_t(i));
    if (obs::metrics_on()) {
      obs::Registry::global().counter("test_noalloc_total").inc();
    }
  }
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), before);
}

// ---- serving-layer latency histograms -----------------------------------

TEST(ObsService, LatencySummariesAndMetricsTextCoverServedRequests) {
  auto rt = Runtime::builder().threads(0).seed(3).max_job_workers(4).build();
  svc::Options o;
  o.window = std::chrono::microseconds(100);
  dopar::Service svc(rt, o);

  constexpr size_t kReqs = 12;
  std::vector<Future<std::vector<uint64_t>>> futs;
  for (size_t r = 0; r < kReqs; ++r) {
    std::vector<uint64_t> keys(64);
    for (size_t i = 0; i < keys.size(); ++i) {
      keys[i] = util::hash_rand(r, i) % 1000;
    }
    futs.push_back(svc.sort(r, std::move(keys)));
  }
  for (auto& f : futs) (void)f.get();

  const auto st = svc.stats();
  const auto& lat = st.kinds[size_t(Service::Kind::Sort)].latency;
  EXPECT_EQ(lat.count, kReqs);
  EXPECT_GT(lat.p50_ns, 0u);
  EXPECT_LE(lat.p50_ns, lat.p95_ns);
  EXPECT_LE(lat.p95_ns, lat.p99_ns);
  EXPECT_LE(lat.p99_ns, lat.max_ns);
  // Sanity ceiling: a 64-key sort served within a minute.
  EXPECT_LT(lat.max_ns, uint64_t{60} * 1000 * 1000 * 1000);

  const std::string text = Service::metrics_text();
  EXPECT_NE(text.find("dopar_svc_latency_ns_sort_count"), std::string::npos);
  EXPECT_NE(text.find("dopar_svc_window_wait_ns"), std::string::npos);
  EXPECT_NE(text.find("dopar_svc_batch_occupancy"), std::string::npos);
}

TEST(ObsService, LatencyIsCountedBeforeTheFutureIsReady) {
  // get() then stats() must always see the request just served: the
  // latency is observed before the promise is fulfilled, never after.
  auto rt = Runtime::builder().threads(0).seed(5).max_job_workers(4).build();
  svc::Options o;
  o.window = std::chrono::microseconds(50);
  dopar::Service svc(rt, o);
  size_t want[3] = {0, 0, 0};
  for (size_t r = 0; r < 50; ++r) {
    std::vector<uint64_t> keys(16), vals(16);
    for (size_t i = 0; i < keys.size(); ++i) {
      keys[i] = util::hash_rand(r, i) % 8;
      vals[i] = i;
    }
    Service::Kind kind;
    switch (r % 3) {
      case 0:
        (void)svc.sort(r, keys).get();
        kind = Service::Kind::Sort;
        break;
      case 1:
        (void)svc.equi_join(r, keys, vals, 64).get();
        kind = Service::Kind::Join;
        break;
      default:
        (void)svc.group_by_aggregate(r, keys, vals, rel::Agg::Sum, 16).get();
        kind = Service::Kind::GroupBy;
        break;
    }
    ++want[size_t(kind)];
    const auto st = svc.stats();
    for (size_t k = 0; k < 3; ++k) {
      ASSERT_EQ(st.kinds[k].latency.count, want[k])
          << "request " << r << " kind " << k;
    }
  }
}

TEST(ObsService, MetricsOptOutLeavesSummariesEmpty) {
  ASSERT_FALSE(obs::metrics_on());
  auto rt = Runtime::builder().threads(0).seed(4).build();
  svc::Options o;
  o.metrics = false;
  dopar::Service svc(rt, o);
  EXPECT_FALSE(obs::metrics_on());
  std::vector<uint64_t> keys = {5, 3, 1};
  (void)svc.sort(0, keys).get();
  const auto st = svc.stats();
  EXPECT_EQ(st.kinds[size_t(Service::Kind::Sort)].latency.count, 0u);
}

}  // namespace
}  // namespace dopar
