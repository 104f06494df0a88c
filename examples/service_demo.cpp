// Serving-layer demo: many tenants firing small sort, join and group-by
// requests at one dopar::Service, which coalesces compatible same-kind
// requests into single shared oblivious plans.
//
// Exit code 0 on success (runs as a smoke test under ctest).

#include <cstdint>
#include <cstdio>
#include <vector>

#include "dopar.hpp"

namespace {

std::vector<uint64_t> keys_for(uint64_t tag, size_t n, uint64_t dom) {
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = dopar::util::hash_rand(tag, i) % dom;
  }
  return keys;
}

}  // namespace

int main() {
  auto rt = dopar::Runtime::builder()
                .threads(0)
                .seed(7)
                .max_job_workers(8)
                .build();

  dopar::svc::Options opts;
  opts.window = std::chrono::microseconds(200);
  opts.max_batch_requests = 32;
  dopar::Service svc(rt, opts);

  // Simulate a burst: 24 tenants, 96 requests of 256 keys each.
  constexpr size_t kRequests = 96;
  constexpr size_t kKeys = 256;
  std::vector<dopar::Future<std::vector<uint64_t>>> futs;
  futs.reserve(kRequests);
  for (size_t r = 0; r < kRequests; ++r) {
    futs.push_back(
        svc.sort(/*tenant=*/r % 24, keys_for(r, kKeys, 100000)));
  }

  // Relational traffic rides the same queue: a round of small equi-joins
  // (one shared batched join plan per carve) and Sum group-bys.
  constexpr size_t kJoins = 16;
  constexpr size_t kGroups = 16;
  std::vector<dopar::Future<dopar::rel::JoinResult<uint64_t, uint64_t>>> jfuts;
  jfuts.reserve(kJoins);
  for (size_t r = 0; r < kJoins; ++r) {
    jfuts.push_back(svc.equi_join(/*tenant=*/r % 8,
                                  keys_for(1000 + r, 64, 128),
                                  keys_for(2000 + r, 64, 128),
                                  /*output_bound=*/256));
  }
  std::vector<dopar::Future<dopar::rel::GroupByResult>> gfuts;
  gfuts.reserve(kGroups);
  for (size_t r = 0; r < kGroups; ++r) {
    gfuts.push_back(svc.group_by_aggregate(/*tenant=*/r % 8,
                                           keys_for(3000 + r, 96, 12),
                                           keys_for(4000 + r, 96, 1000),
                                           dopar::rel::Agg::Sum));
  }

  size_t bad = 0;
  for (auto& f : futs) {
    const std::vector<uint64_t> sorted = f.get();
    if (sorted.size() != kKeys) ++bad;
    for (size_t i = 1; i < sorted.size(); ++i) {
      if (sorted[i - 1] > sorted[i]) {
        ++bad;
        break;
      }
    }
  }
  uint64_t pairs = 0;
  for (auto& f : jfuts) {
    const auto res = f.get();
    if (res.rows.size() > 256) ++bad;
    pairs += res.matched;
  }
  uint64_t groups = 0;
  for (auto& f : gfuts) {
    const auto res = f.get();
    // Ascending distinct keys is the output contract.
    for (size_t i = 1; i < res.groups.size(); ++i) {
      if (res.groups[i - 1].key >= res.groups[i].key) {
        ++bad;
        break;
      }
    }
    groups += res.groups_total;
  }
  if (pairs == 0 || groups == 0) ++bad;  // the demo workloads must match

  const auto st = svc.stats();
  using K = dopar::Service::Kind;
  std::printf("served %llu requests in %llu batches "
              "(%llu coalesced, %llu solo); per-kind batches "
              "sort %llu / join %llu / group-by %llu; join pairs %llu; "
              "groups %llu; queue high-water %zu; errors %zu\n",
              static_cast<unsigned long long>(st.accepted),
              static_cast<unsigned long long>(st.batches),
              static_cast<unsigned long long>(st.coalesced_requests),
              static_cast<unsigned long long>(st.solo_requests),
              static_cast<unsigned long long>(st.kinds[size_t(K::Sort)].batches),
              static_cast<unsigned long long>(st.kinds[size_t(K::Join)].batches),
              static_cast<unsigned long long>(
                  st.kinds[size_t(K::GroupBy)].batches),
              static_cast<unsigned long long>(pairs),
              static_cast<unsigned long long>(groups),
              st.queue_depth_high_water, bad);

  // Per-kind end-to-end latency summaries from the obs histograms
  // (Options::metrics defaults to true).
  static const char* kKindNames[] = {"sort", "join", "group-by"};
  for (size_t k = 0; k < dopar::Service::kNumKinds; ++k) {
    const auto& l = st.kinds[k].latency;
    std::printf("latency %-8s count %6llu  p50 %8llu ns  p95 %8llu ns  "
                "p99 %8llu ns  max %8llu ns\n",
                kKindNames[k], static_cast<unsigned long long>(l.count),
                static_cast<unsigned long long>(l.p50_ns),
                static_cast<unsigned long long>(l.p95_ns),
                static_cast<unsigned long long>(l.p99_ns),
                static_cast<unsigned long long>(l.max_ns));
  }
  std::printf("---- metrics_text() ----\n%s",
              dopar::Service::metrics_text().c_str());

  // With DOPAR_TRACE set (or Builder::tracing), dump the span rings as
  // Chrome trace-event JSON — load it in chrome://tracing or Perfetto.
  if (rt.tracing()) {
    const char* path = "service_demo_trace.json";
    if (rt.dump_trace(path)) {
      std::printf("trace written to %s\n", path);
    } else {
      std::printf("trace dump to %s FAILED\n", path);
      ++bad;
    }
  }
  return bad == 0 && st.accepted == kRequests + kJoins + kGroups ? 0 : 1;
}
