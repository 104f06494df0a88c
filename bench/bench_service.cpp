// Serving-layer throughput: naive per-request submission (each request
// runs its own full oblivious pipeline) vs the Service's coalescer —
// sorts merged into one comparator-network sort over slot-tagged
// composite keys, and equi-joins merged into one batched join plan
// (shared multiplicity sort + one summed-bound distribute-expand frame).
// The "lone" sort rows send the same requests through the Service one at
// a time (submit, flush, wait), so every request is a one-slot batch: the
// latency a request pays when it finds no batch-mate.
//
// Wall-clock, machine-dependent — the committed BENCH_service.json rows
// are report-only in CI ("service" and "service_latency" are listed in
// WALL_CLOCK_SECTIONS). Schema notes: for the "service" section the
// `work` column holds REQUESTS PER SECOND (higher is better), not
// microseconds; the backend column tags the queue depth ("q=64"). The
// "service_latency" section packs per-request latency quantiles into the
// three numeric columns: work/span/misses = p50/p95/p99 in NANOSECONDS
// (admission to promise-set, from the obs log2-bucket histograms — the
// same series Service::stats() summarizes). Best of kIters runs per
// configuration; latency quantiles pool all kIters runs.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dopar.hpp"

namespace {

using Clock = std::chrono::steady_clock;
constexpr int kIters = 3;

std::vector<uint64_t> req_keys(uint64_t tag, size_t n) {
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = dopar::util::hash_rand(tag, i) % 100000;
  }
  return keys;
}

std::vector<uint64_t> join_keys(uint64_t tag, size_t n) {
  // Key domain 4n: every table pair shares keys, so joins do real work.
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = dopar::util::hash_rand(tag, i) % (4 * n);
  }
  return keys;
}

dopar::Runtime make_rt() {
  return dopar::Runtime::builder()
      .threads(0)
      .seed(1)
      .max_job_workers(8)
      .build();
}

// Latency series. The coalesced paths reuse the Service's own obs
// histograms; the naive paths observe into bench-local ones so both sides
// share the same log2-bucket quantile math.
dopar::obs::Histogram& naive_sort_lat() {
  static dopar::obs::Histogram& h = dopar::obs::Registry::global().histogram(
      "bench_svc_naive_latency_ns_sort");
  return h;
}
dopar::obs::Histogram& naive_join_lat() {
  static dopar::obs::Histogram& h = dopar::obs::Registry::global().histogram(
      "bench_svc_naive_latency_ns_join");
  return h;
}
dopar::obs::Histogram& svc_sort_lat() {
  static dopar::obs::Histogram& h =
      dopar::obs::Registry::global().histogram("dopar_svc_latency_ns_sort");
  return h;
}
dopar::obs::Histogram& svc_join_lat() {
  static dopar::obs::Histogram& h =
      dopar::obs::Registry::global().histogram("dopar_svc_latency_ns_join");
  return h;
}

uint64_t ns_since(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// What an application does without the serving layer: one submitted job
/// per request, each running the canonical full pipeline.
double naive_rps(size_t n, size_t depth) {
  auto rt = make_rt();
  std::vector<std::vector<uint64_t>> inputs;
  inputs.reserve(depth);
  for (size_t r = 0; r < depth; ++r) inputs.push_back(req_keys(r, n));

  const auto t0 = Clock::now();
  std::vector<dopar::Future<uint64_t>> futs;
  futs.reserve(depth);
  for (size_t r = 0; r < depth; ++r) {
    const auto tr0 = Clock::now();
    futs.push_back(rt.submit([&rt, &inputs, r, tr0] {
      std::vector<dopar::Elem> rows(inputs[r].size());
      for (size_t i = 0; i < rows.size(); ++i) {
        rows[i].key = inputs[r][i];
        rows[i].payload = i;
      }
      auto v = rt.make_vec(std::move(rows));
      rt.sort(v.s());
      naive_sort_lat().observe(ns_since(tr0));  // submit -> result ready
      return v.s().raw(0).key;
    }));
  }
  for (auto& f : futs) (void)f.get();
  const double secs =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return static_cast<double>(depth) / secs;
}

/// The same requests through the Service, coalesced at full queue depth.
double coalesced_rps(size_t n, size_t depth) {
  auto rt = make_rt();
  dopar::svc::Options o;
  o.window = std::chrono::minutes(10);  // flush() triggers the dispatch
  o.max_batch_requests = depth;
  o.max_batch_elems = depth * n;
  o.queue_limit = depth;
  dopar::Service s(rt, o);
  std::vector<std::vector<uint64_t>> inputs;
  inputs.reserve(depth);
  for (size_t r = 0; r < depth; ++r) inputs.push_back(req_keys(r, n));

  const auto t0 = Clock::now();
  std::vector<dopar::Future<std::vector<uint64_t>>> futs;
  futs.reserve(depth);
  for (size_t r = 0; r < depth; ++r) {
    futs.push_back(s.sort(/*tenant=*/r, inputs[r]));
  }
  s.flush();
  for (auto& f : futs) (void)f.get();
  const double secs =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return static_cast<double>(depth) / secs;
}

/// Per-request equi-join without the serving layer: one submitted job per
/// request, each running the canonical solo join pipeline.
double join_naive_rps(size_t n, size_t depth) {
  auto rt = make_rt();
  const size_t bound = 4 * n;  // key domain 4n -> ~n/4 expected matches
  std::vector<std::vector<uint64_t>> lk(depth), rk(depth);
  for (size_t r = 0; r < depth; ++r) {
    lk[r] = join_keys(2 * r, n);
    rk[r] = join_keys(2 * r + 1, n);
  }

  const auto t0 = Clock::now();
  std::vector<dopar::Future<uint64_t>> futs;
  futs.reserve(depth);
  for (size_t r = 0; r < depth; ++r) {
    const auto tr0 = Clock::now();
    futs.push_back(rt.submit([&rt, &lk, &rk, r, bound, tr0] {
      const auto ident = [](uint64_t k) { return k; };
      dopar::rel::JoinOptions jo;
      jo.output_bound = bound;
      auto res = rt.equi_join(std::span<const uint64_t>(lk[r]), ident,
                              std::span<const uint64_t>(rk[r]), ident, jo);
      naive_join_lat().observe(ns_since(tr0));  // submit -> result ready
      return res.matched;
    }));
  }
  for (auto& f : futs) (void)f.get();
  const double secs =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return static_cast<double>(depth) / secs;
}

/// The same joins through the Service: one shared batched join plan.
double join_coalesced_rps(size_t n, size_t depth) {
  auto rt = make_rt();
  const size_t bound = 4 * n;
  dopar::svc::Options o;
  o.window = std::chrono::minutes(10);  // flush() triggers the dispatch
  o.max_batch_requests = depth;
  o.max_batch_elems = depth * (2 * n + bound);  // per-request footprint
  o.queue_limit = depth;
  dopar::Service s(rt, o);
  std::vector<std::vector<uint64_t>> lk(depth), rk(depth);
  for (size_t r = 0; r < depth; ++r) {
    lk[r] = join_keys(2 * r, n);
    rk[r] = join_keys(2 * r + 1, n);
  }

  const auto t0 = Clock::now();
  std::vector<dopar::Future<dopar::rel::JoinResult<uint64_t, uint64_t>>> futs;
  futs.reserve(depth);
  for (size_t r = 0; r < depth; ++r) {
    futs.push_back(s.equi_join(/*tenant=*/r, lk[r], rk[r], bound));
  }
  s.flush();
  for (auto& f : futs) (void)f.get();
  const double secs =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return static_cast<double>(depth) / secs;
}

/// The same requests through the Service one at a time: each is flushed
/// and awaited before the next is submitted, so each runs as a one-slot
/// batch.
double lone_rps(size_t n, size_t depth) {
  auto rt = make_rt();
  dopar::svc::Options o;
  o.window = std::chrono::minutes(10);  // flush() triggers each dispatch
  dopar::Service s(rt, o);
  std::vector<std::vector<uint64_t>> inputs;
  inputs.reserve(depth);
  for (size_t r = 0; r < depth; ++r) inputs.push_back(req_keys(r, n));

  const auto t0 = Clock::now();
  for (size_t r = 0; r < depth; ++r) {
    auto f = s.sort(/*tenant=*/r, inputs[r]);
    s.flush();
    (void)f.get();
  }
  const double secs =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return static_cast<double>(depth) / secs;
}

template <class F>
double best_of(F&& f) {
  double best = 0;
  for (int i = 0; i < kIters; ++i) best = std::max(best, f());
  return best;
}

/// Pooled latency quantiles of the delta since `base` as one row:
/// work/span/misses = p50/p95/p99 ns (see the header comment).
void record_latency(const char* config, size_t n, const std::string& tag,
                    dopar::obs::Histogram& h,
                    const dopar::obs::HistSnapshot& base) {
  const dopar::obs::HistSnapshot s = h.snapshot().since(base);
  dopar::bench::Measure m;
  m.work = s.quantile(0.50);
  m.span = s.quantile(0.95);
  m.misses = s.quantile(0.99);
  dopar::bench::record("service_latency", config, n, tag, m);
  std::printf("%8zu latency %-14s p50 %10llu ns  p95 %10llu ns  "
              "p99 %10llu ns\n",
              n, config, (unsigned long long)m.work,
              (unsigned long long)m.span, (unsigned long long)m.misses);
}

void run_config(size_t n, size_t depth) {
  // Metrics gate open for the whole configuration so both the bench-local
  // naive histograms and the Service's own latency series record.
  dopar::obs::ScopedEnable metrics(true, false);
  const dopar::obs::HistSnapshot nb = naive_sort_lat().snapshot();
  const double naive = best_of([&] { return naive_rps(n, depth); });
  const dopar::obs::HistSnapshot cb = svc_sort_lat().snapshot();
  const double coal = best_of([&] { return coalesced_rps(n, depth); });
  const dopar::obs::HistSnapshot lb = svc_sort_lat().snapshot();
  const double lone = best_of([&] { return lone_rps(n, depth); });
  const std::string tag = "q=" + std::to_string(depth);
  dopar::bench::Measure mn, mc, ml;
  mn.work = static_cast<uint64_t>(naive);  // requests/sec (see header)
  mc.work = static_cast<uint64_t>(coal);
  ml.work = static_cast<uint64_t>(lone);
  dopar::bench::record("service", "naive", n, tag, mn);
  dopar::bench::record("service", "coalesced", n, tag, mc);
  dopar::bench::record("service", "lone", n, tag, ml);
  std::printf("%8zu %8zu %14.0f %14.0f %14.0f %9.2fx\n", n, depth, naive,
              coal, lone, coal / naive);
  record_latency("naive", n, tag, naive_sort_lat(), nb);
  record_latency("coalesced", n, tag, svc_sort_lat(), cb);
  record_latency("lone", n, tag, svc_sort_lat(), lb);
}

void run_join_config(size_t n, size_t depth) {
  dopar::obs::ScopedEnable metrics(true, false);
  const dopar::obs::HistSnapshot nb = naive_join_lat().snapshot();
  const double naive = best_of([&] { return join_naive_rps(n, depth); });
  const dopar::obs::HistSnapshot cb = svc_join_lat().snapshot();
  const double coal = best_of([&] { return join_coalesced_rps(n, depth); });
  const std::string tag = "q=" + std::to_string(depth);
  dopar::bench::Measure mn, mc;
  mn.work = static_cast<uint64_t>(naive);  // requests/sec (see header)
  mc.work = static_cast<uint64_t>(coal);
  dopar::bench::record("service", "join_naive", n, tag, mn);
  dopar::bench::record("service", "join_coalesced", n, tag, mc);
  std::printf("%8zu %8zu %14.0f %14.0f %9.2fx\n", n, depth, naive, coal,
              coal / naive);
  record_latency("join_naive", n, tag, naive_join_lat(), nb);
  record_latency("join_coalesced", n, tag, svc_join_lat(), cb);
}

}  // namespace

int main() {
  dopar::bench::print_header(
      "serving throughput: naive vs coalesced vs lone (requests/sec)",
      "       n    depth      naive r/s  coalesced r/s       lone r/s"
      "    speedup");
  for (size_t depth : {size_t{16}, size_t{64}, size_t{256}}) {
    run_config(256, depth);
  }
  for (size_t depth : {size_t{16}, size_t{64}}) {
    run_config(1024, depth);
  }
  dopar::bench::print_header(
      "serving throughput: naive vs coalesced equi-join (requests/sec)",
      "       n    depth      naive r/s  coalesced r/s    speedup");
  for (size_t n : {size_t{256}, size_t{1024}}) {
    for (size_t depth : {size_t{16}, size_t{64}}) {
      run_join_config(n, depth);
    }
  }
  dopar::bench::write_json("BENCH_service.json");
  return 0;
}
