// perfbench — runs one workload of the repository benchmark and prints its
// metrics as one JSON line (the last line of stdout).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --self-test
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced, adds the layer probes and the analytic-count
// pass, prints the per-layer metrics and a fold of every span by name, and
// writes the spans to .bench_out/. The process exits non-zero when any
// output failed its oracle check or the run was invalid.

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n"
               "       perfbench --self-test\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value");
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else usage(("unknown flag " + k).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (!a.self_test && a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be > 0");
  return a;
}

/// End-to-end metrics of one measured phase. Tail and per-kind latencies
/// are printed as comment lines with their sample counts: a closed loop's
/// tens to hundreds of ops per run do not support a steady p99.
void end_to_end(const Phase& ph, Metrics& m) {
  const Summary all = summarize(ph.lat_ms);
  m["throughput_ops_s"] = {ph.busy_s > 0 ? ph.completed / ph.busy_s : 0,
                           "1/s"};
  m["latency_p50_ms"] = {all.p50, "ms"};
  std::printf("# latency all n=%zu p50_ms=%.6g p99_ms=%.6g\n", all.n,
              all.p50, all.p99);
  for (size_t k = 0; k < kNumKinds; ++k) {
    if (ph.kind_ms[k].empty()) continue;
    const Summary s = summarize(ph.kind_ms[k]);
    std::printf("# latency %s n=%zu p50_ms=%.6g p99_ms=%.6g\n",
                kKindNames[k], s.n, s.p50, s.p99);
  }
}

/// Prints the generator lag of an open-loop phase; false when the lag
/// made the phase invalid.
bool lag_ok(const std::string& phase, const Phase& ph) {
  if (ph.lag_ms_p99 > 0) {
    std::printf("# gen_lag_ms_p99 %s %.4g (bound %.4g)%s\n", phase.c_str(),
                ph.lag_ms_p99, kMaxLagMs,
                ph.invalid ? " INVALID: generator lag over bound" : "");
  }
  return !ph.invalid;
}

/// Prints the run's failure fraction; true when nothing failed and every
/// phase was valid.
bool report(uint64_t attempted, uint64_t failed, bool valid) {
  std::printf("# failed_frac %.6g (%llu of %llu)%s\n",
              attempted ? double(failed) / double(attempted) : 0.0,
              (unsigned long long)failed, (unsigned long long)attempted,
              valid ? "" : " INVALID");
  return failed == 0 && valid;
}

int run_untraced(const Args& a, Workload& w) {
  std::vector<double> setups;
  const auto timed_setup = [&] {
    const auto t0 = Clock::now();
    w.setup(false);
    setups.push_back(ms_between(t0, Clock::now()) / 1e3);
  };
  // The measured phase runs on the process's first Runtime, the only one
  // whose speed repeats from run to run; the other setups come after it.
  timed_setup();
  const Phase ph = w.run(a.seconds, 3);
  w.teardown();
  for (int r = 1; r < w.setup_reps(); ++r) {
    timed_setup();
    w.teardown();
  }
  Metrics m;
  end_to_end(ph, m);
  m["setup_s"] = {quantile(setups, 0.5), "s"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
  const bool ok = report(ph.attempted, ph.failed, lag_ok(a.workload, ph));
  std::printf("%s\n",
              result_json(ok, ph.attempted, ph.failed, m).c_str());
  return ok ? 0 : 1;
}

int run_traced(const Args& a, const Params& p, Workload& w) {
  // Untraced reference for trace.overhead_frac.
  w.setup(false);
  const Phase plain = w.run(a.seconds * 0.4, 2);
  w.teardown();

  Tracer::get().enable(true);
  w.setup(true);
  const double cpu0 = cpu_seconds();
  const Phase ph = w.run(a.seconds * 0.6, 2);
  const double cpu1 = cpu_seconds();
  w.teardown();
  const auto lib = dopar::obs::snapshot_trace();

  Metrics m;
  w.layer_metrics(m);
  // Layers this workload does not exercise come from short runs of the
  // workloads that do, so every traced run reports every layer metric.
  // Every phase's lag counts: an invalid short run invalidates the run.
  bool valid = lag_ok(a.workload + " untraced", plain);
  valid = lag_ok(a.workload + " traced", ph) && valid;
  uint64_t extra_failed = 0;
  for (const std::string& other : kWorkloads) {
    if (other == a.workload) continue;
    auto o = make_workload(other, p);
    o->setup(false);
    const Phase op = o->run(p.tiny ? 0.2 : 1.5, 2);
    o->teardown();
    extra_failed += op.failed;
    valid = lag_ok(other, op) && valid;
    Metrics om;
    o->layer_metrics(om);
    for (auto& [k, v] : om) m.emplace(k, v);
  }
  extra_failed += run_layer_probes(p, m);
  extra_failed += run_sim_pass(p, m);
  m["proc.cpu_util"] = {(cpu1 - cpu0) / (ph.wall_s * p.threads), "frac"};
  const double base = summarize(plain.lat_ms).p50;
  m["trace.overhead_frac"] = {
      base > 0 ? summarize(ph.lat_ms).p50 / base - 1 : 0, "frac"};

  const auto spans = Tracer::get().spans();
  std::printf("# fold %-28s %8s %12s %12s\n", "span", "count", "total_ms",
              "self_ms");
  for (const FoldRow& r : fold(spans, lib)) {
    std::printf("# fold %-28s %8llu %12.3f %12.3f\n", r.name.c_str(),
                (unsigned long long)r.count, r.total_ms, r.self_ms);
  }
  std::filesystem::create_directories(".bench_out");
  const std::string path = ".bench_out/spans-" + a.workload + "-" +
                           std::to_string(a.seed) + ".json";
  if (!write_spans(path, spans, lib)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
  const uint64_t attempted = ph.attempted + plain.attempted;
  const uint64_t failed = ph.failed + plain.failed + extra_failed;
  const bool ok = report(attempted, failed, valid);
  std::printf("%s\n", result_json(ok, attempted, failed, m).c_str());
  return ok ? 0 : 1;
}

int self_test();

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  using namespace pb;
  const Args a = parse(argc, argv);
  if (a.self_test) return self_test();
  Params p;
  p.seed = a.seed;
  p.threads = nproc();
  auto w = make_workload(a.workload, p);
  if (!w) usage(("unknown workload " + a.workload).c_str());
  std::printf("# env %s\n",
              env_json(a.workload, a.seed, p.threads, a.trace).c_str());
  try {
    return a.trace ? run_traced(a, p, *w) : run_untraced(a, *w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

namespace pb {
namespace {

int self_test() {
  int bad = 0;
  auto expect = [&](bool cond, const std::string& what) {
    std::printf("# self-test %-52s %s\n", what.c_str(), cond ? "ok" : "FAIL");
    if (!cond) ++bad;
  };
  auto near = [](double x, double y) { return std::fabs(x - y) < 1e-9; };
  expect(near(quantile({4, 1, 3, 2}, 0.5), 2.5), "quantile: median of 1..4");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(near(quantile(hundred, 0.99), 99.01), "quantile: p99 of 1..100");
  expect(near(quantile({7}, 0.99), 7) && quantile({}, 0.5) == 0,
         "quantile: single and empty samples");

  Params p;
  p.seed = 7;
  p.tiny = true;
  p.threads = nproc();
  for (const std::string& name : kWorkloads) {
    auto w = make_workload(name, p);
    w->setup(false);
    const Phase ph = w->run(0.3, 2);
    expect(ph.attempted > 0 && ph.failed == 0 && !ph.lat_ms.empty(),
           name + ": tiny run passes its oracle");
    w->corrupt_outputs(true);
    const Phase bad_ph = w->run(0.1, 1);
    expect(bad_ph.failed > 0 && bad_ph.failed == bad_ph.attempted,
           name + ": corrupted outputs are counted as failed");
    w->teardown();
  }
  Metrics m;
  expect(run_layer_probes(p, m) == 0, "layer probes pass their checks");
  expect(run_sim_pass(p, m) == 0, "analytic counts repeat exactly");
  std::printf("# self-test %s\n", bad == 0 ? "passed" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace pb
