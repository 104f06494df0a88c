#pragma once
// The benchmark's workloads and layer probes. Every workload drives the
// library through its public entry points only (dopar::Service, Runtime and
// the fj / obl::kernel free functions), generates its inputs from the seed,
// and checks every output against an insecure oracle outside the timed
// region.

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace pb {

/// Run-wide parameters.
struct Params {
  uint64_t seed = 1;
  bool tiny = false;     ///< reduced sizes (harness self-test)
  unsigned threads = 1;  ///< Runtime threads (nproc)
};

/// Offered load of svc_mixed_open, requests/s. On a 4-vCPU x86-64 VM the
/// Service's backlog starts to grow near 450-500 requests/s; this is a
/// little under half of that, where runs are steadier.
inline constexpr double kSvcRate = 200;

/// Generator lag (p99, ms) beyond which an open-loop run is invalid: the
/// arrivals were no longer on schedule, so latencies are not comparable.
/// Lag is part of every latency (each is timed from its due time); a few
/// ms of it is thread wake-up jitter on a busy 4-vCPU host.
inline constexpr double kMaxLagMs = 25.0;

/// Request kinds, indexing the per-kind latency samples.
enum Kind : size_t { kSort = 0, kJoin = 1, kGroupBy = 2, kNumKinds = 3 };
inline constexpr const char* kKindNames[kNumKinds] = {"sort", "join",
                                                      "groupby"};

/// Outcome of one measured phase.
struct Phase {
  uint64_t attempted = 0;
  uint64_t failed = 0;     ///< oracle mismatches + exceptions + refusals
  uint64_t completed = 0;  ///< ops that finished and matched the oracle
  double wall_s = 0;       ///< phase wall time
  double busy_s = 0;       ///< time inside ops (closed loop; open: wall)
  std::vector<double> lat_ms;                        ///< every finished op
  std::array<std::vector<double>, kNumKinds> kind_ms;  ///< open loop only
  double lag_ms_p99 = 0;   ///< open loop: generator lag behind schedule
  bool invalid = false;    ///< lag over kMaxLagMs
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the Runtime (and Service) and run one warm-up op. `traced`
  /// also opens the library's own span gate (Builder::tracing()).
  virtual void setup(bool traced) = 0;
  virtual void teardown() = 0;
  /// Measure for `seconds`; a closed loop runs at least `min_ops` ops.
  virtual Phase run(double seconds, size_t min_ops) = 0;
  /// Per-layer metrics this workload exercises, from its last run.
  virtual void layer_metrics(Metrics& m) const = 0;
  /// Setups timed per untraced run (their median is setup_s).
  virtual int setup_reps() const = 0;
  /// Harness self-test: corrupt every output before it is checked.
  void corrupt_outputs(bool on) { corrupt_ = on; }

 protected:
  bool corrupt_ = false;
};

/// Every workload. BENCHMARK.json lists the steady ones; a traced run also
/// runs each of the others briefly for the layer metrics they exercise.
inline const std::array<std::string, 4> kWorkloads = {
    "svc_mixed_open", "sort_osort", "join_tpch", "graph_cc_msf"};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Params& p);

/// Layer probes that no workload's own run yields (ORP, ORBA and the
/// network sort on one input; batched rel plans; compaction and routing;
/// the raw swap kernel; an empty fork-join loop). Returns the number of
/// probe outputs that failed their check.
uint64_t run_layer_probes(const Params& p, Metrics& m);

/// Exact analytic counts (work, span, ideal-cache misses) at reduced
/// sizes under Builder::cache(256 KiB, 64 B), taken twice. Returns the
/// number of count triples that differed between the two passes.
uint64_t run_sim_pass(const Params& p, Metrics& m);

}  // namespace pb
