// Concurrent-pipeline scheduling benchmark: two pipelines — connected
// components over a social graph and a minimum spanning forest over a
// sensor mesh — run on ONE Runtime's shared fork-join arena
// (sched/scheduler.hpp) in two ways:
//
//   serial      submit one pipeline and join it, then the other (nothing
//               overlaps; the baseline),
//   concurrent  submit both, then join both (their primitives share the
//               arena).
//
// Emits one row per mode into BENCH_pipelines.json via the shared
// BENCH_*.json schema: wall-clock microseconds of the joint run in the
// `work` column (bench::record_wall) — machine-dependent timing rows, so
// the CI snapshot diff reports them without gating. On >= 4 hardware
// threads the concurrent row should sit below the serial one; on fewer
// threads the two converge (nothing to overlap).
//
// Results are oracle-checked every repetition (exit code 1 on any
// mismatch): scheduling must never change WHAT the pipelines compute.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "dopar.hpp"
#include "insecure/graph.hpp"

namespace {

using namespace dopar;

struct Graphs {
  size_t n_social = 1 << 10;
  size_t n_mesh = 1 << 9;
  std::vector<GEdge> social;
  std::vector<GEdge> mesh;
};

Graphs make_graphs() {
  Graphs g;
  util::Rng rng(11);
  // Two communities plus weak random bridges (distinct odd weights).
  auto add = [&](uint32_t u, uint32_t v) {
    g.social.push_back(
        GEdge{u, v, static_cast<uint64_t>(g.social.size() * 2 + 1)});
  };
  const size_t n = g.n_social;
  for (uint32_t v = 1; v < n / 2; ++v) {
    add(static_cast<uint32_t>(rng.below(v)), v);
  }
  for (uint32_t v = static_cast<uint32_t>(n / 2 + 1); v < n; ++v) {
    add(static_cast<uint32_t>(n / 2 + rng.below(v - n / 2)), v);
  }
  // Ring + chords sensor mesh with distinct weights.
  const size_t nm = g.n_mesh;
  for (uint32_t v = 0; v < nm; ++v) {
    g.mesh.push_back(GEdge{v, static_cast<uint32_t>((v + 1) % nm),
                           static_cast<uint64_t>(2 * v + 1)});
  }
  for (int k = 0; k < static_cast<int>(nm / 2); ++k) {
    const uint32_t u = static_cast<uint32_t>(rng.below(nm));
    const uint32_t v = static_cast<uint32_t>(rng.below(nm));
    if (u == v) continue;
    g.mesh.push_back(GEdge{
        u, v, static_cast<uint64_t>(2 * nm + 2 * g.mesh.size() + 1)});
  }
  return g;
}

}  // namespace

int main() {
  const Graphs g = make_graphs();
  const auto cc_want = insecure::cc_oracle(g.n_social, g.social);
  const uint64_t msf_want = insecure::msf_weight_oracle(g.n_mesh, g.mesh);
  const size_t total_edges = g.social.size() + g.mesh.size();

  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 4;
  const unsigned threads = std::min(hw, 8u);
  constexpr int reps = 3;

  bench::print_header(
      "Concurrent pipelines (CC + MSF, one Runtime)",
      "mode | best-of-3 wall ms | results vs oracles");
  std::printf("threads=%u social |V|=%zu |E|=%zu mesh |V|=%zu |E|=%zu\n",
              threads, g.n_social, g.social.size(), g.n_mesh,
              g.mesh.size());

  bool all_ok = true;
  for (const bool concurrent : {false, true}) {
    double best_ms = 0;
    bool ok = true;
    for (int rep = 0; rep < reps; ++rep) {
      auto rt = Runtime::builder().threads(threads).seed(13).build();
      auto cc = [&] { return rt.connected_components(g.n_social, g.social); };
      auto msf = [&]() -> uint64_t {
        auto flags = rt.msf(g.n_mesh, g.mesh);
        uint64_t total = 0;
        for (size_t e = 0; e < g.mesh.size(); ++e) {
          if (flags[e]) total += g.mesh[e].w;
        }
        return total;
      };
      std::vector<uint64_t> labels;
      uint64_t msf_total = 0;
      const auto t0 = std::chrono::steady_clock::now();
      if (concurrent) {
        auto cc_fut = rt.submit(cc);
        auto msf_fut = rt.submit(msf);
        labels = cc_fut.get();
        msf_total = msf_fut.get();
      } else {
        labels = rt.submit(cc).get();
        msf_total = rt.submit(msf).get();
      }
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      if (rep == 0 || ms < best_ms) best_ms = ms;
      ok = ok && labels == cc_want && msf_total == msf_want;
    }
    all_ok = all_ok && ok;
    const char* name = concurrent ? "concurrent" : "serial";
    bench::record_wall("pipelines", name, total_edges, "bitonic_ca",
                       best_ms * 1000.0);
    std::printf("%-10s | %10.1f ms | %s\n", name, best_ms,
                ok ? "match" : "MISMATCH");
  }

  bench::write_json("BENCH_pipelines.json");
  return all_ok ? 0 : 1;
}
