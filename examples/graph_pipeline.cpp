// Oblivious graph analytics served asynchronously by one Runtime: two
// pipelines — connected components over a social graph and a minimum
// spanning forest over a sensor mesh — are submitted together with
// Runtime::submit() and run genuinely in parallel on the Runtime's one
// shared fork-join arena: every worker steals from both pipelines' forks,
// and no runtime-wide mutex sits between the two pipelines' sorts.
// Paper Section 5.3 algorithms; the cloud learns vertex/edge counts but
// not which vertices are connected: every round is fixed-pattern
// oblivious gathers/scatters.
//
// The graph apps read no sorter backend: their gathers and scatters sort
// only 16-byte request records with the cache-agnostic bitonic network
// and merge them with the vertex tables through recorded bitonic merges.

#include <cstdio>
#include <set>
#include <vector>

#include "dopar.hpp"
#include "insecure/graph.hpp"  // plaintext oracles for the check

int main() {
  using namespace dopar;
  constexpr size_t n = 200;

  // A private social graph: two communities plus weak random bridges.
  util::Rng rng(11);
  std::vector<GEdge> social;
  auto add = [&](uint32_t u, uint32_t v) {
    social.push_back(
        GEdge{u, v, static_cast<uint64_t>(social.size() * 2 + 1)});
  };
  for (uint32_t v = 1; v < n / 2; ++v) {
    add(static_cast<uint32_t>(rng.below(v)), v);  // community A tree + extras
  }
  for (uint32_t v = n / 2 + 1; v < n; ++v) {
    add(static_cast<uint32_t>(n / 2 + rng.below(v - n / 2)), v);
  }
  for (int k = 0; k < 40; ++k) {
    const uint32_t u = static_cast<uint32_t>(rng.below(n / 2));
    add(u, static_cast<uint32_t>(rng.below(n / 2)) == u ? (u + 1) % (n / 2)
                                                        : u);
  }

  // A private sensor mesh (ring + chords) with distinct weights.
  constexpr size_t nm = 96;
  std::vector<GEdge> mesh;
  for (uint32_t v = 0; v < nm; ++v) {
    mesh.push_back(GEdge{v, static_cast<uint32_t>((v + 1) % nm),
                         static_cast<uint64_t>(2 * v + 1)});
  }
  for (int k = 0; k < 48; ++k) {
    const uint32_t u = static_cast<uint32_t>(rng.below(nm));
    const uint32_t v = static_cast<uint32_t>(rng.below(nm));
    if (u == v) continue;
    mesh.push_back(
        GEdge{u, v, static_cast<uint64_t>(2 * nm + 2 * mesh.size() + 1)});
  }

  auto rt = Runtime::builder().threads(4).seed(13).build();

  // Submit both pipelines; their primitive calls overlap on the shared
  // arena (not just the glue between calls), and each pipeline draws from
  // its own seed stream, so the results replay deterministically.
  // Futures deliver the results.
  Future<std::vector<uint64_t>> cc_fut = rt.submit([&] {
    return rt.connected_components(n, social);
  });
  Future<uint64_t> msf_fut = rt.submit([&]() -> uint64_t {
    auto flags = rt.msf(nm, mesh);
    uint64_t total = 0;
    for (size_t e = 0; e < mesh.size(); ++e) {
      if (flags[e]) total += mesh[e].w;
    }
    return total;
  });

  const std::vector<uint64_t> labels = cc_fut.get();
  const uint64_t msf_total = msf_fut.get();

  std::set<uint64_t> comps(labels.begin(), labels.end());
  std::printf("connected components (oblivious, async): %zu\n", comps.size());
  const auto cc_oracle = insecure::cc_oracle(n, social);
  std::printf("matches serial union-find oracle: %s\n",
              labels == cc_oracle ? "yes" : "NO");

  std::printf("MSF (oblivious, async): weight %llu\n",
              (unsigned long long)msf_total);
  const uint64_t want = insecure::msf_weight_oracle(nm, mesh);
  std::printf("matches Kruskal oracle weight %llu: %s\n",
              (unsigned long long)want, msf_total == want ? "yes" : "NO");

  return (labels == cc_oracle && msf_total == want) ? 0 : 1;
}
