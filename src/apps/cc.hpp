#pragma once
// Oblivious connected components (paper Section 5.3, Theorem 5.2(ii)).
//
// Shiloach–Vishkin-style hooking + pointer doubling, executed as a fixed
// number of batch-oblivious rounds (O(log n)). Every round performs one
// gather of both endpoint labels (one merge of the 2m endpoint requests,
// sorted once before the first round, with the n labels), one
// scatter_min of m hook proposals into the n labels, and two jumps
// (gathers of n requests from n labels) — exactly the per-step cost of
// the space-bounded PRAM simulation the paper invokes.
// Work O(m log n * sort-overhead), span Õ(log^2 n), and the round count is
// a fixed function of n, so the whole access pattern is data-independent.

#include <cassert>
#include <cstdint>
#include <vector>

#include "apps/common.hpp"
#include "forkjoin/api.hpp"
#include "sim/tracked.hpp"
#include "util/bits.hpp"

namespace dopar::apps {

struct GEdge {
  uint32_t u, v;
  uint64_t w = 0;  ///< weight (MSF only)
};

namespace detail {

/// Engine behind Runtime::connected_components.
/// Component label per vertex (the minimum vertex id in the component).
/// Requires every endpoint < n; Runtime::connected_components throws
/// std::invalid_argument otherwise.
inline std::vector<uint64_t> connected_components(
    size_t n, const std::vector<GEdge>& edges) {
  const size_t m = edges.size();
  vec<uint64_t> Pv(n);
  const slice<uint64_t> P = Pv.s();
  fj::for_range(0, n, fj::kDefaultGrain, [&](size_t i) { P[i] = i; });
  if (m == 0 || n <= 1) {
    std::vector<uint64_t> out(n);
    for (size_t i = 0; i < n; ++i) out[i] = P[i];
    return out;
  }

  // Both endpoints of every edge live in one 2m address array (u-half,
  // then v-half), so each round reads their labels with one gather, and
  // its requests are sorted once for every round.
  vec<uint64_t> auv(2 * m), puv(2 * m), tgt(m), val(m), live(m);
  const slice<uint64_t> AUV = auv.s(), PUV = puv.s();
  const slice<uint64_t> PU = PUV.sub(0, m), PV = PUV.sub(m, m);
  const slice<uint64_t> TG = tgt.s(), VA = val.s(), LV = live.s();
  fj::for_range(0, m, fj::kDefaultGrain, [&](size_t e) {
    AUV[e] = edges[e].u;
    AUV[m + e] = edges[e].v;
  });
  const AddrPlan endpoints(AUV);

  vec<uint64_t> jg(n);
  const slice<uint64_t> JG = jg.s();
  auto jump = [&] {
    gather(P, P, JG);  // the plan copies the addresses before the read
    fj::for_range(0, n, fj::kDefaultGrain, [&](size_t i) { P[i] = JG[i]; });
  };

  const unsigned rounds = 2 * util::log2_ceil(n) + 4;
  for (unsigned r = 0; r < rounds; ++r) {
    gather(endpoints, P, PUV);
    // Hook the larger label onto the smaller one (roots only: after the
    // jumps below, labels are roots or near-roots; extra hooks onto
    // non-roots are benign because the value written is always smaller
    // than the target and jumps re-flatten).
    fj::for_range(0, m, fj::kDefaultGrain, [&](size_t e) {
      sim::tick(1);
      const uint64_t a = PU[e], b = PV[e];
      const uint64_t mx = a > b ? a : b;
      const uint64_t mn = a > b ? b : a;
      TG[e] = mx;
      VA[e] = mn;
      LV[e] = a != b ? 1u : 0u;
    });
    scatter_min(P, TG, VA, LV, /*combine_min=*/true);
    jump();
    jump();
  }
  // Final flattening.
  for (unsigned r = 0; r < util::log2_ceil(n) + 1; ++r) jump();

  std::vector<uint64_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = P[i];
  return out;
}

}  // namespace detail

}  // namespace dopar::apps
