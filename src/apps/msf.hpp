#pragma once
// Oblivious minimum spanning forest (paper Section 5.3, Theorem 5.2(ii)).
//
// Borůvka rounds executed with batch-oblivious gathers/scatters: every
// component selects its minimum-weight outgoing edge (one scatter_min into
// a per-label "best edge" table), selected edges hook the larger label
// onto the smaller and join the forest, and pointer doubling flattens
// labels. Every round performs one gather of both endpoint labels (one
// merge of the 2m endpoint requests, sorted once before the first round,
// with the n labels), one scatter_min of 2m proposals into the n-cell
// best-edge table, one gather of both endpoints' winners at those 2m
// labels, one hooking scatter_min of m proposals, and log n + 1 jumps.
// A fixed O(log n) round count keeps the access pattern data-independent.
// Distinct weights are assumed (ties broken by edge id, packed into the
// proposal value), which also makes the MSF unique.

#include <cassert>
#include <cstdint>
#include <vector>

#include "apps/cc.hpp"
#include "apps/common.hpp"
#include "forkjoin/api.hpp"
#include "sim/tracked.hpp"
#include "util/bits.hpp"

namespace dopar::apps {

namespace detail {

/// Engine behind Runtime::msf.
/// Returns a 0/1 flag per input edge: 1 iff the edge is in the MSF.
/// Requires w < 2^31 and m < 2^31 (weight and id pack into one proposal);
/// Runtime::msf throws std::invalid_argument otherwise.
inline std::vector<uint8_t> msf(size_t n,
                                const std::vector<GEdge>& edges) {
  const size_t m = edges.size();
  std::vector<uint8_t> in_msf(m, 0);
  if (m == 0 || n <= 1) return in_msf;

  vec<uint64_t> Pv(n);
  const slice<uint64_t> P = Pv.s();
  fj::for_range(0, n, fj::kDefaultGrain, [&](size_t i) { P[i] = i; });

  // Per-endpoint arrays are 2m long: the u-half, then the v-half. One
  // gather reads both endpoints' labels (its requests sorted once for
  // every round), and the labels double as the addresses of the two
  // proposals each edge makes.
  vec<uint64_t> auv(2 * m), puv(2 * m);
  const slice<uint64_t> AUV = auv.s(), PUV = puv.s();
  const slice<uint64_t> PU = PUV.sub(0, m), PV = PUV.sub(m, m);
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

  const uint64_t kNone = ~uint64_t{0};
  vec<uint64_t> bestv(n);
  const slice<uint64_t> BEST = bestv.s();
  vec<uint64_t> prop_v(2 * m), prop_l(2 * m), buv(2 * m);
  const slice<uint64_t> PW = prop_v.s(), PL = prop_l.s(), BUV = buv.s();
  const slice<uint64_t> BU = BUV.sub(0, m), BV = BUV.sub(m, m);
  vec<uint64_t> chosen_f(m);
  const slice<uint64_t> CF = chosen_f.s();

  const unsigned rounds = util::log2_ceil(n) + 2;
  for (unsigned r = 0; r < rounds; ++r) {
    gather(endpoints, P, PUV);
    // Reset the per-label best-edge table.
    fj::for_range(0, n, fj::kDefaultGrain, [&](size_t i) { BEST[i] = kNone; });
    // Each edge proposes itself to both endpoint components (addresses
    // PUV: the u-half, then the v-half).
    fj::for_range(0, m, fj::kDefaultGrain, [&](size_t e) {
      sim::tick(1);
      const uint64_t packed = (edges[e].w << 32) | e;
      const uint64_t lv = PU[e] != PV[e] ? 1u : 0u;
      PW[e] = packed;
      PL[e] = lv;
      PW[m + e] = packed;
      PL[m + e] = lv;
    });
    scatter_min(BEST, PUV, PW, PL);
    // Each edge checks whether it won either endpoint's selection (bitwise
    // & and |: a short-circuit would make the BU/BV reads data-dependent).
    gather(BEST, PUV, BUV);
    fj::for_range(0, m, fj::kDefaultGrain, [&](size_t e) {
      sim::tick(1);
      const uint64_t packed = (edges[e].w << 32) | e;
      const bool won = (PU[e] != PV[e]) & ((BU[e] == packed) |
                                           (BV[e] == packed));
      CF[e] = won ? 1u : 0u;
    });
    for (size_t e = 0; e < m; ++e) in_msf[e] |= CF[e] != 0;
    // Hook along winning edges: larger label -> smaller label.
    vec<uint64_t> ht(m), hv(m);
    const slice<uint64_t> HT = ht.s(), HV = hv.s();
    fj::for_range(0, m, fj::kDefaultGrain, [&](size_t e) {
      sim::tick(1);
      const uint64_t a = PU[e], b = PV[e];
      HT[e] = a > b ? a : b;
      HV[e] = a > b ? b : a;
    });
    scatter_min(P, HT, HV, CF, /*combine_min=*/true);
    // Borůvka's selection step needs *exact* component labels, so flatten
    // fully each round (log n pointer-doubling jumps) — stale labels would
    // admit intra-component edges into the forest.
    for (unsigned j = 0; j < util::log2_ceil(n) + 1; ++j) jump();
  }
  return in_msf;
}

}  // namespace detail

}  // namespace dopar::apps
