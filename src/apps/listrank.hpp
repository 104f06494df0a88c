#pragma once
// Oblivious list ranking (paper Section 5.1, Theorem 5.1).
//
// Given a linked list as a successor array (tail points to itself), compute
// for every element the (weighted) distance to the tail. The paper's
// recipe, followed literally:
//   1. obliviously permute the node records at random (ORP);
//   2. translate successor pointers into the permuted index space with one
//      oblivious send-receive;
//   3. run a NON-oblivious parallel list-ranking algorithm on the permuted
//      arrays — its access pattern is a function of the random permutation
//      only, hence simulatable (we use Wyllie pointer jumping: O(n log n)
//      work, O(log^2 n) span, matching the paper's bounds);
//   4. route the answers back to the original order with send-receive.

#include <cassert>
#include <cstdint>
#include <vector>

#include "core/backend.hpp"
#include "core/osort.hpp"
#include "forkjoin/api.hpp"
#include "obl/elem.hpp"
#include "obl/sendrecv.hpp"
#include "sim/tracked.hpp"
#include "util/bits.hpp"

namespace dopar::apps {

namespace detail {

/// Engine behind Runtime::list_rank.
/// rank[i] = sum of weight[j] over i and the nodes after it, up to but
/// excluding the tail (so the tail has rank 0 and, with unit weights,
/// rank[i] is the distance to the tail).
inline std::vector<uint64_t> list_rank(
    const std::vector<uint64_t>& succ, const std::vector<uint64_t>& weight,
    uint64_t seed, const SorterBackend& sorter = default_backend()) {
  using obl::Elem;
  const size_t n = succ.size();
  assert(weight.size() == n);
  if (n == 0) return {};

  // Node records: key = original id, payload = successor id, aux = weight.
  vec<Elem> nodes(n);
  {
    const slice<Elem> nv = nodes.s();
    fj::for_range(0, n, fj::kDefaultGrain, [&](size_t i) {
      sim::tick(1);
      Elem e;
      e.key = i;
      e.payload = succ[i];
      e.aux = weight[i];
      nv[i] = e;
    });
  }

  // 1. Random permutation (orp pads and picks parameters internally).
  vec<Elem> perm(n);
  core::detail::orp(nodes.s(), perm.s(), seed, {}, sorter);
  const slice<Elem> pv = perm.s();

  // 2. Each permuted entry learns its successor's permuted position:
  // sources announce (original id -> permuted pos), receivers ask for
  // their successor's id.
  vec<Elem> srcs(n), dsts(n), res(n);
  const slice<Elem> sv = srcs.s(), dv = dsts.s(), rv = res.s();
  fj::for_range(0, n, fj::kDefaultGrain, [&](size_t i) {
    sim::tick(1);
    Elem s;
    s.key = pv[i].key;  // original id
    s.payload = i;      // permuted position
    sv[i] = s;
    Elem d;
    d.key = pv[i].payload;  // successor's original id
    dv[i] = d;
  });
  obl::detail::send_receive(sv, dv, rv, sorter);

  // 3. Wyllie pointer jumping on the permuted layout (non-oblivious,
  // simulatable). Double-buffered rounds.
  vec<uint64_t> nxt(n), rank(n), nxt2(n), rank2(n);
  const slice<uint64_t> nx = nxt.s(), rk = rank.s();
  const slice<uint64_t> nx2 = nxt2.s(), rk2 = rank2.s();
  fj::for_range(0, n, fj::kDefaultGrain, [&](size_t i) {
    sim::tick(1);
    const bool tail = pv[i].payload == pv[i].key;  // succ == self
    nx[i] = tail ? i : rv[i].payload;
    nx2[i] = nx[i];
    rk[i] = tail ? 0 : pv[i].aux;
  });
  // Convention: rank[i] = sum of weight[j] over the path nodes from i
  // (inclusive) to the tail (exclusive); with unit weights this is the
  // distance to the tail ("number of elements ahead", paper §5.1). The
  // tail itself has rank 0. Subtract weight[i] for the exclusive variant.
  const unsigned rounds = n <= 1 ? 0 : util::log2_ceil(n) + 1;
  for (unsigned r = 0; r < rounds; ++r) {
    fj::for_range(0, n, fj::kDefaultGrain, [&](size_t i) {
      sim::tick(1);
      const uint64_t s = nx[i];
      rk2[i] = rk[i] + (s == i ? 0 : rk[s]);
      nx2[i] = nx[s];
    });
    fj::for_range(0, n, fj::kDefaultGrain, [&](size_t i) {
      sim::tick(1);
      rk[i] = rk2[i];
      nx[i] = nx2[i];
    });
  }

  // 4. Route answers back to original order.
  vec<Elem> asrc(n), adst(n), ares(n);
  const slice<Elem> as = asrc.s(), ad = adst.s(), ar = ares.s();
  fj::for_range(0, n, fj::kDefaultGrain, [&](size_t i) {
    sim::tick(1);
    Elem s;
    s.key = pv[i].key;
    s.payload = rk[i];
    as[i] = s;
    Elem d;
    d.key = i;
    ad[i] = d;
  });
  obl::detail::send_receive(as, ad, ar, sorter);

  std::vector<uint64_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = ar[i].payload;
  return out;
}

/// Unit-weight convenience overload: rank = #nodes after i (distance to
/// tail).
inline std::vector<uint64_t> list_rank(
    const std::vector<uint64_t>& succ, uint64_t seed,
    const SorterBackend& sorter = default_backend()) {
  return list_rank(succ, std::vector<uint64_t>(succ.size(), 1), seed,
                   sorter);
}

}  // namespace detail

}  // namespace dopar::apps
