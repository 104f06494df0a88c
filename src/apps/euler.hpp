#pragma once
// Oblivious Euler tour and rooted-tree computations (paper Section 5.2).
//
// Input: an unrooted tree as an edge list. Every edge is doubled into two
// directed copies; one oblivious sort groups the circular adjacency lists,
// one propagation gives each list's last edge its wrap-around successor,
// and one send-receive realizes tau((x,y)) = Adjsucc(y, x) — all within
// the sorting bound. Rooting the tour at a vertex plus three weighted
// oblivious list rankings then yield parent, depth, preorder number and
// subtree size for every vertex (the "ET-Tree" row of Table 1; bounds are
// dominated by list ranking).

#include <cassert>
#include <cstdint>
#include <vector>

#include "apps/common.hpp"
#include "apps/listrank.hpp"
#include "core/osort.hpp"
#include "forkjoin/api.hpp"
#include "obl/elem.hpp"
#include "obl/propagate.hpp"
#include "obl/sendrecv.hpp"
#include "sim/tracked.hpp"

namespace dopar::apps {

struct Edge {
  uint32_t u, v;
};

namespace detail {

/// Engine behind Runtime::euler_tour.
/// Euler-tour successor array over directed edge ids. Directed edge e for
/// e < m is (edges[e].u -> edges[e].v); e >= m is the reversal of e - m.
/// The tour is rooted at `root`: the tour's last edge points to itself.
inline std::vector<uint64_t> euler_tour(
    const std::vector<Edge>& edges, uint32_t root, uint64_t seed,
    const SorterBackend& sorter = default_backend()) {
  using obl::Elem;
  const size_t m = edges.size();
  const size_t dm = 2 * m;
  assert(dm > 0);

  // Directed-edge records sorted by (tail vertex, head vertex).
  vec<Elem> dir(dm);
  const slice<Elem> de = dir.s();
  fj::for_range(0, dm, fj::kDefaultGrain, [&](size_t e) {
    sim::tick(1);
    const Edge& ed = edges[e < m ? e : e - m];
    const uint64_t x = e < m ? ed.u : ed.v;
    const uint64_t y = e < m ? ed.v : ed.u;
    Elem rec;
    rec.key = (x << 32) | y;
    rec.payload = e;  // directed edge id
    de[e] = rec;
  });
  core::detail::osort(de, util::hash_rand(seed, 1), std::nullopt, {}, sorter);

  // Adjsucc: next edge in the (circular) adjacency list of the tail.
  // Propagate each group's first edge id to the whole group (for the
  // wrap-around of the last edge), then take the right neighbor if it has
  // the same tail.
  vec<Elem> grp(dm);
  const slice<Elem> gv = grp.s();
  fj::for_range(0, dm, fj::kDefaultGrain, [&](size_t p) {
    sim::tick(1);
    Elem g;
    g.key = de[p].key >> 32;   // tail vertex
    g.payload = de[p].payload;  // first edge id (after propagation)
    gv[p] = g;
  });
  obl::propagate_leftmost(gv);
  // sources: (own edge id -> its Adjsucc edge id)
  vec<Elem> srcs(dm), dsts(dm), res(dm);
  const slice<Elem> sv = srcs.s(), dv = dsts.s(), rv = res.s();
  fj::for_range(0, dm, fj::kDefaultGrain, [&](size_t p) {
    sim::tick(1);
    const uint64_t tail = de[p].key >> 32;
    const Elem nb = de[p + 1 == dm ? p : p + 1];  // fixed-pattern neighbor
    const bool same = (p + 1 < dm) && (nb.key >> 32) == tail;
    Elem s;
    s.key = de[p].payload;
    s.payload = obl::oselect<uint64_t>(same, nb.payload, gv[p].payload);
    sv[p] = s;
    // receiver: edge e asks for Adjsucc(rev(e)).
    const uint64_t e = de[p].payload;
    Elem d;
    d.key = e < m ? e + m : e - m;
    dv[p] = d;
    (void)root;
  });
  obl::detail::send_receive(sv, dv, rv, sorter);

  // Find e0 = first edge of Adj(root): a one-receiver send-receive whose
  // sources are the adjacency-group heads (distinct tail keys).
  vec<uint64_t> e0v(1);
  {
    vec<Elem> gs(dm), gd(1), gr(1);
    const slice<Elem> gsv = gs.s();
    fj::for_range(0, dm, fj::kDefaultGrain, [&](size_t p) {
      sim::tick(1);
      Elem s;
      // Only group heads act as sources (distinct keys promise); others
      // become fillers.
      const uint64_t tail = de[p].key >> 32;
      const uint64_t ptail = de[p == 0 ? 0 : p - 1].key >> 32;
      const bool head = (p == 0) || tail != ptail;
      s.key = tail;
      s.payload = gv[p].payload;
      obl::oassign(!head, s, obl::Elem::filler());
      gsv[p] = s;
    });
    Elem q;
    q.key = root;
    gd.s()[0] = q;
    obl::detail::send_receive(gs.s(), gd.s(), gr.s(), sorter);
    e0v.s()[0] = gr.s()[0].payload;
  }
  const uint64_t e0 = e0v.s()[0];

  // Deliver tau back to edge-id order and break the cycle at the root.
  // Receivers were issued in sorted-position order asking for rev(e)'s
  // Adjsucc, i.e. result p belongs to directed edge de[p].payload.
  std::vector<uint64_t> tour(dm);
  vec<uint64_t> succv(dm);
  const slice<uint64_t> sc = succv.s();
  fj::for_range(0, dm, fj::kDefaultGrain, [&](size_t p) {
    sim::tick(1);
    const uint64_t e = de[p].payload;
    uint64_t t = rv[p].payload;
    obl::oassign(t == e0, t, e);  // tour tail: succ = self
    sc[p] = t;
    (void)e;
  });
  // Scatter to edge-id order (unique targets).
  vec<uint64_t> ids(dm), live(dm, 1);
  const slice<uint64_t> idv = ids.s();
  fj::for_range(0, dm, fj::kDefaultGrain,
                [&](size_t p) { idv[p] = de[p].payload; });
  vec<uint64_t> outv(dm);
  scatter_min(outv.s(), idv, sc, live.s());
  for (size_t e = 0; e < dm; ++e) tour[e] = outv.s()[e];
  return tour;
}

}  // namespace detail

/// Rooted-tree functions computed from the Euler tour + three oblivious
/// list rankings.
struct TreeFunctions {
  std::vector<uint64_t> parent;   ///< parent[root] = root
  std::vector<uint64_t> depth;    ///< depth[root] = 0
  std::vector<uint64_t> preorder; ///< preorder[root] = 0
  std::vector<uint64_t> subtree;  ///< #vertices in the subtree (>= 1)
};

namespace detail {

/// Engine behind Runtime::tree_functions.
inline TreeFunctions tree_functions(
    const std::vector<Edge>& edges, uint32_t root, uint64_t seed,
    const SorterBackend& sorter = default_backend()) {
  using obl::Elem;
  const size_t m = edges.size();
  const size_t dm = 2 * m;
  const size_t n = m + 1;
  std::vector<uint64_t> tour =
      euler_tour(edges, root, util::hash_rand(seed, 2), sorter);

  // Unit-weight ranks give tour positions.
  std::vector<uint64_t> unit =
      list_rank(tour, util::hash_rand(seed, 3), sorter);
  std::vector<uint64_t> pos(dm);
  for (size_t e = 0; e < dm; ++e) pos[e] = (dm - 1) - unit[e];

  // Down edges appear before their reversals.
  std::vector<uint64_t> down(dm);
  for (size_t e = 0; e < dm; ++e) {
    const size_t re = e < m ? e + m : e - m;
    down[e] = pos[e] < pos[re] ? 1 : 0;
  }

  // Weighted ranks for depth: suffix counts of down/up edges.
  std::vector<uint64_t> rank_down =
      list_rank(tour, down, util::hash_rand(seed, 4), sorter);
  std::vector<uint64_t> up(dm);
  for (size_t e = 0; e < dm; ++e) up[e] = 1 - down[e];
  std::vector<uint64_t> rank_up =
      list_rank(tour, up, util::hash_rand(seed, 5), sorter);

  TreeFunctions tf;
  tf.parent.assign(n, root);
  tf.depth.assign(n, 0);
  tf.preorder.assign(n, 0);
  tf.subtree.assign(n, 1);
  tf.subtree[root] = n;

  // Per down edge (u, v): inclusive prefix counts at its position.
  const uint64_t total_down = m;
  for (size_t e = 0; e < dm; ++e) {
    if (!down[e]) continue;
    const Edge& ed = edges[e < m ? e : e - m];
    const uint32_t u = e < m ? ed.u : ed.v;
    const uint32_t v = e < m ? ed.v : ed.u;
    // Inclusive prefix counts. The rank convention excludes the tour tail
    // (an up edge into the root), so up-suffixes are short by one.
    const uint64_t pre_down = total_down - rank_down[e] + 1;
    const uint64_t pre_up = (dm - total_down) - rank_up[e] - 1;
    tf.parent[v] = u;
    tf.depth[v] = pre_down - pre_up;
    tf.preorder[v] = pre_down;  // root = 0, children numbered from 1
    const size_t re = e < m ? e + m : e - m;
    tf.subtree[v] = (pos[re] - pos[e] + 1) / 2;
  }
  return tf;
}

}  // namespace detail

}  // namespace dopar::apps
