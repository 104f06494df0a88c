// Integration tests: Section 5 applications (list ranking, Euler tour +
// tree functions, tree contraction, connected components, MSF) — oblivious
// versions vs insecure baselines vs independent oracles.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/cc.hpp"
#include "apps/common.hpp"
#include "apps/contraction.hpp"
#include "apps/euler.hpp"
#include "apps/listrank.hpp"
#include "apps/msf.hpp"
#include "dopar.hpp"
#include "forkjoin/pool.hpp"
#include "insecure/contraction.hpp"
#include "insecure/euler.hpp"
#include "insecure/graph.hpp"
#include "insecure/listrank.hpp"
#include "sim/session.hpp"
#include "util/rng.hpp"

namespace dopar {
namespace {

std::vector<uint64_t> random_list_succ(size_t n, uint64_t seed,
                                       std::vector<uint64_t>* order_out =
                                           nullptr) {
  util::Rng rng(seed);
  std::vector<uint64_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  std::vector<uint64_t> succ(n);
  for (size_t i = 0; i + 1 < n; ++i) succ[order[i]] = order[i + 1];
  succ[order[n - 1]] = order[n - 1];
  if (order_out) *order_out = order;
  return succ;
}

TEST(GatherScatter, GatherFetchesTableValues) {
  vec<uint64_t> table(16), addrs(5), out(5);
  for (size_t i = 0; i < 16; ++i) table.s()[i] = 100 + i;
  const uint64_t q[5] = {3, 0, 15, 3, 7};
  for (size_t i = 0; i < 5; ++i) addrs.s()[i] = q[i];
  apps::gather(table.s(), addrs.s(), out.s());
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(out.s()[i], 100 + q[i]);
}

TEST(GatherScatter, ScatterMinKeepsMinimumProposal) {
  vec<uint64_t> table(8, 999), addrs(4), vals(4), live(4, 1);
  const uint64_t a[4] = {2, 2, 5, 2};
  const uint64_t v[4] = {30, 10, 7, 20};
  for (size_t i = 0; i < 4; ++i) {
    addrs.s()[i] = a[i];
    vals.s()[i] = v[i];
  }
  apps::scatter_min(table.s(), addrs.s(), vals.s(), live.s());
  EXPECT_EQ(table.s()[2], 10u);
  EXPECT_EQ(table.s()[5], 7u);
  EXPECT_EQ(table.s()[0], 999u);  // untouched
}

TEST(GatherScatter, DeadProposalsAreIgnored) {
  vec<uint64_t> table(4, 50), addrs(2), vals(2), live(2);
  addrs.s()[0] = 1;
  vals.s()[0] = 5;
  live.s()[0] = 0;
  addrs.s()[1] = 2;
  vals.s()[1] = 7;
  live.s()[1] = 1;
  apps::scatter_min(table.s(), addrs.s(), vals.s(), live.s());
  EXPECT_EQ(table.s()[1], 50u);
  EXPECT_EQ(table.s()[2], 7u);
}

TEST(GatherScatter, CombineMinRespectsOldValue) {
  vec<uint64_t> table(4, 3), addrs(1), vals(1), live(1, 1);
  addrs.s()[0] = 0;
  vals.s()[0] = 9;
  apps::scatter_min(table.s(), addrs.s(), vals.s(), live.s(), true);
  EXPECT_EQ(table.s()[0], 3u);  // old value smaller, kept
}

// Plain-loop reference for scatter_min: the minimum live in-range proposal
// per address, combined with the old cell by min when `combine_min`.
std::vector<uint64_t> scatter_min_oracle(std::vector<uint64_t> table,
                                         const std::vector<uint64_t>& addrs,
                                         const std::vector<uint64_t>& vals,
                                         const std::vector<uint64_t>& live,
                                         bool combine_min) {
  std::vector<bool> hit(table.size(), false);
  std::vector<uint64_t> best(table.size(), 0);
  for (size_t i = 0; i < addrs.size(); ++i) {
    const uint64_t a = addrs[i];
    if (!live[i] || a >= table.size()) continue;
    if (!hit[a] || vals[i] < best[a]) best[a] = vals[i];
    hit[a] = true;
  }
  for (size_t a = 0; a < table.size(); ++a) {
    if (hit[a]) table[a] = combine_min ? std::min(table[a], best[a]) : best[a];
  }
  return table;
}

// Plain-loop reference for gather: in-range addresses read their cell,
// every other address reads 0.
std::vector<uint64_t> gather_oracle(const std::vector<uint64_t>& table,
                                    const std::vector<uint64_t>& addrs) {
  std::vector<uint64_t> out(addrs.size(), 0);
  for (size_t i = 0; i < addrs.size(); ++i) {
    if (addrs[i] < table.size()) out[i] = table[addrs[i]];
  }
  return out;
}

// An address drawn from one of the sweep's shapes: mostly in range with
// some just past the table, crowded onto a few cells, or out of range —
// ~0, just past the table, or 2^63 + a valid address (which a key shifted
// left by one would alias).
enum class AddrShape { Mixed, Crowded, OutOfRange };
uint64_t sweep_addr(AddrShape shape, size_t s, util::Rng& rng) {
  switch (shape) {
    case AddrShape::Mixed:
      return rng.below(s + 4);
    case AddrShape::Crowded:
      return rng.below(s < 3 ? s : 3);
    case AddrShape::OutOfRange:
      switch (rng.below(4)) {
        case 0: return ~uint64_t{0};
        case 1: return s + rng.below(9);
        case 2: return (uint64_t{1} << 63) + rng.below(s);
        default: return rng.below(s);
      }
  }
  return 0;
}

// Differential check of gather against the oracle: q >> s, s >> q, single
// requests and single cells, sizes around and across powers of two, and
// every address shape, including the ~0 "no node" sentinel and 2^63 + a.
TEST(GatherScatter, GatherMatchesOracle) {
  util::Rng rng(0x6a7);
  for (size_t q : {size_t{0}, size_t{1}, size_t{7}, size_t{1000}}) {
    for (size_t s : {size_t{1}, size_t{5}, size_t{64}, size_t{1000}}) {
      for (AddrShape shape :
           {AddrShape::Mixed, AddrShape::Crowded, AddrShape::OutOfRange}) {
        std::vector<uint64_t> table(s), addrs(q);
        for (auto& t : table) t = rng();
        for (auto& a : addrs) a = sweep_addr(shape, s, rng);
        vec<uint64_t> t(table), a(addrs), out(q);
        apps::gather(t.s(), a.s(), out.s());
        EXPECT_EQ(out.underlying(), gather_oracle(table, addrs))
            << "q=" << q << " s=" << s
            << " shape=" << static_cast<int>(shape);
        EXPECT_EQ(t.underlying(), table);  // the table is only read
      }
    }
  }
  // An empty table: every address misses.
  vec<uint64_t> empty(0), a(std::vector<uint64_t>{0, 3, ~uint64_t{0}}),
      out(3, 9);
  apps::gather(empty.s(), a.s(), out.s());
  EXPECT_EQ(out.underlying(), (std::vector<uint64_t>{0, 0, 0}));
}

// One plan serves tables of different sizes (some addresses in range for
// one and past the end of another) exactly as per-call gathers do.
TEST(GatherScatter, PlanReadsMatchPerCallGathers) {
  util::Rng rng(0x91a);
  std::vector<uint64_t> addrs(300);
  for (auto& a : addrs) a = sweep_addr(AddrShape::OutOfRange, 100, rng);
  vec<uint64_t> av(addrs);
  const apps::AddrPlan plan(av.s());
  EXPECT_EQ(plan.size(), addrs.size());
  for (size_t s : {size_t{100}, size_t{37}, size_t{513}}) {
    std::vector<uint64_t> table(s);
    for (auto& t : table) t = rng();
    vec<uint64_t> tv(table), via_plan(addrs.size()), plain(addrs.size());
    apps::gather(plan, tv.s(), via_plan.s());
    apps::gather(tv.s(), av.s(), plain.s());
    EXPECT_EQ(via_plan.underlying(), plain.underlying()) << "s=" << s;
    EXPECT_EQ(via_plan.underlying(), gather_oracle(table, addrs))
        << "s=" << s;
  }
}

// Differential check of scatter_min against the oracle: sizes around and
// across powers of two, all-dead batches, heavy duplicates (few
// addresses, few values), and live proposals that address past the
// table, including the ~0 "no node" sentinel and 2^63 + a.
TEST(GatherScatter, ScatterMinMatchesOracle) {
  enum class Shape { Mixed, AllDead, Crowded, OutOfRange };
  for (uint64_t seed : {0x5ca7u, 0x5ca8u, 0x5ca9u}) {
    util::Rng rng(seed);
    for (size_t q : {size_t{0}, size_t{1}, size_t{7}, size_t{1000}}) {
      for (size_t s : {size_t{1}, size_t{5}, size_t{64}, size_t{1000}}) {
        for (Shape shape : {Shape::Mixed, Shape::AllDead, Shape::Crowded,
                            Shape::OutOfRange}) {
          for (bool combine : {false, true}) {
            std::vector<uint64_t> table(s), addrs(q), vals(q), live(q);
            for (auto& t : table) t = rng.below(1000);
            for (size_t i = 0; i < q; ++i) {
              switch (shape) {
                case Shape::Mixed:
                  addrs[i] = rng.below(s + 4);  // some land past the table
                  vals[i] = rng.below(1000);
                  live[i] = rng.below(4) != 0;
                  break;
                case Shape::AllDead:
                  addrs[i] = rng.below(s);
                  vals[i] = rng.below(10);
                  live[i] = 0;
                  break;
                case Shape::Crowded:
                  addrs[i] = rng.below(s < 3 ? s : 3);
                  vals[i] = rng.below(4);  // many duplicate values
                  live[i] = 1;
                  break;
                case Shape::OutOfRange:
                  // ~0, just past the table, or 2^63 + a valid address
                  // (which a key shifted left by one would alias).
                  switch (rng.below(4)) {
                    case 0: addrs[i] = ~uint64_t{0}; break;
                    case 1: addrs[i] = s + rng.below(9); break;
                    case 2:
                      addrs[i] = (uint64_t{1} << 63) + rng.below(s);
                      break;
                    default: addrs[i] = rng.below(s); break;
                  }
                  vals[i] = rng.below(1000);
                  live[i] = 1;
                  break;
              }
            }
            const auto want =
                scatter_min_oracle(table, addrs, vals, live, combine);
            vec<uint64_t> t(table), a(addrs), v(vals), l(live);
            apps::scatter_min(t.s(), a.s(), v.s(), l.s(), combine);
            EXPECT_EQ(t.underlying(), want)
                << "seed=" << seed << " q=" << q << " s=" << s
                << " shape=" << static_cast<int>(shape)
                << " combine_min=" << combine;
          }
        }
      }
    }
  }
}

// Natively the request sort, the merge rounds, the scan and the
// neighbour pass fork on the pool: sizes past an L1 tile of records and a
// scan block, run on four threads, must still match the oracles.
TEST(GatherScatter, PooledRunsMatchOracle) {
  fj::WithPool wp(3);
  util::Rng rng(0x9001);
  const size_t s = 3000, q = 5000;
  std::vector<uint64_t> table(s), addrs(q), vals(q), live(q);
  for (auto& t : table) t = rng.below(1u << 20);
  for (size_t i = 0; i < q; ++i) {
    addrs[i] = sweep_addr(AddrShape::Mixed, s, rng);
    vals[i] = rng.below(1u << 20);
    live[i] = rng.below(4) != 0;
  }
  vec<uint64_t> t(table), a(addrs), v(vals), l(live), out(q);
  wp.run([&] { apps::gather(t.s(), a.s(), out.s()); });
  EXPECT_EQ(out.underlying(), gather_oracle(table, addrs));
  for (bool combine : {false, true}) {
    vec<uint64_t> tc(table);
    wp.run([&] { apps::scatter_min(tc.s(), a.s(), v.s(), l.s(), combine); });
    EXPECT_EQ(tc.underlying(),
              scatter_min_oracle(table, addrs, vals, live, combine))
        << "combine_min=" << combine;
  }
}

class ListRankTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ListRankTest, ObliviousMatchesInsecureAndGroundTruth) {
  const size_t n = GetParam();
  std::vector<uint64_t> order;
  auto succ = random_list_succ(n, 31 + n, &order);
  auto obl = apps::detail::list_rank(succ, /*seed=*/n);
  auto ins = insecure::list_rank(succ);
  ASSERT_EQ(obl, ins);
  // Ground truth: order[k] has distance n-1-k to the tail.
  for (size_t k = 0; k < n; ++k) {
    EXPECT_EQ(obl[order[k]], n - 1 - k);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ListRankTest,
                         ::testing::Values(size_t{1}, size_t{2}, size_t{17},
                                           size_t{128}, size_t{1000}));

TEST(ListRank, WeightedRanksSumPathWeights) {
  constexpr size_t n = 64;
  std::vector<uint64_t> order;
  auto succ = random_list_succ(n, 5, &order);
  std::vector<uint64_t> weight(n);
  for (size_t i = 0; i < n; ++i) weight[i] = i + 1;
  auto obl = apps::detail::list_rank(succ, weight, 99);
  auto ins = insecure::list_rank(succ, weight);
  EXPECT_EQ(obl, ins);
  // Tail rank 0; its predecessor has rank = its own weight.
  EXPECT_EQ(obl[order[n - 1]], 0u);
  EXPECT_EQ(obl[order[n - 2]], weight[order[n - 2]]);
}

// --- Trees ----------------------------------------------------------------

std::vector<apps::Edge> random_tree(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<apps::Edge> edges;
  for (uint32_t v = 1; v < n; ++v) {
    edges.push_back(apps::Edge{static_cast<uint32_t>(rng.below(v)), v});
  }
  return edges;
}

struct RefTree {
  std::vector<uint64_t> parent, depth, subtree;
};

RefTree reference_tree(size_t n, const std::vector<apps::Edge>& edges,
                       uint32_t root) {
  std::vector<std::vector<uint32_t>> adj(n);
  for (const auto& e : edges) {
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
  }
  RefTree rt;
  rt.parent.assign(n, root);
  rt.depth.assign(n, 0);
  rt.subtree.assign(n, 1);
  // Iterative DFS.
  std::vector<uint32_t> stack{root}, order;
  std::vector<bool> seen(n, false);
  seen[root] = true;
  while (!stack.empty()) {
    const uint32_t v = stack.back();
    stack.pop_back();
    order.push_back(v);
    for (uint32_t w : adj[v]) {
      if (!seen[w]) {
        seen[w] = true;
        rt.parent[w] = v;
        rt.depth[w] = rt.depth[v] + 1;
        stack.push_back(w);
      }
    }
  }
  for (size_t k = order.size(); k-- > 0;) {
    const uint32_t v = order[k];
    if (v != root) rt.subtree[rt.parent[v]] += rt.subtree[v];
  }
  return rt;
}

class TreeFnTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TreeFnTest, ObliviousMatchesReferenceDfs) {
  const size_t n = GetParam();
  auto edges = random_tree(n, 7 * n);
  const uint32_t root = 0;
  auto tf = apps::detail::tree_functions(edges, root, /*seed=*/n);
  auto ins = insecure::tree_functions(
      [&] {
        std::vector<insecure::Edge> ie(edges.size());
        for (size_t i = 0; i < edges.size(); ++i) {
          ie[i] = insecure::Edge{edges[i].u, edges[i].v};
        }
        return ie;
      }(),
      root);
  RefTree rt = reference_tree(n, edges, root);
  for (size_t v = 0; v < n; ++v) {
    EXPECT_EQ(tf.parent[v], rt.parent[v]) << v;
    EXPECT_EQ(tf.depth[v], rt.depth[v]) << v;
    EXPECT_EQ(tf.subtree[v], rt.subtree[v]) << v;
    EXPECT_EQ(ins.parent[v], rt.parent[v]) << v;
    EXPECT_EQ(ins.depth[v], rt.depth[v]) << v;
    EXPECT_EQ(ins.subtree[v], rt.subtree[v]) << v;
  }
  // Preorder: a valid preorder numbering visits parents before children.
  for (size_t v = 1; v < n; ++v) {
    EXPECT_LT(tf.preorder[rt.parent[v]], tf.preorder[v]) << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TreeFnTest,
                         ::testing::Values(size_t{2}, size_t{3}, size_t{9},
                                           size_t{40}, size_t{150}));

// --- Expression trees -------------------------------------------------------

apps::ExprTree random_expr_tree(size_t leaves, uint64_t seed) {
  util::Rng rng(seed);
  apps::ExprTree t;
  // Build bottom-up: combine random roots until one remains.
  std::vector<uint64_t> roots;
  for (size_t i = 0; i < leaves; ++i) {
    t.c0.push_back(apps::kNoNode);
    t.c1.push_back(apps::kNoNode);
    t.op.push_back(0);
    t.value.push_back(rng.below(1'000'000));
    roots.push_back(i);
  }
  while (roots.size() > 1) {
    const size_t i = rng.below(roots.size());
    const uint64_t a = roots[i];
    roots[i] = roots.back();
    roots.pop_back();
    const size_t j = rng.below(roots.size());
    const uint64_t b = roots[j];
    t.c0.push_back(a);
    t.c1.push_back(b);
    t.op.push_back(static_cast<uint8_t>(rng.below(2)));
    t.value.push_back(0);
    roots[j] = t.c0.size() - 1;
  }
  t.root = roots[0];
  return t;
}

class ContractionTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ContractionTest, ObliviousRakeMatchesRecursiveEval) {
  const size_t leaves = GetParam();
  for (uint64_t seed : {1u, 2u, 3u}) {
    apps::ExprTree t = random_expr_tree(leaves, seed * 100 + leaves);
    const uint64_t expect = apps::tree_eval_reference(t);
    EXPECT_EQ(apps::detail::tree_eval(t), expect) << seed;
    EXPECT_EQ(insecure::tree_eval(t), expect) << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ContractionTest,
                         ::testing::Values(size_t{1}, size_t{2}, size_t{5},
                                           size_t{16}, size_t{33},
                                           size_t{100}));

// --- Graphs -----------------------------------------------------------------

std::vector<apps::GEdge> random_graph(size_t n, size_t m, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<apps::GEdge> edges(m);
  for (size_t e = 0; e < m; ++e) {
    uint32_t u = static_cast<uint32_t>(rng.below(n));
    uint32_t v = static_cast<uint32_t>(rng.below(n));
    if (u == v) v = (v + 1) % n;
    edges[e] = apps::GEdge{u, v, 0};
  }
  return edges;
}

class CcTest : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(CcTest, ObliviousAndInsecureMatchOracle) {
  const auto [n, m] = GetParam();
  auto edges = random_graph(n, m, n * 13 + m);
  auto oracle = insecure::cc_oracle(n, edges);
  auto obl = apps::detail::connected_components(n, edges);
  auto ins = insecure::connected_components(n, edges);
  EXPECT_EQ(obl, oracle);
  EXPECT_EQ(ins, oracle);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CcTest,
    ::testing::Values(std::pair<size_t, size_t>{8, 4},
                      std::pair<size_t, size_t>{64, 32},
                      std::pair<size_t, size_t>{64, 200},
                      std::pair<size_t, size_t>{200, 100}));

TEST(Cc, AdversarialShapesPathAndStar) {
  constexpr size_t n = 128;
  // Path 0-1-2-...-n-1.
  std::vector<apps::GEdge> path;
  for (uint32_t v = 1; v < n; ++v) {
    path.push_back(apps::GEdge{v - 1, v, 0});
  }
  EXPECT_EQ(apps::detail::connected_components(n, path),
            insecure::cc_oracle(n, path));
  // Star centered at n-1 (max id) to stress hooking direction.
  std::vector<apps::GEdge> star;
  for (uint32_t v = 0; v + 1 < n; ++v) {
    star.push_back(apps::GEdge{static_cast<uint32_t>(n - 1), v, 0});
  }
  EXPECT_EQ(apps::detail::connected_components(n, star),
            insecure::cc_oracle(n, star));
}

class MsfTest : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(MsfTest, TotalWeightMatchesKruskalAndFormsSpanningForest) {
  const auto [n, m] = GetParam();
  auto edges = random_graph(n, m, n * 7 + m + 1);
  util::Rng rng(n + m);
  for (size_t e = 0; e < m; ++e) {
    edges[e].w = e * 3 + 1;  // distinct weights
  }
  const uint64_t want = insecure::msf_weight_oracle(n, edges);
  auto flags = apps::detail::msf(n, edges);
  uint64_t got = 0;
  size_t count = 0;
  insecure::UnionFind uf(n);
  for (size_t e = 0; e < m; ++e) {
    if (flags[e]) {
      got += edges[e].w;
      ++count;
      EXPECT_TRUE(uf.unite(edges[e].u, edges[e].v)) << "cycle edge " << e;
    }
  }
  EXPECT_EQ(got, want);
  auto insecure_flags = insecure::msf(n, edges);
  uint64_t got2 = 0;
  for (size_t e = 0; e < m; ++e) {
    if (insecure_flags[e]) got2 += edges[e].w;
  }
  EXPECT_EQ(got2, want);
  (void)count;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MsfTest,
    ::testing::Values(std::pair<size_t, size_t>{8, 10},
                      std::pair<size_t, size_t>{32, 60},
                      std::pair<size_t, size_t>{100, 300}));

// --- Release-mode graph contracts -------------------------------------------

TEST(GraphContract, EndpointAtOrAboveNThrows) {
  auto rt = Runtime::builder().seed(3).build();
  const std::vector<apps::GEdge> v_out{{0, 1, 1}, {3, 9, 2}};
  const std::vector<apps::GEdge> u_out{{4, 0, 1}};
  EXPECT_THROW(rt.connected_components(4, v_out), std::invalid_argument);
  EXPECT_THROW(rt.connected_components(4, u_out), std::invalid_argument);
  EXPECT_THROW(rt.msf(4, v_out), std::invalid_argument);
  EXPECT_THROW(rt.msf(4, u_out), std::invalid_argument);
  // n = 0 admits no edge at all.
  EXPECT_THROW(rt.connected_components(0, u_out), std::invalid_argument);
  // The largest legal endpoint is n - 1.
  const std::vector<apps::GEdge> ok{{3, 0, 1}};
  EXPECT_EQ(rt.connected_components(4, ok),
            (std::vector<uint64_t>{0, 1, 2, 0}));
  EXPECT_EQ(rt.msf(4, ok), (std::vector<uint8_t>{1}));
}

TEST(GraphContract, MsfWeightAtOrAbove2To31Throws) {
  auto rt = Runtime::builder().seed(3).build();
  std::vector<apps::GEdge> edges{{0, 1, 5}, {1, 2, 7}, {0, 2, 6}};
  edges[1].w = (uint64_t{1} << 33) + 1;  // would pack as the lightest
  EXPECT_THROW(rt.msf(3, edges), std::invalid_argument);
  edges[1].w = uint64_t{1} << 31;
  EXPECT_THROW(rt.msf(3, edges), std::invalid_argument);
  edges[1].w = (uint64_t{1} << 31) - 1;  // the largest legal weight
  EXPECT_EQ(rt.msf(3, edges), (std::vector<uint8_t>{1, 0, 1}));
  // Weights mean nothing to connected components.
  edges[1].w = ~uint64_t{0};
  EXPECT_EQ(rt.connected_components(3, edges),
            (std::vector<uint64_t>{0, 0, 0}));
}

// --- Obliviousness pins -----------------------------------------------------
//
// On a network backend the apps' access pattern is a function of the public
// sizes only: two inputs of equal sizes but different contents must leave
// the same trace digest.

Runtime traced_runtime() {
  return Runtime::builder().seed(5).backend("bitonic_ca").trace().build();
}

TEST(AppsOblivious, GatherDigestIsContentIndependent) {
  auto digest = [](uint64_t seed) {
    auto rt = traced_runtime();
    util::Rng rng(seed);
    std::vector<uint64_t> table(100), addrs(37);
    for (auto& t : table) t = rng();
    for (auto& a : addrs) {
      a = rng.below(3) ? rng.below(100) : ~uint64_t{0};
    }
    auto tv = rt.make_vec<uint64_t>(table);
    auto av = rt.make_vec<uint64_t>(addrs);
    auto out = rt.make_vec<uint64_t>(addrs.size());
    rt.gather(tv.s(), av.s(), out.s());
    return rt.trace_digest();
  };
  const uint64_t d = digest(1);
  EXPECT_NE(d, 0u);
  EXPECT_EQ(d, digest(2));
}

TEST(AppsOblivious, ScatterMinDigestIsContentIndependent) {
  auto digest = [](uint64_t seed, bool combine_min) {
    auto rt = traced_runtime();
    util::Rng rng(seed);
    std::vector<uint64_t> table(64), addrs(100), vals(100), live(100);
    for (auto& t : table) t = rng.below(50);
    for (size_t i = 0; i < addrs.size(); ++i) {
      // Seed-dependent mix of in-range, past-the-end and ~0 addresses,
      // and of live and dead proposals.
      const uint64_t kind = rng.below(4);
      addrs[i] = kind == 0   ? ~uint64_t{0}
                 : kind == 1 ? 64 + rng.below(10)
                             : rng.below(seed == 1 ? 64 : 3);
      vals[i] = rng.below(100);
      live[i] = rng.below(seed == 1 ? 2 : 8) != 0;
    }
    auto tv = rt.make_vec<uint64_t>(table);
    auto av = rt.make_vec<uint64_t>(addrs);
    auto vv = rt.make_vec<uint64_t>(vals);
    auto lv = rt.make_vec<uint64_t>(live);
    rt.scatter_min(tv.s(), av.s(), vv.s(), lv.s(), combine_min);
    return rt.trace_digest();
  };
  for (bool combine : {false, true}) {
    const uint64_t d = digest(1, combine);
    EXPECT_NE(d, 0u);
    EXPECT_EQ(d, digest(2, combine)) << "combine_min=" << combine;
  }
}

TEST(AppsOblivious, ConnectedComponentsDigestIsGraphIndependent) {
  constexpr size_t n = 48, m = 40;
  auto digest = [&](const std::vector<apps::GEdge>& edges) {
    auto rt = traced_runtime();
    const auto labels = rt.connected_components(n, edges);
    EXPECT_EQ(labels, insecure::cc_oracle(n, edges));
    return rt.trace_digest();
  };
  // A random graph vs a path prefix: different component structure.
  std::vector<apps::GEdge> path;
  for (uint32_t v = 1; v <= m; ++v) path.push_back(apps::GEdge{v - 1, v, 0});
  const uint64_t d = digest(random_graph(n, m, 91));
  EXPECT_NE(d, 0u);
  EXPECT_EQ(d, digest(path));
}

TEST(AppsOblivious, MsfDigestIsGraphIndependent) {
  constexpr size_t n = 40, m = 60;
  auto digest = [&](uint64_t seed) {
    auto edges = random_graph(n, m, seed);
    util::Rng rng(seed);
    for (size_t e = 0; e < m; ++e) edges[e].w = rng.below(1u << 20);
    auto rt = traced_runtime();
    const auto flags = rt.msf(n, edges);
    uint64_t got = 0;
    for (size_t e = 0; e < m; ++e) got += flags[e] ? edges[e].w : 0;
    EXPECT_EQ(got, insecure::msf_weight_oracle(n, edges));
    return rt.trace_digest();
  };
  const uint64_t d = digest(17);
  EXPECT_NE(d, 0u);
  EXPECT_EQ(d, digest(18));
}

// One plan read against two tables: the plan's sort, both merges and
// both answer sorts depend on the sizes only, whatever the addresses
// (in range, crowded, past the end) and table contents.
TEST(AppsOblivious, PlanGatherDigestIsContentIndependent) {
  auto digest = [](uint64_t seed) {
    sim::Session session = sim::Session::analytic().with_trace();
    sim::ScopedSession guard(session);
    util::Rng rng(seed);
    std::vector<uint64_t> addrs(45), small(20), large(64);
    for (auto& a : addrs) {
      a = seed == 1 ? sweep_addr(AddrShape::OutOfRange, 64, rng)
                    : sweep_addr(AddrShape::Crowded, 64, rng);
    }
    for (auto& t : small) t = rng();
    for (auto& t : large) t = rng();
    vec<uint64_t> av(addrs), sv(small), lv(large), o1(45), o2(45);
    const apps::AddrPlan plan(av.s());
    apps::gather(plan, sv.s(), o1.s());
    apps::gather(plan, lv.s(), o2.s());
    EXPECT_EQ(o2.underlying(), gather_oracle(large, addrs));
    return session.log()->digest();
  };
  const uint64_t d = digest(1);
  EXPECT_NE(d, 0u);
  EXPECT_EQ(d, digest(2));
}

// The tour's sort, group propagation, send-receives and closing
// scatter_min see only the edge count: a random tree, a path and a star
// rooted at different vertices leave one digest.
TEST(AppsOblivious, EulerTourDigestIsContentIndependent) {
  constexpr size_t n = 40;
  auto digest = [&](const std::vector<apps::Edge>& edges, uint32_t root) {
    auto rt = traced_runtime();
    const auto tour = rt.euler_tour(edges, root);
    EXPECT_EQ(tour.size(), 2 * edges.size());
    return rt.trace_digest();
  };
  std::vector<apps::Edge> path, star;
  for (uint32_t v = 1; v < n; ++v) {
    path.push_back(apps::Edge{v - 1, v});
    star.push_back(apps::Edge{0, v});
  }
  const uint64_t d = digest(random_tree(n, 3), 0);
  EXPECT_NE(d, 0u);
  EXPECT_EQ(d, digest(path, 17));
  EXPECT_EQ(d, digest(star, n - 1));
}

// Rake contraction's schedule follows the tree's shape (public), never its
// leaf values or operators: one shape with different values and an
// all-add vs an all-multiply operator assignment leaves one digest.
TEST(AppsOblivious, TreeEvalDigestIsValueIndependent) {
  auto digest = [](uint64_t seed, int ops) {
    apps::ExprTree t = random_expr_tree(40, 7);
    util::Rng rng(seed);
    for (size_t i = 0; i < t.size(); ++i) {
      if (t.is_leaf(i)) {
        t.value[i] = rng.below(1'000'000);
      } else {
        t.op[i] = ops < 0 ? static_cast<uint8_t>(rng.below(2))
                          : static_cast<uint8_t>(ops);
      }
    }
    auto rt = traced_runtime();
    EXPECT_EQ(rt.tree_eval(t), apps::tree_eval_reference(t));
    return rt.trace_digest();
  };
  const uint64_t d = digest(1, -1);
  EXPECT_NE(d, 0u);
  EXPECT_EQ(d, digest(2, -1));
  EXPECT_EQ(d, digest(3, 0));
  EXPECT_EQ(d, digest(4, 1));
}

}  // namespace
}  // namespace dopar
