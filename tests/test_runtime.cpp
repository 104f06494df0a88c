// Unit tests: the dopar::Runtime façade (core/runtime.hpp). Backend
// selection and submit() live in test_backends.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "dopar.hpp"
#include "testutil.hpp"

namespace dopar {
namespace {

// A record type the old Elem-bound API could not sort directly: non-POD
// payload, no key packing, no default-constructed filler encoding.
struct Order {
  uint64_t id = 0;
  std::string note;
  double amount = 0.0;
};

std::vector<Order> random_orders(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Order> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i].id = rng.below(1'000'000);
    v[i].note = "order-" + std::to_string(v[i].id);
    v[i].amount = static_cast<double>(v[i].id) * 1.5;
  }
  return v;
}

TEST(RuntimeSortRecords, RoundTripsNonTrivialPayloads) {
  constexpr size_t n = 3000;
  auto orders = random_orders(n, 17);
  auto orig = orders;

  auto rt = Runtime::builder().seed(99).build();
  rt.sort_records(std::span<Order>(orders),
                  [](const Order& o) { return o.id; });

  ASSERT_EQ(orders.size(), n);
  for (size_t i = 1; i < n; ++i) {
    EXPECT_LE(orders[i - 1].id, orders[i].id);
  }
  // Payloads travelled with their keys, nothing lost or duplicated.
  for (const Order& o : orders) {
    EXPECT_EQ(o.note, "order-" + std::to_string(o.id));
    EXPECT_DOUBLE_EQ(o.amount, static_cast<double>(o.id) * 1.5);
  }
  auto ids_of = [](std::vector<Order> v) {
    std::vector<uint64_t> ids(v.size());
    for (size_t i = 0; i < v.size(); ++i) ids[i] = v[i].id;
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  EXPECT_EQ(ids_of(orders), ids_of(orig));
}

TEST(RuntimeSortRecords, HandlesTinyAndDuplicateInputs) {
  auto rt = Runtime::builder().seed(5).build();
  std::vector<Order> empty;
  rt.sort_records(std::span<Order>(empty),
                  [](const Order& o) { return o.id; });
  EXPECT_TRUE(empty.empty());

  std::vector<Order> dup(257);
  for (size_t i = 0; i < dup.size(); ++i) {
    dup[i].id = i % 3;
    dup[i].note = std::to_string(i);
  }
  rt.sort_records(std::span<Order>(dup),
                  [](const Order& o) { return o.id; });
  for (size_t i = 1; i < dup.size(); ++i) {
    EXPECT_LE(dup[i - 1].id, dup[i].id);
  }
}

TEST(RuntimeSort, SortsElemSlicesOnEveryComparisonPhase) {
  // sort() runs ORP + REC-SORT; backend_sort() on "osort" and "spms" runs
  // the full pipeline with REC-SORT and with SPMS (practical tuning).
  constexpr size_t n = 2048;
  auto rt = Runtime::builder().seed(7).threads(3).build();
  const auto in = test::random_elems(n, 23);
  auto check = [&](const vec<Elem>& v, const char* what) {
    SCOPED_TRACE(what);
    EXPECT_TRUE(test::sorted_by_key(v.underlying()));
    EXPECT_TRUE(test::same_keys(v.underlying(), in));
  };
  vec<Elem> v(in);
  rt.sort(v.s());
  check(v, "sort");
  for (const char* backend : {"osort", "spms"}) {
    auto full = Runtime::builder().seed(7).threads(3).backend(backend).build();
    vec<Elem> w(in);
    full.backend_sort(w.s());
    check(w, backend);
  }
}

TEST(RuntimeSendReceive, RoutesThroughTheFacade) {
  auto rt = Runtime::builder().seed(3).build();
  vec<Elem> src(4), dst(3), res(3);
  for (size_t i = 0; i < 4; ++i) {
    src.s()[i].key = 10 + i;
    src.s()[i].payload = 100 + i;
  }
  dst.s()[0].key = 12;
  dst.s()[1].key = 10;
  dst.s()[2].key = 77;  // miss
  rt.send_receive(src.s(), dst.s(), res.s());
  EXPECT_EQ(res.s()[0].payload, 102u);
  EXPECT_EQ(res.s()[1].payload, 100u);
  EXPECT_NE(res.s()[2].flags & Elem::kNotFound, 0u);
}

// Two Runtimes with independent pools and seeds running concurrently in
// one process: each must behave exactly like an identically-built Runtime
// running alone (the old global pool singleton made this impossible).
TEST(RuntimeIsolation, TwoConcurrentRuntimesAreIndependent) {
  constexpr size_t n = 1500;

  auto permute_with = [&](uint64_t seed, unsigned threads,
                          uint64_t data_seed) {
    auto rt = Runtime::builder().seed(seed).threads(threads).build();
    auto in_data = test::random_elems(n, data_seed);
    vec<Elem> in(in_data), out(n);
    rt.permute(in.s(), out.s());
    std::vector<uint64_t> keys(n);
    for (size_t i = 0; i < n; ++i) keys[i] = out.underlying()[i].key;
    return keys;
  };

  // Golden results, computed serially and alone.
  const auto golden_a = permute_with(111, 1, 1);
  const auto golden_b = permute_with(222, 1, 2);

  std::vector<uint64_t> got_a, got_b;
  std::thread ta([&] { got_a = permute_with(111, 3, 1); });
  std::thread tb([&] { got_b = permute_with(222, 2, 2); });
  ta.join();
  tb.join();

  // Deterministic per runtime, independent of each other's presence and
  // of pool size.
  EXPECT_EQ(got_a, golden_a);
  EXPECT_EQ(got_b, golden_b);
  // Different master seeds give different permutations.
  EXPECT_NE(got_a, got_b);
}

TEST(RuntimeIsolation, ConcurrentSortsOnDistinctPoolsAreCorrect) {
  constexpr size_t n = 4096;
  auto run_sort = [&](uint64_t seed, std::vector<Elem>* out) {
    auto rt = Runtime::builder().seed(seed).threads(3).build();
    auto in = test::random_elems(n, seed);
    vec<Elem> v(in);
    rt.sort(v.s());
    *out = v.underlying();
  };
  std::vector<Elem> a, b;
  std::thread ta([&] { run_sort(31, &a); });
  std::thread tb([&] { run_sort(32, &b); });
  ta.join();
  tb.join();
  EXPECT_TRUE(test::sorted_by_key(a));
  EXPECT_TRUE(test::sorted_by_key(b));
}

// The filler sentinel is a Release-mode contract, not a Debug assert.
TEST(RuntimeContract, SortRecordsRejectsFillerSentinelKey) {
  auto rt = Runtime::builder().seed(2).build();
  std::vector<uint64_t> keys{5, ~uint64_t{0}, 3};
  EXPECT_THROW(rt.sort_records(std::span<uint64_t>(keys),
                               [](uint64_t k) { return k; }),
               std::invalid_argument);
  EXPECT_EQ(keys, (std::vector<uint64_t>{5, ~uint64_t{0}, 3}));  // untouched
  keys[1] = ~uint64_t{0} - 1;  // the largest legal key
  rt.sort_records(std::span<uint64_t>(keys), [](uint64_t k) { return k; });
  EXPECT_EQ(keys, (std::vector<uint64_t>{3, 5, ~uint64_t{0} - 1}));
}

// backend_sort pads a non-power-of-two input with fillers keyed 2^64-1; a
// record with that key used to tie with them and could be dropped while a
// filler took its place in the output.
TEST(RuntimeContract, BackendSortRejectsReservedKey) {
  for (const char* backend : {"bitonic_ca", "bitonic", "naive_bitonic"}) {
    auto rt = Runtime::builder().seed(2).backend(backend).build();
    for (const size_t n : {size_t{6}, size_t{7}, size_t{64}, size_t{100}}) {
      std::vector<obl::Elem> in(n);
      for (size_t i = 0; i < n; ++i) {
        in[i].key = i % 2 == 0 ? 7 : ~uint64_t{0};
        in[i].payload = i;
      }
      vec<obl::Elem> v = rt.make_vec(in);
      EXPECT_THROW(rt.backend_sort(v.s()), std::invalid_argument)
          << backend << " n=" << n;
      for (size_t i = 0; i < n; ++i) {  // untouched
        ASSERT_EQ(v.s().raw(i).key, in[i].key) << backend << " n=" << n;
      }
      // The largest legal key sorts, and every record survives.
      for (obl::Elem& e : in) e.key = std::min(e.key, ~uint64_t{0} - 1);
      vec<obl::Elem> ok = rt.make_vec(in);
      rt.backend_sort(ok.s());
      std::vector<uint64_t> payloads;
      for (size_t i = 0; i < n; ++i) {
        payloads.push_back(ok.s().raw(i).payload);
        if (i > 0) {
          ASSERT_LE(ok.s().raw(i - 1).key, ok.s().raw(i).key) << backend;
        }
      }
      std::sort(payloads.begin(), payloads.end());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(payloads[i], i) << backend << " n=" << n;
      }
    }
  }
}

// Only the network backends pad a non-power-of-two input; the full sorts
// take any n, so 700 keys cost them less work than 1024 (padding to 1024
// added the pad copies on top of the 1024-key sort).
TEST(RuntimeContract, FullSortBackendSortsUnpadded) {
  for (const char* backend : {"spms", "osort"}) {
    auto work_of = [&](size_t n) {
      auto rt = Runtime::builder().seed(2).backend(backend).analytic().build();
      auto v = rt.make_vec<Elem>(test::random_elems(n, 5));
      rt.backend_sort(v.s());
      EXPECT_TRUE(test::sorted_by_key(v.underlying())) << backend << n;
      return rt.cost().work;
    };
    EXPECT_LT(work_of(700), work_of(1024)) << backend;
  }
}

// Output and per-address arrays must match the address count; a mismatch
// used to write past the smaller buffer.
TEST(RuntimeContract, GatherAndScatterRejectSizeMismatch) {
  auto rt = Runtime::builder().seed(2).build();
  vec<uint64_t> table(4), addrs(8), out_short(2), ones(8, 1), short2(2);
  EXPECT_THROW(rt.gather(table.s(), addrs.s(), out_short.s()),
               std::invalid_argument);
  EXPECT_THROW(rt.scatter_min(table.s(), addrs.s(), short2.s(), ones.s()),
               std::invalid_argument);
  EXPECT_THROW(rt.scatter_min(table.s(), addrs.s(), ones.s(), short2.s()),
               std::invalid_argument);
  // Matching sizes run: table[1] = 7 is read at every address 1.
  table.s()[1] = 7;
  vec<uint64_t> out(8);
  for (size_t i = 0; i < 8; ++i) addrs.s()[i] = i % 2;
  rt.gather(table.s(), addrs.s(), out.s());
  EXPECT_EQ(out.s()[1], 7u);
  EXPECT_EQ(out.s()[0], 0u);
}

// A short `out` used to be written past its end in Release builds.
TEST(RuntimeContract, PermuteRejectsSizeMismatch) {
  auto rt = Runtime::builder().seed(2).build();
  vec<obl::Elem> in(8), out_short(7), out_long(9);
  EXPECT_THROW(rt.permute(in.s(), out_short.s()), std::invalid_argument);
  EXPECT_THROW(rt.permute(in.s(), out_long.s()), std::invalid_argument);
  // Matching sizes run: the output is a permutation of the payloads.
  for (size_t i = 0; i < 8; ++i) in.s()[i].payload = i;
  vec<obl::Elem> out(8);
  rt.permute(in.s(), out.s());
  std::vector<uint64_t> got;
  for (size_t i = 0; i < 8; ++i) got.push_back(out.s()[i].payload);
  std::sort(got.begin(), got.end());
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(got[i], i);
}

TEST(RuntimeContract, ListRankRejectsBadSuccessorsAndWeights) {
  auto rt = Runtime::builder().seed(2).build();
  // 0 -> 1 -> 2 (tail); a successor of 3 would index past the list.
  EXPECT_THROW(rt.list_rank({1, 3, 2}), std::invalid_argument);
  EXPECT_THROW(rt.list_rank({1, 2, 2}, {1, 1}), std::invalid_argument);
  EXPECT_THROW(rt.list_rank({1, 2, ~uint64_t{0}}, {1, 1, 1}),
               std::invalid_argument);
  EXPECT_EQ(rt.list_rank({1, 2, 2}), (std::vector<uint64_t>{2, 1, 0}));
  EXPECT_EQ(rt.list_rank({1, 2, 2}, {5, 7, 9}),
            (std::vector<uint64_t>{12, 7, 0}));
}

TEST(RuntimeContract, BinAssignRejectsOffPow2AndUndersizedInputs) {
  auto rt = Runtime::builder().seed(2).build();
  auto odd = rt.make_vec<Elem>(test::random_elems(96, 3));
  EXPECT_THROW((void)rt.bin_assign(odd.s()), std::invalid_argument);
  auto small = rt.make_vec<Elem>(test::random_elems(32, 3));
  const core::SortParams wide = core::SortParams::auto_for(256);
  ASSERT_GT(wide.Z, 32u);  // Z above |in|
  auto wide_rt = Runtime::builder().seed(2).params(wide).build();
  EXPECT_THROW((void)wide_rt.bin_assign(small.s()), std::invalid_argument);
  const core::OrbaOutput out = rt.bin_assign(small.s());
  EXPECT_EQ(out.beta * out.Z, 2 * small.size());
}

// Tree vertices are 0..|edges|; an endpoint or root past that used to
// index past the per-vertex outputs of tree_functions.
TEST(RuntimeContract, TreeFunctionsRejectOutOfRangeEdgesAndRoot) {
  auto rt = Runtime::builder().seed(2).build();
  const std::vector<apps::Edge> ok{{0, 1}, {1, 2}};  // vertices 0..2
  const std::vector<apps::Edge> far_v{{0, 1}, {1, 3}};
  const std::vector<apps::Edge> far_u{{3, 1}, {1, 2}};
  for (const auto& bad : {far_v, far_u}) {
    EXPECT_THROW((void)rt.euler_tour(bad, 0), std::invalid_argument);
    EXPECT_THROW((void)rt.tree_functions(bad, 0), std::invalid_argument);
  }
  EXPECT_THROW((void)rt.euler_tour(ok, 3), std::invalid_argument);
  EXPECT_THROW((void)rt.tree_functions(ok, 3), std::invalid_argument);
  EXPECT_THROW((void)rt.euler_tour({}, 0), std::invalid_argument);
  EXPECT_THROW((void)rt.tree_functions({}, 0), std::invalid_argument);
  // The largest legal endpoint and root is |edges|.
  const apps::TreeFunctions tf = rt.tree_functions(ok, 2);
  EXPECT_EQ(tf.parent, (std::vector<uint64_t>{1, 2, 2}));
  EXPECT_EQ(tf.depth, (std::vector<uint64_t>{2, 1, 0}));
  EXPECT_EQ(rt.euler_tour(ok, 2).size(), 4u);
}

// tree_eval walks child pointers host-side before the oblivious phase: a
// child past the node table, a half-leaf or a node reached twice used to
// index out of bounds or loop.
TEST(RuntimeContract, TreeEvalRejectsMalformedTrees) {
  auto rt = Runtime::builder().seed(2).build();
  // (leaf 0) + (leaf 1) at node 2.
  apps::ExprTree t;
  t.c0 = {apps::kNoNode, apps::kNoNode, 0};
  t.c1 = {apps::kNoNode, apps::kNoNode, 1};
  t.op = {0, 0, 0};
  t.value = {5, 7, 0};
  t.root = 2;
  EXPECT_EQ(rt.tree_eval(t), 12u);
  auto bad = [&](auto&& mutate) {
    apps::ExprTree b = t;
    mutate(b);
    EXPECT_THROW((void)rt.tree_eval(b), std::invalid_argument);
  };
  bad([](apps::ExprTree& b) { b.c1[2] = 3; });                // child >= n
  bad([](apps::ExprTree& b) { b.c1[2] = apps::kNoNode; });    // one child
  bad([](apps::ExprTree& b) { b.c1[2] = 0; });                // shared child
  bad([](apps::ExprTree& b) { b.root = 3; });                 // root >= n
  bad([](apps::ExprTree& b) { b.root = 0; });                 // unreachable
  bad([](apps::ExprTree& b) { b.value.pop_back(); });         // size mismatch
  bad([](apps::ExprTree& b) { b = apps::ExprTree{}; });       // no nodes
}

TEST(RuntimeContract, SendReceiveRejectsSizeMismatchAndWideKeys) {
  auto rt = Runtime::builder().seed(2).build();
  vec<Elem> src(4), dst(8), res_short(2), res(8);
  EXPECT_THROW(rt.send_receive(src.s(), dst.s(), res_short.s()),
               std::invalid_argument);
  constexpr uint64_t kWide = uint64_t{1} << 63;
  // key << 1 would alias a receiver asking for 2^63 + 5 onto key 5.
  src.s()[0].key = 5;
  dst.s()[0].key = kWide + 5;
  EXPECT_THROW(rt.send_receive(src.s(), dst.s(), res.s()),
               std::invalid_argument);
  dst.s()[0].key = 5;
  src.s()[1].key = kWide + 5;
  EXPECT_THROW(rt.send_receive(src.s(), dst.s(), res.s()),
               std::invalid_argument);
  // A filler source is exempt: it carries the sink key by design.
  src.s()[1] = Elem::filler();
  src.s()[0].payload = 42;
  rt.send_receive(src.s(), dst.s(), res.s());
  EXPECT_EQ(res.s()[0].payload, 42u);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DOPAR_TEST_FOREIGN_MALLOC 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DOPAR_TEST_FOREIGN_MALLOC 1
#endif
#endif

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

// The heap policy (util/heap.hpp) keeps a call's freed scratch mapped, so
// repeating a sort reuses the pages its first call faulted in. Under
// glibc's defaults each repeat faulted in thousands of fresh pages.
TEST(RuntimeHeap, RepeatedSortReusesItsScratchPages) {
#if !defined(__GLIBC__) || defined(DOPAR_TEST_FOREIGN_MALLOC)
  GTEST_SKIP() << "the heap policy applies to glibc's malloc only";
#endif
  constexpr size_t n = size_t{1} << 16;
  auto rt = Runtime::builder().seed(5).threads(1).build();
  const auto in = test::random_elems(n, 41);
  const auto sort_once = [&] {
    vec<Elem> v = rt.make_vec(in);
    rt.sort(v.s());
    return test::sorted_by_key(v.underlying());
  };
  ASSERT_TRUE(sort_once());
  const long before = minor_faults();
  EXPECT_TRUE(sort_once());
  EXPECT_TRUE(sort_once());
  // 2 x 2^16 32-byte records of input alone would be 1024 pages.
  EXPECT_LT(minor_faults() - before, 128);
}

// Same builder configuration => identical outputs AND identical ORP trace
// digests, call-for-call; a different master seed changes the permutation.
TEST(RuntimeDeterminism, SameBuilderReplaysOutputsAndTraceDigest) {
  constexpr size_t n = 1024;
  auto trace_run = [&](uint64_t seed) {
    auto rt = Runtime::builder().seed(seed).trace().build();
    auto in_data = test::random_elems(n, 77);
    auto in = rt.make_vec<Elem>(in_data);
    auto out = rt.make_vec<Elem>(n);
    rt.permute(in.s(), out.s());
    std::vector<uint64_t> keys(n);
    for (size_t i = 0; i < n; ++i) keys[i] = out.underlying()[i].key;
    return std::make_pair(keys, rt.trace_digest());
  };

  const auto [keys1, digest1] = trace_run(1234);
  const auto [keys2, digest2] = trace_run(1234);
  EXPECT_EQ(keys1, keys2);
  EXPECT_NE(digest1, 0u);
  EXPECT_EQ(digest1, digest2);

  const auto [keys3, digest3] = trace_run(4321);
  EXPECT_NE(keys1, keys3);  // ~n!/(n!)^2 collision chance: negligible
  (void)digest3;
}

// The trace digest is also input-independent (the obliviousness property,
// now reachable without touching sim::Session directly).
TEST(RuntimeDeterminism, TraceDigestIsInputIndependent) {
  constexpr size_t n = 512;
  auto digest_for = [&](uint64_t data_seed) {
    auto rt = Runtime::builder().seed(9).trace().build();
    auto in = rt.make_vec<Elem>(test::random_elems(n, data_seed));
    auto out = rt.make_vec<Elem>(n);
    rt.permute(in.s(), out.s());
    return rt.trace_digest();
  };
  EXPECT_EQ(digest_for(100), digest_for(200));
}

TEST(RuntimeInstrumentation, CostAndCacheCountersAccumulate) {
  constexpr size_t n = 2048;
  auto rt = Runtime::builder().seed(4).cache(1 << 16, 64).build();
  EXPECT_TRUE(rt.instrumented());
  auto v = rt.make_vec<Elem>(test::random_elems(n, 8));
  rt.sort(v.s());
  EXPECT_TRUE(test::sorted_by_key(v.underlying()));
  EXPECT_GT(rt.cost().work, 0u);
  EXPECT_GT(rt.cost().span, 0u);
  EXPECT_LT(rt.cost().span, rt.cost().work);
  EXPECT_GT(rt.cache_misses(), 0u);
}

TEST(RuntimeApps, GraphAndListMethodsMatchEngines) {
  auto rt = Runtime::builder().seed(21).build();

  // List ranking on a simple chain 0 -> 1 -> ... -> 9 (tail = 9).
  std::vector<uint64_t> succ{1, 2, 3, 4, 5, 6, 7, 8, 9, 9};
  auto rank = rt.list_rank(succ);
  ASSERT_EQ(rank.size(), succ.size());
  for (size_t i = 0; i < succ.size(); ++i) {
    EXPECT_EQ(rank[i], succ.size() - 1 - i);
  }

  // Connected components on two triangles.
  std::vector<GEdge> edges{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}};
  auto labels = rt.connected_components(6, edges);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_EQ(labels[4], labels[5]);
  EXPECT_NE(labels[0], labels[3]);

  // Tree functions on a path 0 - 1 - 2 - 3.
  std::vector<Edge> tree{{0, 1}, {1, 2}, {2, 3}};
  auto tf = rt.tree_functions(tree, 0);
  EXPECT_EQ(tf.depth[3], 3u);
  EXPECT_EQ(tf.parent[3], 2u);
  EXPECT_EQ(tf.subtree[0], 4u);
}

TEST(RuntimeSeeds, EveryRandomizedCallDrawsAFreshSeed) {
  auto rt = Runtime::builder().seed(50).build();
  auto in = test::random_elems(64, 3);
  vec<Elem> a(in), b(in);
  rt.sort(a.s());
  rt.sort(b.s());
  EXPECT_EQ(rt.seeds_drawn(), 2u);
}

}  // namespace
}  // namespace dopar
