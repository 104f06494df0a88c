// Property-based sweeps and failure-injection tests across the whole
// stack: invariants that must hold for every (algorithm, size, seed,
// sorter) combination, adversarial parameterizations, and the retry paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "core/backend.hpp"
#include "core/orba.hpp"
#include "core/orp.hpp"
#include "core/osort.hpp"
#include "obl/binplace.hpp"
#include "obl/compact.hpp"
#include "obl/oddeven.hpp"
#include "obl/sendrecv.hpp"
#include "sim/session.hpp"
#include "testutil.hpp"
#include "util/rng.hpp"

namespace dopar {
namespace {

using obl::Elem;

// ---------- osort invariants across phases x sizes x seeds ---------------

class OsortPropertyTest
    : public ::testing::TestWithParam<
          std::tuple<std::optional<core::SpmsTuning>, size_t, uint64_t>> {};

TEST_P(OsortPropertyTest, SortedPermutationWithPayloadIntegrity) {
  const auto [phase, n, seed] = GetParam();
  util::Rng rng(seed * 1000 + n);
  std::vector<Elem> in(n);
  for (size_t i = 0; i < n; ++i) {
    in[i].key = rng.below(n / 2 + 1);  // heavy duplicates on purpose
    in[i].payload = in[i].key * 31 + 7;
    in[i].aux = i;
  }
  vec<Elem> v(in);
  core::detail::osort(v.s(), seed, phase);
  ASSERT_TRUE(test::sorted_by_key(v.underlying()));
  ASSERT_TRUE(test::same_keys(v.underlying(), in));
  // Payload must stay glued to its key.
  for (const Elem& e : v.underlying()) {
    ASSERT_EQ(e.payload, e.key * 31 + 7);
  }
  // aux values form a permutation of 0..n-1 (no element duplicated/lost).
  std::set<uint64_t> auxes;
  for (const Elem& e : v.underlying()) auxes.insert(e.aux);
  ASSERT_EQ(auxes.size(), n);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OsortPropertyTest,
    ::testing::Combine(::testing::ValuesIn(test::sort_phases()),
                       ::testing::Values(size_t{3}, size_t{257}, size_t{1024},
                                         size_t{3333}),
                       ::testing::Values(uint64_t{1}, uint64_t{2},
                                         uint64_t{3})));

// ---------- ORBA: the routed multiset is exactly the input ----------------

class OrbaPropertyTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(OrbaPropertyTest, RoutingPreservesMultisetAndRespectsLabels) {
  const auto [n, Z, gamma] = GetParam();
  core::SortParams p;
  p.Z = Z;
  p.gamma = gamma;
  auto in = test::random_elems(n, n + Z + gamma);
  vec<Elem> inv(in);
  try {
    core::OrbaOutput out = core::detail::orba(inv.s(), 5, p);
    std::vector<Elem> routed;
    for (size_t b = 0; b < out.beta; ++b) {
      for (size_t k = 0; k < out.Z; ++k) {
        const core::Routed& r = out.bins.underlying()[b * out.Z + k];
        if (!r.e.is_filler()) {
          ASSERT_EQ(r.label, b);
          routed.push_back(r.e);
        }
      }
    }
    ASSERT_TRUE(test::same_keys(routed, in));
  } catch (const obl::BinOverflow&) {
    // Legal outcome for the tight-Z parameterizations; the retry path is
    // exercised by orp() tests.
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OrbaPropertyTest,
    ::testing::Combine(::testing::Values(size_t{256}, size_t{1024},
                                         size_t{4096}),
                       ::testing::Values(size_t{32}, size_t{64}, size_t{128}),
                       ::testing::Values(size_t{4}, size_t{8}, size_t{16})));

// ---------- Failure injection: retry machinery ----------------------------

TEST(FailureInjection, OrpSurvivesAdversariallyTinyBins) {
  // Z = 4 overflows constantly; orp must either converge via retries or
  // throw PermuteFailure — never return a wrong permutation.
  constexpr size_t n = 256;
  auto in = test::random_elems(n, 1);
  core::SortParams p;
  p.Z = 4;
  p.gamma = 4;
  p.max_retries = 64;
  vec<Elem> inv(in), outv(n);
  try {
    core::detail::orp(inv.s(), outv.s(), 3, p);
    EXPECT_TRUE(test::same_keys(outv.underlying(), in));
  } catch (const core::PermuteFailure&) {
    SUCCEED();  // acceptable: retries exhausted, no silent corruption
  }
}

TEST(FailureInjection, OsortRecoversFromRecsortOverflow) {
  // Force tiny REC-SORT bins so the first attempts overflow; osort must
  // still deliver a correct sort through re-permutation.
  constexpr size_t n = 4096;
  auto in = test::random_elems(n, 2, /*key_bound=*/8);  // heavy duplicates
  core::SortParams p = core::SortParams::auto_for(n);
  p.rec_bin = 256;
  p.max_retries = 32;
  vec<Elem> v(in);
  core::detail::osort(v.s(), 5, std::nullopt, p);
  EXPECT_TRUE(test::sorted_by_key(v.underlying()));
  EXPECT_TRUE(test::same_keys(v.underlying(), in));
}

TEST(FailureInjection, BinPlacementNeverLosesElementsSilently) {
  // Across many tight configurations: either all reals come out, or
  // BinOverflow is thrown.
  for (uint64_t seed = 0; seed < 30; ++seed) {
    constexpr size_t beta = 8, Z = 8;
    util::Rng rng(seed);
    std::vector<Elem> in(beta * Z / 2);
    for (auto& e : in) e.extra = static_cast<uint32_t>(rng.below(beta));
    vec<Elem> inv(in);
    vec<Elem> out(beta * Z);
    try {
      obl::bin_placement(
          inv.s(), out.s(), beta, Z,
          [](const Elem& e) { return uint64_t{e.extra}; });
      size_t reals = 0;
      for (const Elem& e : out.underlying()) reals += !e.is_filler();
      ASSERT_EQ(reals, in.size()) << seed;
    } catch (const obl::BinOverflow&) {
      // fine
    }
  }
}

// ---------- Cross-sorter consistency ---------------------------------------

TEST(SorterConsistency, AllSortersAgreeOnSendReceive) {
  constexpr size_t ns = 100, nd = 150;
  util::Rng rng(4);
  std::vector<Elem> sources(ns), dests(nd);
  for (size_t i = 0; i < ns; ++i) {
    sources[i].key = 3 * i;
    sources[i].payload = 1000 + i;
  }
  for (size_t i = 0; i < nd; ++i) dests[i].key = rng.below(3 * ns);

  auto run = [&](std::string_view backend) {
    auto sorter = make_backend(backend);
    vec<Elem> s(sources), d(dests), r(nd);
    obl::detail::send_receive(s.s(), d.s(), r.s(), *sorter);
    std::vector<std::pair<uint64_t, bool>> out;
    for (const Elem& e : r.underlying()) {
      out.emplace_back(e.payload, (e.flags & Elem::kNotFound) != 0);
    }
    return out;
  };
  const auto a = run("bitonic_ca");
  const auto b = run("naive_bitonic");
  const auto c = run("odd_even");
  const auto d = run("osort");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_EQ(a, d);
}

TEST(SorterConsistency, LayerwiseBitonicSortsAndIsOblivious) {
  for (size_t n : {size_t{2}, size_t{64}, size_t{1024}}) {
    auto data = test::random_elems(n, n);
    vec<Elem> v(data);
    obl::bitonic_sort_layerwise(v.s());
    EXPECT_TRUE(test::sorted_by_key(v.underlying()));
    EXPECT_TRUE(test::same_keys(v.underlying(), data));
  }
  auto digest_of = [](uint64_t seed) {
    sim::Session s = sim::Session::analytic().with_trace();
    sim::ScopedSession guard(s);
    auto data = test::random_elems(256, seed);
    vec<Elem> v(data);
    obl::bitonic_sort_layerwise(v.s());
    return s.log()->digest();
  };
  EXPECT_EQ(digest_of(1), digest_of(2));
}

// ---------- Compaction round-trips -----------------------------------------

TEST(CompactionProperty, ObliviousKeepsAStableLivePrefix) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    constexpr size_t n = 256;
    util::Rng rng(seed);
    vec<Elem> v(n);
    std::vector<uint64_t> live_payloads;
    for (size_t i = 0; i < n; ++i) {
      v.underlying()[i].key = i;
      v.underlying()[i].payload = i;
      if (rng.coin(0.4)) {
        v.underlying()[i].flags = Elem::kFiller;
        v.underlying()[i].key = ~uint64_t{0};
      } else {
        live_payloads.push_back(i);
      }
    }
    obl::compact_oblivious(v.s());
    const size_t live = live_payloads.size();
    for (size_t i = 0; i < live; ++i) {
      EXPECT_FALSE(v.underlying()[i].is_filler());
      EXPECT_EQ(v.underlying()[i].payload, live_payloads[i]);  // stable
    }
    for (size_t i = live; i < n; ++i) {
      EXPECT_TRUE(v.underlying()[i].is_filler());
    }
  }
}

// ---------- ORP composition: permuting twice is still uniform --------------

TEST(OrpProperty, ComposedPermutationsStayUniformMarginally) {
  constexpr size_t n = 8;
  constexpr int kTrials = 3000;
  std::vector<std::vector<int>> hist(n, std::vector<int>(n, 0));
  for (int t = 0; t < kTrials; ++t) {
    std::vector<Elem> in(n);
    for (size_t i = 0; i < n; ++i) in[i].key = i;
    vec<Elem> a(in), b(n), c(n);
    core::detail::orp(a.s(), b.s(), 10'000 + 2 * t);
    core::detail::orp(b.s(), c.s(), 10'001 + 2 * t);
    for (size_t pos = 0; pos < n; ++pos) {
      hist[c.underlying()[pos].key][pos]++;
    }
  }
  const double expect = double(kTrials) / n;
  for (size_t e = 0; e < n; ++e) {
    for (size_t pos = 0; pos < n; ++pos) {
      EXPECT_NEAR(hist[e][pos], expect, expect * 0.45);
    }
  }
}

}  // namespace
}  // namespace dopar
