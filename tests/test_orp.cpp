// Unit + statistical tests: oblivious random permutation (paper §C.3/D.2).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/orp.hpp"
#include "sim/session.hpp"
#include "testutil.hpp"

namespace dopar {
namespace {

using obl::Elem;

core::SortParams params_for(size_t n) {
  return core::SortParams::auto_for(n);
}

TEST(Orp, OutputIsAPermutationOfTheInput) {
  for (size_t n : {size_t{64}, size_t{1024}, size_t{4096}}) {
    auto in = test::random_elems(n, n);
    vec<Elem> inv(in), outv(n);
    core::detail::orp(inv.s(), outv.s(), /*seed=*/5, params_for(n));
    EXPECT_TRUE(test::same_keys(outv.underlying(), in));
    for (const Elem& e : outv.underlying()) EXPECT_FALSE(e.is_filler());
  }
}

TEST(Orp, PaddedInputKeepsRealsFirst) {
  constexpr size_t n = 256;
  std::vector<Elem> in(n, Elem::filler());
  for (size_t i = 0; i < 100; ++i) {
    in[i] = Elem{};
    in[i].key = i;
  }
  vec<Elem> inv(in), outv(n);
  core::detail::orp(inv.s(), outv.s(), 9, params_for(n));
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(outv.underlying()[i].is_filler());
  }
  for (size_t i = 100; i < n; ++i) {
    EXPECT_TRUE(outv.underlying()[i].is_filler());
  }
}

TEST(Orp, DifferentSeedsGiveDifferentPermutations) {
  constexpr size_t n = 256;
  auto in = test::random_elems(n, 1);
  vec<Elem> inv(in), a(n), b(n);
  core::detail::orp(inv.s(), a.s(), 100, params_for(n));
  core::detail::orp(inv.s(), b.s(), 200, params_for(n));
  size_t same = 0;
  for (size_t i = 0; i < n; ++i) {
    same += a.underlying()[i].key == b.underlying()[i].key;
  }
  EXPECT_LT(same, n / 4);  // expected ~1 fixed point
}

TEST(Orp, UniformityChiSquareOverAllPermutationsOfFour) {
  // n = 4 has 24 permutations; with 6000 trials each cell expects 250.
  // Chi-square with 23 dof: reject-at-1e-9 threshold is ~80. A biased
  // permutation network fails this decisively.
  constexpr size_t n = 4;
  constexpr int kTrials = 6000;
  std::map<std::array<uint64_t, n>, int> counts;
  for (int t = 0; t < kTrials; ++t) {
    std::vector<Elem> in(n);
    for (size_t i = 0; i < n; ++i) in[i].key = i;
    vec<Elem> inv(in), outv(n);
    core::detail::orp(inv.s(), outv.s(), 500'000 + t, params_for(n));
    std::array<uint64_t, n> perm{};
    for (size_t i = 0; i < n; ++i) perm[i] = outv.underlying()[i].key;
    counts[perm]++;
  }
  EXPECT_EQ(counts.size(), 24u);
  double chi2 = 0;
  const double expect = double(kTrials) / 24.0;
  for (const auto& [perm, c] : counts) {
    chi2 += (c - expect) * (c - expect) / expect;
  }
  EXPECT_LT(chi2, 80.0) << "permutation distribution is biased";
}

TEST(Orp, PositionMarginalsAreUniform) {
  // Each input element should land in each position with prob 1/n.
  constexpr size_t n = 16;
  constexpr int kTrials = 2000;
  std::vector<std::vector<int>> hist(n, std::vector<int>(n, 0));
  for (int t = 0; t < kTrials; ++t) {
    std::vector<Elem> in(n);
    for (size_t i = 0; i < n; ++i) in[i].key = i;
    vec<Elem> inv(in), outv(n);
    core::detail::orp(inv.s(), outv.s(), 900'000 + t, params_for(n));
    for (size_t pos = 0; pos < n; ++pos) {
      hist[outv.underlying()[pos].key][pos]++;
    }
  }
  const double expect = double(kTrials) / n;
  for (size_t e = 0; e < n; ++e) {
    for (size_t pos = 0; pos < n; ++pos) {
      EXPECT_NEAR(hist[e][pos], expect, expect * 0.5)
          << "element " << e << " position " << pos;
    }
  }
}

TEST(Orp, TraceIndependentOfInputValuesForFixedSeed) {
  // The permutation phase's pattern depends only on internal randomness,
  // never on the data: same seed + different data => identical trace.
  auto digest_of = [](uint64_t data_seed) {
    sim::Session s = sim::Session::analytic().with_trace();
    sim::ScopedSession guard(s);
    auto in = test::random_elems(256, data_seed);
    vec<Elem> inv(in), outv(256);
    core::detail::orp(inv.s(), outv.s(), /*seed=*/4242, params_for(256));
    return s.log()->digest();
  };
  EXPECT_EQ(digest_of(1), digest_of(2));
  EXPECT_EQ(digest_of(2), digest_of(77));
}

TEST(Orp, SpanIsPolylog) {
  auto span_of = [](size_t n) {
    sim::Session s = sim::Session::analytic();
    sim::ScopedSession guard(s);
    auto in = test::random_elems(n, 5);
    vec<Elem> inv(in), outv(n);
    core::detail::orp(inv.s(), outv.s(), /*seed=*/3, params_for(n));
    return double(s.cost().span);
  };
  // Quadrupling n must grow span far less than 4x (a serial O(n) pass
  // anywhere in the pipeline shows up here).
  const double r = span_of(1 << 13) / span_of(1 << 11);
  EXPECT_LT(r, 2.0);
}

}  // namespace
}  // namespace dopar
