// Unit tests: REC-ORBA (oblivious random bin assignment) — paper §3.1/D.1.

#include <gtest/gtest.h>

#include <vector>

#include "core/orba.hpp"
#include "sim/session.hpp"
#include "testutil.hpp"

namespace dopar {
namespace {

using core::Routed;
using obl::Elem;

core::SortParams small_params(size_t Z, size_t gamma) {
  core::SortParams p;
  p.Z = Z;
  p.gamma = gamma;
  return p;
}

TEST(Orba, EveryRealElementReachesItsLabeledBin) {
  constexpr size_t n = 1024, Z = 64;
  auto in = test::random_elems(n, 3);
  vec<Elem> inv(in);
  core::OrbaOutput out = core::detail::orba(inv.s(), /*seed=*/99, small_params(Z, 4));
  ASSERT_EQ(out.beta, 2 * n / Z);
  size_t reals = 0;
  for (size_t b = 0; b < out.beta; ++b) {
    for (size_t k = 0; k < out.Z; ++k) {
      const Routed& r = out.bins.underlying()[b * out.Z + k];
      if (!r.e.is_filler()) {
        EXPECT_EQ(r.label, b) << "bin " << b << " slot " << k;
        ++reals;
      }
    }
  }
  EXPECT_EQ(reals, n);
}

TEST(Orba, PayloadsSurviveRouting) {
  constexpr size_t n = 256, Z = 32;
  auto in = test::random_elems(n, 5);
  vec<Elem> inv(in);
  core::OrbaOutput out = core::detail::orba(inv.s(), 7, small_params(Z, 4));
  std::vector<Elem> routed;
  for (const Routed& r : out.bins.underlying()) {
    if (!r.e.is_filler()) routed.push_back(r.e);
  }
  EXPECT_TRUE(test::same_keys(routed, in));
}

TEST(Orba, LargerGammaStillRoutesCorrectly) {
  constexpr size_t n = 4096, Z = 64;  // beta = 128, gamma = 16
  auto in = test::random_elems(n, 8);
  vec<Elem> inv(in);
  core::OrbaOutput out = core::detail::orba(inv.s(), 21, small_params(Z, 16));
  for (size_t b = 0; b < out.beta; ++b) {
    for (size_t k = 0; k < out.Z; ++k) {
      const Routed& r = out.bins.underlying()[b * out.Z + k];
      if (!r.e.is_filler()) {
        ASSERT_EQ(r.label, b);
      }
    }
  }
}

TEST(Orba, TraceIndependentOfDataAndSeed) {
  // The access pattern must be a fixed function of (n, Z, gamma): different
  // inputs AND different label randomness give bit-identical traces.
  auto digest_of = [](uint64_t data_seed, uint64_t label_seed) {
    sim::Session s = sim::Session::analytic().with_trace();
    sim::ScopedSession guard(s);
    auto in = test::random_elems(512, data_seed);
    vec<Elem> inv(in);
    core::OrbaOutput out =
        core::detail::orba(inv.s(), label_seed, small_params(64, 4));
    (void)out;
    return s.log()->digest();
  };
  EXPECT_EQ(digest_of(1, 10), digest_of(2, 10));
  EXPECT_EQ(digest_of(1, 10), digest_of(1, 20));
  EXPECT_EQ(digest_of(3, 30), digest_of(4, 40));
}

TEST(Orba, OverflowIsDetectedUnderAdversarialCapacity) {
  // Z = 4 with mean load 2 per bin: overflow is likely; it must surface as
  // BinOverflow (never silent element loss) for at least one seed.
  constexpr size_t n = 512, Z = 4;
  auto in = test::random_elems(n, 12);
  vec<Elem> inv(in);
  bool threw = false;
  for (uint64_t seed = 0; seed < 16 && !threw; ++seed) {
    try {
      core::OrbaOutput out = core::detail::orba(inv.s(), seed, small_params(Z, 4));
      size_t reals = 0;
      for (const Routed& r : out.bins.underlying()) {
        reals += !r.e.is_filler();
      }
      EXPECT_EQ(reals, n);  // success must never lose elements
    } catch (const obl::BinOverflow&) {
      threw = true;
    }
  }
  EXPECT_TRUE(threw);
}

TEST(Orba, WorkIsNLogNShaped) {
  auto work_of = [](size_t n) {
    sim::Session s = sim::Session::analytic();
    sim::ScopedSession guard(s);
    auto in = test::random_elems(n, 5);
    vec<Elem> inv(in);
    (void)core::detail::orba(inv.s(), 3, core::SortParams::auto_for(n));
    return double(s.cost().work);
  };
  // work(4n) / work(n) for Theta(n log n) is ~4 * (log 4n / log n) < 5.5;
  // a quadratic algorithm would show ~16.
  const double r = work_of(1 << 14) / work_of(1 << 12);
  EXPECT_LT(r, 7.0);
  EXPECT_GT(r, 3.0);
}

}  // namespace
}  // namespace dopar
