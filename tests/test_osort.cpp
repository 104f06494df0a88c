// Unit tests: the full oblivious sort (REC-SORT and both SPMS tunings as
// its comparison phase), pivot selection, Runtime::sort on a thread pool
// and the insecure merge-sort baseline.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "core/osort.hpp"
#include "core/runtime.hpp"
#include "insecure/mergesort.hpp"
#include "sim/session.hpp"
#include "testutil.hpp"

namespace dopar {
namespace {

using obl::Elem;
using Phase = std::optional<core::SpmsTuning>;

class OsortTest
    : public ::testing::TestWithParam<std::tuple<Phase, size_t>> {};

TEST_P(OsortTest, SortsRandomInput) {
  const auto [phase, n] = GetParam();
  auto in = test::random_elems(n, 17 * n + 1);
  vec<Elem> v(in);
  core::detail::osort(v.s(), /*seed=*/n, phase);
  EXPECT_TRUE(test::sorted_by_key(v.underlying()));
  EXPECT_TRUE(test::same_keys(v.underlying(), in));
}

TEST_P(OsortTest, SortsDuplicateHeavyInput) {
  const auto [phase, n] = GetParam();
  std::vector<Elem> in(n);
  for (size_t i = 0; i < n; ++i) {
    in[i].key = i % 3;  // three distinct keys
    in[i].payload = i;
  }
  vec<Elem> v(in);
  core::detail::osort(v.s(), 11, phase);
  EXPECT_TRUE(test::sorted_by_key(v.underlying()));
  EXPECT_TRUE(test::same_keys(v.underlying(), in));
}

TEST_P(OsortTest, SortsConstantInput) {
  const auto [phase, n] = GetParam();
  std::vector<Elem> in(n);
  for (size_t i = 0; i < n; ++i) {
    in[i].key = 5;
    in[i].payload = i;
  }
  vec<Elem> v(in);
  core::detail::osort(v.s(), 13, phase);
  for (const Elem& e : v.underlying()) EXPECT_EQ(e.key, 5u);
}

TEST_P(OsortTest, SortsSortedAndReversedInput) {
  const auto [phase, n] = GetParam();
  std::vector<Elem> asc(n), desc(n);
  for (size_t i = 0; i < n; ++i) {
    asc[i].key = i;
    desc[i].key = n - i;
  }
  vec<Elem> a(asc), d(desc);
  core::detail::osort(a.s(), 3, phase);
  core::detail::osort(d.s(), 4, phase);
  EXPECT_TRUE(test::sorted_by_key(a.underlying()));
  EXPECT_TRUE(test::sorted_by_key(d.underlying()));
}

INSTANTIATE_TEST_SUITE_P(
    PhasesAndSizes, OsortTest,
    ::testing::Combine(::testing::ValuesIn(test::sort_phases()),
                       ::testing::Values(size_t{1}, size_t{2}, size_t{100},
                                         size_t{1024}, size_t{5000},
                                         size_t{8192})));

TEST(Osort, PayloadsTravelWithKeys) {
  constexpr size_t n = 2048;
  std::vector<Elem> in(n);
  for (size_t i = 0; i < n; ++i) {
    in[i].key = (i * 2654435761u) % 100000;
    in[i].payload = in[i].key * 7 + 1;
    in[i].aux = in[i].key * 13 + 2;
  }
  vec<Elem> v(in);
  core::detail::osort(v.s(), 6);
  for (const Elem& e : v.underlying()) {
    EXPECT_EQ(e.payload, e.key * 7 + 1);
    EXPECT_EQ(e.aux, e.key * 13 + 2);
  }
}

TEST(Osort, ManySeedsAllSucceed) {
  // Exercises the retry machinery: every seed must converge.
  constexpr size_t n = 512;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    auto in = test::random_elems(n, seed + 1000);
    vec<Elem> v(in);
    core::detail::osort(v.s(), seed);
    ASSERT_TRUE(test::sorted_by_key(v.underlying())) << seed;
  }
}

TEST(Osort, WorkIsNLogNShapedTheoretical) {
  auto work_of = [](size_t n) {
    sim::Session s = sim::Session::analytic();
    sim::ScopedSession guard(s);
    auto in = test::random_elems(n, 5);
    vec<Elem> v(in);
    core::detail::osort(v.s(), 3, core::kSpmsTheoretical);
    return double(s.cost().work);
  };
  const double r = work_of(1 << 14) / work_of(1 << 12);
  EXPECT_LT(r, 7.0);  // ~4.7 for n log n; 16 for quadratic
  EXPECT_GT(r, 3.0);
}

TEST(Osort, SpanIsPolylog) {
  auto span_of = [](size_t n) {
    sim::Session s = sim::Session::analytic();
    sim::ScopedSession guard(s);
    auto in = test::random_elems(n, 5);
    vec<Elem> v(in);
    core::detail::osort(v.s(), 3);
    return double(s.cost().span);
  };
  // Quadrupling n must grow span far less than 4x.
  const double r = span_of(1 << 13) / span_of(1 << 11);
  EXPECT_LT(r, 2.6);
}

TEST(RuntimeSort, SentinelKeysSurviveRecSort) {
  // Keys equal to the filler sentinel 2^64 - 1 are accepted (osort.hpp).
  // At the larger sizes REC-SORT gathers its bins into one base case, and
  // its bins, gather buffer and pivot sample are padded with fillers: the
  // padding must order after the real sentinel-keyed records, or they come
  // back as fillers or overflow a bin. At 300 REC-SORT bitonic-sorts the
  // whole padded array, ORP's filler suffix included. A 4-thread Runtime
  // forks REC-SORT's base case and ORBA's partitions on its pool.
  constexpr uint64_t kSentinel = ~uint64_t{0};
  auto rt = Runtime::builder().threads(4).seed(11).build();
  for (const size_t n : {size_t{300}, size_t{1} << 14,
                         (size_t{1} << 14) + 37, size_t{1} << 16}) {
    SCOPED_TRACE(n);
    util::Rng rng(n);
    std::vector<Elem> in(n);
    for (size_t i = 0; i < n; ++i) {
      in[i].key = i % 7 == 0 ? kSentinel : rng.below(n);
      in[i].payload = i;
    }
    vec<Elem> v(in);
    rt.sort(v.s());
    const std::vector<Elem>& out = v.underlying();
    EXPECT_TRUE(test::sorted_by_key(out));
    EXPECT_TRUE(std::none_of(out.begin(), out.end(),
                             [](const Elem& e) { return e.is_filler(); }));
    // Payloads are the input indices: equal multisets means each output
    // record is an input one, each once, with its own key.
    std::vector<uint64_t> payloads;
    for (const Elem& e : out) {
      payloads.push_back(e.payload);
      ASSERT_LT(e.payload, n);
      EXPECT_EQ(e.key, in[e.payload].key);
    }
    std::sort(payloads.begin(), payloads.end());
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(payloads[i], i);
  }
}

TEST(RuntimeSort, DuplicateHeavyKeysSurviveRecSortRecursion) {
  // rec_bin = 256 with gamma = 4 makes REC-SORT recurse at these sizes
  // (the auto parameters only do from n = 2^19). Phase 1's partitions are
  // runs of consecutive permuted positions, so a tie-break that is the
  // position itself puts all of a partition's copies of one key into one
  // coarse range, and keys drawn from 1 or 4 values overflowed a bin on
  // every retry. The bit-reversed position spreads them.
  for (const size_t n : {size_t{1} << 14, size_t{1} << 15}) {
    core::SortParams p = core::SortParams::auto_for(n);
    p.rec_bin = 256;
    p.gamma = 4;
    auto rt = Runtime::builder().threads(4).seed(5).params(p).build();
    for (const uint64_t distinct : {uint64_t{1}, uint64_t{4}}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " keys=" << distinct);
      util::Rng rng(n + distinct);
      std::vector<Elem> in(n);
      for (size_t i = 0; i < n; ++i) {
        in[i].key = rng.below(distinct);
        in[i].payload = i;
      }
      vec<Elem> v(in);
      ASSERT_NO_THROW(rt.sort(v.s()));
      const std::vector<Elem>& out = v.underlying();
      EXPECT_TRUE(test::sorted_by_key(out));
      std::vector<uint64_t> payloads;
      for (const Elem& e : out) {
        ASSERT_LT(e.payload, n);
        EXPECT_EQ(e.key, in[e.payload].key);
        payloads.push_back(e.payload);
      }
      std::sort(payloads.begin(), payloads.end());
      for (size_t i = 0; i < n; ++i) ASSERT_EQ(payloads[i], i);
    }
  }
}

TEST(OsortBackend, PluggableIntoElemSorts) {
  constexpr size_t n = 1024;
  auto in = test::random_elems(n, 77);
  vec<Elem> v(in);
  auto sorter = make_backend("osort");
  sorter->sort(v.s());
  EXPECT_TRUE(test::sorted_by_key(v.underlying()));
}

TEST(InsecureMergeSort, SortsAndIsStableUnderLess) {
  constexpr size_t n = 3000;
  auto in = test::random_elems(n, 55, /*key_bound=*/64);
  vec<Elem> v(in);
  insecure::merge_sort(v.s());
  EXPECT_TRUE(test::sorted_by_key(v.underlying()));
  EXPECT_TRUE(test::same_keys(v.underlying(), in));
}

TEST(InsecureMergeSort, SpanIsPolylog) {
  auto span_of = [](size_t n) {
    sim::Session s = sim::Session::analytic();
    sim::ScopedSession guard(s);
    auto in = test::random_elems(n, 5);
    vec<Elem> v(in);
    insecure::merge_sort(v.s());
    return double(s.cost().span);
  };
  const double r = span_of(1 << 14) / span_of(1 << 12);
  EXPECT_LT(r, 2.0);  // log^3 growth: (14/12)^3 ~ 1.6
}

}  // namespace
}  // namespace dopar
