// Unit tests: scans, aggregation, propagation, compaction.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "apps/common.hpp"
#include "forkjoin/pool.hpp"
#include "obl/aggregate.hpp"
#include "obl/compact.hpp"
#include "obl/propagate.hpp"
#include "obl/scan.hpp"
#include "obl/sendrecv.hpp"
#include "sim/session.hpp"
#include "testutil.hpp"
#include "util/rng.hpp"

namespace dopar {
namespace {

using obl::Elem;

struct AddU64 {
  uint64_t operator()(uint64_t a, uint64_t b) const { return a + b; }
};

TEST(Scan, InclusivePrefixMatchesSerial) {
  for (size_t n : {size_t{1}, size_t{2}, size_t{7}, size_t{64}, size_t{1000}}) {
    util::Rng rng(n);
    vec<uint64_t> v(n);
    std::vector<uint64_t> expect(n);
    uint64_t run = 0;
    for (size_t i = 0; i < n; ++i) {
      v.underlying()[i] = rng.below(1000);
      run += v.underlying()[i];
      expect[i] = run;
    }
    obl::scan_inclusive(v.s(), AddU64{});
    EXPECT_EQ(v.underlying(), expect) << n;
  }
}

TEST(Scan, InclusiveSuffixMatchesSerial) {
  for (size_t n : {size_t{1}, size_t{5}, size_t{128}, size_t{999}}) {
    util::Rng rng(n * 3);
    vec<uint64_t> v(n);
    std::vector<uint64_t> expect(n);
    for (size_t i = 0; i < n; ++i) v.underlying()[i] = rng.below(1000);
    uint64_t run = 0;
    for (size_t i = n; i-- > 0;) {
      run += v.underlying()[i];
      expect[i] = run;
    }
    obl::scan_inclusive_reverse(v.s(), AddU64{});
    EXPECT_EQ(v.underlying(), expect) << n;
  }
}

TEST(Scan, NonCommutativeCombineKeepsArrayOrder) {
  // Combine = string-like concatenation encoded as (first, last) pairs:
  // comb((a,b),(c,d)) = (a,d). Prefix scan must yield (v[0], v[i]).
  struct Pair {
    uint64_t first, last;
  };
  struct Concat {
    Pair operator()(const Pair& x, const Pair& y) const {
      return Pair{x.first, y.last};
    }
  };
  constexpr size_t n = 100;
  vec<Pair> v(n);
  for (size_t i = 0; i < n; ++i) v.underlying()[i] = Pair{i, i};
  obl::scan_inclusive(v.s(), Concat{});
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(v.underlying()[i].first, 0u);
    EXPECT_EQ(v.underlying()[i].last, i);
  }
}

// Native ≡ instrumented: the native blocked scan (fold per block, carry
// over block totals, carry-apply) must write the bytes of the instrumented
// tree scan, across the block boundary and over many blocks, for the
// commutative, non-commutative and segmented combines.
template <class T, class Combine, class Gen>
void expect_scans_match(const Combine& comb, const Gen& gen) {
  constexpr size_t B = obl::detail::kScanBlock;
  fj::WithPool wp(3);
  for (size_t n : {size_t{1}, size_t{2}, B - 1, B, B + 1, 3 * B + 7,
                   size_t{1} << 16}) {
    util::Rng rng(n + 11);
    std::vector<T> in(n);
    for (size_t i = 0; i < n; ++i) in[i] = gen(rng, i);
    for (const bool reverse : {false, true}) {
      auto scan = [&](const slice<T>& a) {
        if (reverse) {
          obl::scan_inclusive_reverse(a, comb);
        } else {
          obl::scan_inclusive(a, comb);
        }
      };
      vec<T> native(in);
      wp.run([&] { scan(native.s()); });
      std::vector<T> expect;
      {
        sim::Session s = sim::Session::analytic();
        sim::ScopedSession guard(s);
        vec<T> inst(in);
        scan(inst.s());
        expect = inst.underlying();
      }
      ASSERT_EQ(std::memcmp(native.data(), expect.data(), n * sizeof(T)), 0)
          << "n=" << n << " reverse=" << reverse;
    }
  }
}

struct Span2 {
  uint64_t first, last;
};
struct Concat {
  Span2 operator()(const Span2& x, const Span2& y) const {
    return Span2{x.first, y.last};
  }
};

TEST(NativeScan, AddMatchesInstrumentedAndSerial) {
  expect_scans_match<uint64_t>(
      AddU64{}, [](util::Rng& r, size_t) { return r.below(1000); });
  // And the serial fold, across many blocks.
  const size_t n = 3 * obl::detail::kScanBlock + 7;
  vec<uint64_t> v(n, 1);
  fj::WithPool wp(3);
  wp.run([&] { obl::scan_inclusive(v.s(), AddU64{}); });
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(v.underlying()[i], i + 1);
  wp.run([&] { obl::scan_inclusive_reverse(v.s(), AddU64{}); });
  EXPECT_EQ(v.underlying()[0], n * (n + 1) / 2);
  EXPECT_EQ(v.underlying()[n - 1], n);
}

TEST(NativeScan, ConcatMatchesInstrumented) {
  expect_scans_match<Span2>(
      Concat{}, [](util::Rng&, size_t i) { return Span2{i, i}; });
}

TEST(NativeScan, SegmentedCombinesMatchInstrumented) {
  expect_scans_match<obl::detail::SrSeg>(
      obl::detail::SrCombine{}, [](util::Rng& r, size_t i) {
        const uint64_t head = i == 0 || r.below(8) == 0;
        return obl::detail::SrSeg{r.below(1u << 20), i, head & r.below(2),
                                  head};
      });
  // The apps' gather scan: the last table cell (odd key) wins.
  expect_scans_match<apps::KeyVal>(
      apps::detail::LastCell{}, [](util::Rng& r, size_t) {
        return apps::KeyVal{r.below(8), r.below(1000)};
      });
}

TEST(Scan, PrefixSumExclusiveReturnsTotal) {
  // Natively (3000 spans several scan blocks) and under a session (the
  // tree scan). At n = 1 the total is the last value alone.
  auto check = [](size_t n) {
    vec<Elem> v(n);
    for (size_t i = 0; i < n; ++i) v.underlying()[i].payload = (i * 7) % 13;
    vec<uint64_t> out(n);
    const uint64_t total = obl::prefix_sum_exclusive(
        v.s(), out.s(), [](const Elem& e) { return e.payload; });
    uint64_t run = 0;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out.underlying()[i], run) << "n=" << n << " i=" << i;
      run += v.underlying()[i].payload;
    }
    EXPECT_EQ(total, run) << "n=" << n;
  };
  for (size_t n :
       {size_t{1}, size_t{2}, size_t{8}, size_t{1000}, size_t{3000}}) {
    check(n);
    sim::Session s = sim::Session::analytic();
    sim::ScopedSession guard(s);
    check(n);
  }
}

TEST(Scan, SpanIsLogarithmic) {
  auto span_of = [](size_t n) {
    sim::Session s = sim::Session::analytic();
    sim::ScopedSession guard(s);
    vec<uint64_t> v(n, 1);
    obl::scan_inclusive(v.s(), AddU64{});
    return s.cost().span;
  };
  // span(n) ~ c log n: quadrupling n should add roughly a constant.
  const uint64_t s1 = span_of(1 << 10);
  const uint64_t s2 = span_of(1 << 12);
  EXPECT_LT(s2, s1 + s1 / 2);
}

std::vector<Elem> grouped_input() {
  // Groups: key 3 x 4 elems, key 7 x 1, key 9 x 3. payload = value.
  std::vector<Elem> v;
  auto push = [&](uint64_t key, uint64_t payload) {
    Elem e;
    e.key = key;
    e.payload = payload;
    e.aux = 100 + v.size();
    v.push_back(e);
  };
  push(3, 1);
  push(3, 2);
  push(3, 3);
  push(3, 4);
  push(7, 50);
  push(9, 10);
  push(9, 20);
  push(9, 30);
  return v;
}

TEST(Aggregate, InclusiveSuffixSumsWithinGroups) {
  vec<Elem> v(grouped_input());
  obl::aggregate_suffix(v.s(), AddU64{});
  const auto& r = v.underlying();
  EXPECT_EQ(r[0].payload, 10u);  // 1+2+3+4
  EXPECT_EQ(r[1].payload, 9u);
  EXPECT_EQ(r[3].payload, 4u);
  EXPECT_EQ(r[4].payload, 50u);
  EXPECT_EQ(r[5].payload, 60u);
  EXPECT_EQ(r[7].payload, 30u);
}

TEST(Aggregate, MaxOperator) {
  struct MaxU64 {
    uint64_t operator()(uint64_t a, uint64_t b) const {
      return a > b ? a : b;
    }
  };
  vec<Elem> v(grouped_input());
  obl::aggregate_suffix(v.s(), MaxU64{});
  EXPECT_EQ(v.underlying()[0].payload, 4u);
  EXPECT_EQ(v.underlying()[5].payload, 30u);
}

TEST(Propagate, LeftmostValueAndAuxReachWholeGroup) {
  vec<Elem> v(grouped_input());
  obl::propagate_leftmost(v.s());
  const auto& r = v.underlying();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(r[i].payload, 1u);
    EXPECT_EQ(r[i].aux, 100u);
  }
  EXPECT_EQ(r[4].payload, 50u);
  for (int i = 5; i < 8; ++i) {
    EXPECT_EQ(r[i].payload, 10u);
    EXPECT_EQ(r[i].aux, 105u);
  }
}

TEST(Propagate, TraceIndependentOfGroupStructure) {
  auto digest_of = [](uint64_t key_bound) {
    sim::Session s = sim::Session::analytic().with_trace();
    sim::ScopedSession guard(s);
    auto data = test::random_elems(128, 9, key_bound);
    std::sort(data.begin(), data.end(),
              [](const Elem& a, const Elem& b) { return a.key < b.key; });
    vec<Elem> v(data);
    obl::propagate_leftmost(v.s());
    return s.log()->digest();
  };
  // One big group vs many groups: the trace must not change.
  EXPECT_EQ(digest_of(1), digest_of(64));
}

TEST(Compact, ObliviousMovesFillersBackStably) {
  constexpr size_t n = 64;
  vec<Elem> v(n);
  for (size_t i = 0; i < n; ++i) {
    v.underlying()[i].key = i;
    v.underlying()[i].payload = i;
    if (i % 3 == 0) v.underlying()[i].flags = Elem::kFiller;
  }
  obl::compact_oblivious(v.s());
  size_t live = 0;
  for (size_t i = 0; i < n; ++i) live += !v.underlying()[i].is_filler();
  // Live prefix in original order, fillers suffix.
  uint64_t prev = 0;
  for (size_t i = 0; i < live; ++i) {
    EXPECT_FALSE(v.underlying()[i].is_filler());
    EXPECT_GE(v.underlying()[i].payload, prev);
    prev = v.underlying()[i].payload;
  }
  for (size_t i = live; i < n; ++i) EXPECT_TRUE(v.underlying()[i].is_filler());
}

TEST(Compact, ObliviousTraceIndependentOfFillerPositions) {
  auto digest_of = [](int stride) {
    sim::Session s = sim::Session::analytic().with_trace();
    sim::ScopedSession guard(s);
    vec<Elem> v(128);
    for (size_t i = 0; i < 128; ++i) {
      v.underlying()[i].key = i;
      if (int(i) % stride == 0) v.underlying()[i].flags = Elem::kFiller;
    }
    obl::compact_oblivious(v.s());
    return s.log()->digest();
  };
  EXPECT_EQ(digest_of(2), digest_of(5));
}

}  // namespace
}  // namespace dopar
