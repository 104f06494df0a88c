// Unit tests: oblivious bin placement (Chan–Shi, paper Section C.1).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "forkjoin/pool.hpp"
#include "obl/binplace.hpp"
#include "obl/route.hpp"
#include "sim/session.hpp"
#include "testutil.hpp"
#include "util/rng.hpp"

namespace dopar {
namespace {

using obl::Elem;

// Destination bin lives in e.extra for these tests.
struct GroupFromExtra {
  uint64_t operator()(const Elem& e) const { return e.extra; }
};

TEST(BinPlacement, RoutesEveryRealElementToItsBin) {
  constexpr size_t beta = 8, Z = 16;
  util::Rng rng(11);
  std::vector<Elem> in(beta * Z / 2);
  for (size_t i = 0; i < in.size(); ++i) {
    in[i].key = i;
    in[i].payload = 1000 + i;
    in[i].extra = static_cast<uint32_t>(rng.below(beta));
  }
  vec<Elem> inv(in);
  vec<Elem> out(beta * Z);
  obl::bin_placement(inv.s(), out.s(), beta, Z, GroupFromExtra{});

  std::map<uint64_t, size_t> expected;
  for (const Elem& e : in) expected[e.extra]++;
  for (size_t b = 0; b < beta; ++b) {
    size_t reals = 0;
    for (size_t k = 0; k < Z; ++k) {
      const Elem& e = out.underlying()[b * Z + k];
      if (!e.is_filler()) {
        EXPECT_EQ(e.extra, b) << "element in wrong bin";
        ++reals;
      }
    }
    EXPECT_EQ(reals, expected[b]) << "bin " << b;
  }
}

TEST(BinPlacement, PadsEveryBinToCapacity) {
  constexpr size_t beta = 4, Z = 8;
  std::vector<Elem> in(4);
  for (size_t i = 0; i < in.size(); ++i) in[i].extra = 2;  // all to bin 2
  vec<Elem> inv(in);
  vec<Elem> out(beta * Z);
  obl::bin_placement(inv.s(), out.s(), beta, Z, GroupFromExtra{});
  for (size_t b = 0; b < beta; ++b) {
    size_t reals = 0;
    for (size_t k = 0; k < Z; ++k) {
      reals += !out.underlying()[b * Z + k].is_filler();
    }
    EXPECT_EQ(reals, b == 2 ? 4u : 0u);
  }
}

TEST(BinPlacement, InputFillersAreDiscarded) {
  constexpr size_t beta = 2, Z = 4;
  std::vector<Elem> in(6, Elem::filler());
  in[1] = Elem{};
  in[1].key = 7;
  in[1].extra = 1;
  vec<Elem> inv(in);
  vec<Elem> out(beta * Z);
  obl::bin_placement(inv.s(), out.s(), beta, Z, GroupFromExtra{});
  size_t reals = 0;
  for (const Elem& e : out.underlying()) reals += !e.is_filler();
  EXPECT_EQ(reals, 1u);
  EXPECT_FALSE(out.underlying()[Z].is_filler());  // head of bin 1
  EXPECT_EQ(out.underlying()[Z].key, 7u);
}

TEST(BinPlacement, ThrowsOnOverflow) {
  constexpr size_t beta = 4, Z = 4;
  std::vector<Elem> in(Z + 1);
  for (auto& e : in) e.extra = 0;  // Z+1 elements into one Z-capacity bin
  vec<Elem> inv(in);
  vec<Elem> out(beta * Z);
  EXPECT_THROW(
      obl::bin_placement(inv.s(), out.s(), beta, Z, GroupFromExtra{}),
      obl::BinOverflow);
}

TEST(BinPlacement, ExactlyFullBinIsFine) {
  constexpr size_t beta = 4, Z = 4;
  std::vector<Elem> in(Z);
  for (size_t i = 0; i < in.size(); ++i) {
    in[i].extra = 3;
    in[i].key = i;
  }
  vec<Elem> inv(in);
  vec<Elem> out(beta * Z);
  obl::bin_placement(inv.s(), out.s(), beta, Z, GroupFromExtra{});
  for (size_t k = 0; k < Z; ++k) {
    EXPECT_FALSE(out.underlying()[3 * Z + k].is_filler());
  }
}

TEST(BinPlacement, TraceIndependentOfBinChoices) {
  auto digest_of = [](uint64_t seed) {
    sim::Session s = sim::Session::analytic().with_trace();
    sim::ScopedSession guard(s);
    constexpr size_t beta = 8, Z = 32;  // Z comfortably above the mean load
    util::Rng rng(seed);
    std::vector<Elem> in(beta * Z / 2);
    for (auto& e : in) e.extra = static_cast<uint32_t>(rng.below(beta));
    vec<Elem> inv(in);
    vec<Elem> out(beta * Z);
    obl::bin_placement(inv.s(), out.s(), beta, Z, GroupFromExtra{});
    return s.log()->digest();
  };
  EXPECT_EQ(digest_of(1), digest_of(2));
  EXPECT_EQ(digest_of(2), digest_of(3));
}

TEST(BinPlacement, WorksWithOddEvenBackend) {
  constexpr size_t beta = 4, Z = 8;
  util::Rng rng(13);
  std::vector<Elem> in(beta * Z / 2);
  for (size_t i = 0; i < in.size(); ++i) {
    in[i].key = i;
    in[i].extra = static_cast<uint32_t>(rng.below(beta));
  }
  vec<Elem> inv(in);
  vec<Elem> out(beta * Z);
  obl::bin_placement(inv.s(), out.s(), beta, Z, GroupFromExtra{},
                     *make_backend("odd_even"));
  size_t reals = 0;
  for (const Elem& e : out.underlying()) reals += !e.is_filler();
  EXPECT_EQ(reals, in.size());
}

// Every real of `in` sits in bin extra of `out` (matched by payload id),
// and every other slot is a filler.
void expect_placed(const std::vector<Elem>& in, const std::vector<Elem>& out,
                   size_t beta, size_t Z) {
  ASSERT_EQ(out.size(), beta * Z);
  std::vector<std::vector<uint64_t>> want(beta), got(beta);
  for (const Elem& e : in) {
    if (!e.is_filler()) want[e.extra].push_back(e.payload);
  }
  for (size_t b = 0; b < beta; ++b) {
    for (size_t k = 0; k < Z; ++k) {
      const Elem& e = out[b * Z + k];
      if (e.is_filler()) continue;
      EXPECT_EQ(e.extra, b) << "element in wrong bin";
      got[b].push_back(e.payload);
    }
    std::sort(want[b].begin(), want[b].end());
    std::sort(got[b].begin(), got[b].end());
    EXPECT_EQ(got[b], want[b]) << "bin " << b;
  }
}

std::vector<Elem> placed(const std::vector<Elem>& in, size_t beta, size_t Z,
                         const SorterBackend& sorter = default_backend()) {
  vec<Elem> inv(in);
  vec<Elem> out(beta * Z);
  obl::bin_placement(inv.s(), out.s(), beta, Z, GroupFromExtra{}, sorter);
  return out.underlying();
}

// Reals with payload = index, bins from `bin_of`.
template <class BinOf>
std::vector<Elem> reals(size_t n, const BinOf& bin_of) {
  std::vector<Elem> in(n);
  for (size_t i = 0; i < n; ++i) {
    in[i].key = 100 + i;
    in[i].payload = i;
    in[i].extra = static_cast<uint32_t>(bin_of(i));
  }
  return in;
}

TEST(BinPlacement, AlternatingFullAndEmptyBins) {
  constexpr size_t beta = 8, Z = 16;
  // Bins 0, 2, 4, 6 receive exactly Z reals each; odd bins none. Input
  // order interleaves the full bins.
  const auto in = reals(beta / 2 * Z, [](size_t i) { return 2 * (i % 4); });
  const auto out = placed(in, beta, Z);
  expect_placed(in, out, beta, Z);
  for (size_t b = 0; b < beta; ++b) {
    for (size_t k = 0; k < Z; ++k) {
      EXPECT_EQ(out[b * Z + k].is_filler(), b % 2 == 1) << b << "/" << k;
    }
  }
}

TEST(BinPlacement, AllRealsInOneBin) {
  constexpr size_t beta = 16, Z = 32;
  for (size_t bin : {size_t{0}, size_t{7}, beta - 1}) {
    const auto in = reals(Z, [&](size_t) { return bin; });
    expect_placed(in, placed(in, beta, Z), beta, Z);
  }
}

TEST(BinPlacement, NonPowerOfTwoInputBelowAndAboveCapacity) {
  constexpr size_t beta = 4, Z = 8;  // beta*Z = 32
  util::Rng rng(29);
  for (size_t n : {size_t{1}, size_t{5}, size_t{13}, size_t{31},
                   size_t{33}, size_t{47}, size_t{100}}) {
    // At most Z reals per bin: real i goes to bin i % beta while every
    // bin has room; the rest of the input is fillers.
    std::vector<Elem> in(n, Elem::filler());
    const size_t nreal = std::min(n, beta * Z);
    for (size_t j = 0; j < nreal; ++j) {
      const size_t i = n <= beta * Z ? j : rng.below(n);
      if (!in[i].is_filler()) continue;
      in[i] = Elem{};
      in[i].payload = i;
      in[i].extra = static_cast<uint32_t>(j % beta);
    }
    expect_placed(in, placed(in, beta, Z), beta, Z);
  }
}

TEST(BinPlacement, EveryRegisteredBackendPlacesCorrectly) {
  constexpr size_t beta = 8, Z = 16;
  util::Rng rng(31);
  const auto in = reals(beta * Z / 2, [&](size_t) { return rng.below(beta); });
  for (const std::string& name : backend_names()) {
    SCOPED_TRACE(name);
    expect_placed(in, placed(in, beta, Z, *make_backend(name)), beta, Z);
  }
}

TEST(BinPlacement, TraceIdenticalForUniformAndSingleBinInputs) {
  constexpr size_t beta = 8, Z = 32;
  auto digest_of = [&](const std::vector<Elem>& in) {
    sim::Session s = sim::Session::analytic().with_trace();
    sim::ScopedSession guard(s);
    vec<Elem> inv(in);
    vec<Elem> out(beta * Z);
    obl::bin_placement(inv.s(), out.s(), beta, Z, GroupFromExtra{});
    return s.log()->digest();
  };
  util::Rng rng(37);
  const auto uniform =
      reals(Z, [&](size_t) { return rng.below(beta); });
  const auto one_bin = reals(Z, [](size_t) { return 5; });
  EXPECT_EQ(digest_of(uniform), digest_of(one_bin));
}

// A 56-byte record (not Elem-sized) for the generic routing path.
struct Wide {
  uint64_t target = 0;
  uint64_t id = 0;
  uint64_t live = 0;
  uint64_t pad[4] = {};
};

TEST(DistributeMonotone, RoutesNonElemRecordsOnAFourThreadPool) {
  constexpr size_t m = 1 << 13;  // several grain-sized blocks per round
  util::Rng rng(41);
  std::vector<Wide> init(m);
  size_t next = 0;
  size_t live = 0;
  for (size_t i = 0; i < m / 2; ++i) {  // live prefix, increasing targets
    next += rng.below(3);
    if (next >= m) break;
    init[i] = Wide{next, 1000 + i, 1, {i, i, i, i}};
    ++next;
    ++live;
  }
  const Wide filler{~uint64_t{0}, 0, 0, {}};
  auto route = [&](std::vector<Wide> v) {
    vec<Wide> a(std::move(v));
    obl::distribute_monotone(
        a.s(), [](const Wide& w) { return w.live != 0; },
        [](const Wide& w) { return w.target; }, filler);
    return a.underlying();
  };
  std::vector<Wide> par;
  {
    fj::WithPool wp(3);  // three helpers + the caller
    wp.run([&] { par = route(init); });
  }
  std::vector<Wide> expect(m, filler);
  for (size_t i = 0; i < live; ++i) expect[init[i].target] = init[i];
  for (size_t j = 0; j < m; ++j) {
    ASSERT_EQ(par[j].id, expect[j].id) << j;
    ASSERT_EQ(par[j].target, expect[j].target) << j;
    ASSERT_EQ(par[j].pad[3], expect[j].pad[3]) << j;
  }
  // The instrumented path moves the same bytes.
  sim::Session s = sim::Session::analytic();
  sim::ScopedSession guard(s);
  const std::vector<Wide> instr = route(init);
  for (size_t j = 0; j < m; ++j) ASSERT_EQ(instr[j].id, par[j].id) << j;
}

TEST(DistributeMonotone, SpanIsPolylog) {
  auto span_of = [](size_t m) {
    sim::Session s = sim::Session::analytic();
    sim::ScopedSession guard(s);
    vec<Elem> a(m);
    for (size_t i = 0; i < m / 2; ++i) {
      a.underlying()[i].key = 2 * i;
      a.underlying()[i].flags = Elem::kTemp;
    }
    obl::distribute_monotone(
        a.s(), [](const Elem& e) { return (e.flags & Elem::kTemp) != 0; },
        [](const Elem& e) { return e.key; }, Elem::filler());
    for (size_t i = 0; i < m; ++i) {
      EXPECT_EQ(a.underlying()[i].is_filler(), i % 2 == 1) << i;
    }
    return double(s.cost().span);
  };
  // log^2 growth: (13/11)^2 ~ 1.4; a serial round would give ~4.
  EXPECT_LT(span_of(1 << 13) / span_of(1 << 11), 2.0);
}

}  // namespace
}  // namespace dopar
