// Differential conformance suite for the relational operators (src/rel/):
// equi-join, band join and group-by fuzzed against a naive insecure
// nested-loop/hash oracle across sizes, adversarial key distributions and
// every registered backend — plus the obliviousness pins: trace-digest
// replay on identically built Runtimes, and digest equality across tables
// with different *contents* but equal sizes (comparator-network backends,
// whose schedule is a pure function of the sizes; the randomized full-sort
// backends are oblivious in distribution and pinned by replay instead).
// The compact/propagate facade methods are covered at the end.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dopar.hpp"
#include "testutil.hpp"

namespace {

using namespace dopar;

struct LRow {
  uint64_t key = 0;
  uint64_t id = 0;
};
struct RRow {
  uint64_t key = 0;
  uint64_t id = 0;
};

using Pairs = test::IdPairs;
using test::oracle_group;
using test::oracle_join;

std::vector<LRow> make_left(size_t n, uint64_t domain, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<LRow> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = LRow{domain ? rng.below(domain) : 0, 1'000'000 + i};
  }
  return v;
}

std::vector<RRow> make_right(size_t n, uint64_t domain, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<RRow> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = RRow{domain ? rng.below(domain) : 0, 2'000'000 + i};
  }
  return v;
}

Pairs ids_of(const rel::JoinResult<LRow, RRow>& res) {
  Pairs out;
  out.reserve(res.rows.size());
  for (const auto& [l, r] : res.rows) out.emplace_back(l.id, r.id);
  return out;
}

constexpr auto kLKey = [](const LRow& l) { return l.key; };
constexpr auto kRKey = [](const RRow& r) { return r.key; };

rel::JoinResult<LRow, RRow> run_equi(Runtime& rt, const std::vector<LRow>& L,
                                     const std::vector<RRow>& R,
                                     size_t bound) {
  return rt.equi_join(std::span<const LRow>(L), kLKey,
                      std::span<const RRow>(R), kRKey,
                      rel::JoinOptions{.output_bound = bound, .sort = {}});
}

rel::JoinResult<LRow, RRow> run_band(Runtime& rt, const std::vector<LRow>& L,
                                     const std::vector<RRow>& R,
                                     uint64_t band, size_t bound) {
  return rt.band_join(std::span<const LRow>(L), kLKey,
                      std::span<const RRow>(R), kRKey, band,
                      rel::JoinOptions{.output_bound = bound, .sort = {}});
}

void expect_groups_match(const rel::GroupByResult& got,
                         const std::map<uint64_t, rel::GroupRow>& want) {
  ASSERT_EQ(got.groups.size(), want.size());
  EXPECT_EQ(got.groups_total, want.size());
  size_t i = 0;
  for (const auto& [key, row] : want) {
    EXPECT_EQ(got.groups[i].key, key);
    EXPECT_EQ(got.groups[i].value, row.value);
    EXPECT_EQ(got.groups[i].count, row.count);
    ++i;
  }
}

// ---- differential fuzz: sizes ------------------------------------------

TEST(RelJoin, EquiMatchesOracleAcrossSizes) {
  auto rt = Runtime::builder().seed(11).build();
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{7}, size_t{700},
                   size_t{4096}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto L = make_left(n, std::max<uint64_t>(1, n), 100 + n);
    const auto R = make_right(n, std::max<uint64_t>(1, n), 200 + n);
    const Pairs want = oracle_join(L, R, false, 0);
    const auto res = run_equi(rt, L, R, want.size() + 1);
    EXPECT_EQ(res.matched, want.size());
    EXPECT_FALSE(res.truncated());
    EXPECT_EQ(ids_of(res), want);
  }
}

TEST(RelJoin, BandMatchesOracleAcrossSizes) {
  auto rt = Runtime::builder().seed(12).build();
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{7}, size_t{700}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto L = make_left(n, std::max<uint64_t>(1, 2 * n), 300 + n);
    const auto R = make_right(n, std::max<uint64_t>(1, 2 * n), 400 + n);
    const Pairs want = oracle_join(L, R, true, 3);
    const auto res = run_band(rt, L, R, 3, want.size() + 1);
    EXPECT_EQ(res.matched, want.size());
    EXPECT_EQ(ids_of(res), want);
  }
}

// ---- differential fuzz: every registered backend -----------------------

TEST(RelJoin, AllBackendsMatchOracle) {
  for (const std::string& name : backend_names()) {
    auto rt = Runtime::builder().seed(13).backend(name).build();
    for (size_t n :
         {size_t{0}, size_t{1}, size_t{2}, size_t{7}, size_t{64},
          size_t{300}}) {
      SCOPED_TRACE("backend=" + name + " n=" + std::to_string(n));
      const auto L = make_left(n, std::max<uint64_t>(1, n), 500 + n);
      const auto R = make_right(n, std::max<uint64_t>(1, n), 600 + n);
      const Pairs want_eq = oracle_join(L, R, false, 0);
      const auto eq = run_equi(rt, L, R, want_eq.size() + 1);
      EXPECT_EQ(eq.matched, want_eq.size());
      EXPECT_EQ(ids_of(eq), want_eq);

      const Pairs want_bd = oracle_join(L, R, true, 2);
      const auto bd = run_band(rt, L, R, 2, want_bd.size() + 1);
      EXPECT_EQ(bd.matched, want_bd.size());
      EXPECT_EQ(ids_of(bd), want_bd);

      const auto rows = make_right(n, std::max<uint64_t>(1, n / 4), 700 + n);
      for (rel::Agg agg : {rel::Agg::Sum, rel::Agg::Count, rel::Agg::Min,
                           rel::Agg::Max}) {
        const auto got = rt.group_by_aggregate(
            std::span<const RRow>(rows), kRKey,
            [](const RRow& r) { return r.id; }, agg);
        expect_groups_match(got, oracle_group(rows, agg));
      }
    }
  }
}

// ---- adversarial key distributions -------------------------------------

TEST(RelJoin, AdversarialDistributions) {
  auto rt = Runtime::builder().seed(15).build();

  {  // all keys equal: the maximal-multiplicity worst case, m = |L|*|R|
    SCOPED_TRACE("all-equal");
    std::vector<LRow> L(64);
    std::vector<RRow> R(64);
    for (size_t i = 0; i < 64; ++i) {
      L[i] = LRow{7, 1'000'000 + i};
      R[i] = RRow{7, 2'000'000 + i};
    }
    const Pairs want = oracle_join(L, R, false, 0);
    ASSERT_EQ(want.size(), 64u * 64u);
    const auto res = run_equi(rt, L, R, want.size());
    EXPECT_EQ(res.matched, want.size());
    EXPECT_EQ(ids_of(res), want);
  }

  {  // quadratic foreign-key skew: few hot keys carry most multiplicity
    SCOPED_TRACE("skewed");
    std::vector<LRow> L(128);
    for (size_t i = 0; i < 128; ++i) L[i] = LRow{i, 1'000'000 + i};
    util::Rng rng(99);
    std::vector<RRow> R(512);
    for (size_t i = 0; i < 512; ++i) {
      const uint64_t r = rng.below(128);
      R[i] = RRow{r * r / 128, 2'000'000 + i};
    }
    const Pairs want = oracle_join(L, R, false, 0);
    const auto res = run_equi(rt, L, R, want.size() + 5);
    EXPECT_EQ(res.matched, want.size());
    EXPECT_EQ(ids_of(res), want);
  }

  {  // disjoint key ranges: every probe misses
    SCOPED_TRACE("empty-match");
    const auto L = make_left(100, 50, 41);
    auto R = make_right(100, 50, 42);
    for (auto& r : R) r.key += 1000;
    const Pairs want_eq = oracle_join(L, R, false, 0);
    ASSERT_TRUE(want_eq.empty());
    const auto res = run_equi(rt, L, R, 32);
    EXPECT_EQ(res.matched, 0u);
    EXPECT_TRUE(res.rows.empty());
    const auto bd = run_band(rt, L, R, 5, 32);
    EXPECT_EQ(bd.matched, 0u);
    EXPECT_TRUE(bd.rows.empty());
  }
}

// ---- output-bound (padding/truncation) contract ------------------------

TEST(RelJoin, OutputBoundContract) {
  auto rt = Runtime::builder().seed(16).build();
  const auto L = make_left(80, 20, 51);
  const auto R = make_right(80, 20, 52);
  const Pairs want = oracle_join(L, R, false, 0);
  ASSERT_GT(want.size(), 10u);

  {  // bound below the true count: prefix in output order, truncated()
    const auto res = run_equi(rt, L, R, 10);
    EXPECT_EQ(res.matched, want.size());
    EXPECT_TRUE(res.truncated());
    EXPECT_EQ(ids_of(res), Pairs(want.begin(), want.begin() + 10));
  }
  {  // exact bound
    const auto res = run_equi(rt, L, R, want.size());
    EXPECT_FALSE(res.truncated());
    EXPECT_EQ(ids_of(res), want);
  }
  {  // padded bound: same rows, padding stripped
    const auto res = run_equi(rt, L, R, want.size() + 37);
    EXPECT_FALSE(res.truncated());
    EXPECT_EQ(ids_of(res), want);
  }
}

TEST(RelJoin, BandZeroEqualsEqui) {
  auto rt = Runtime::builder().seed(17).build();
  const auto L = make_left(100, 40, 61);
  const auto R = make_right(100, 40, 62);
  const auto eq = run_equi(rt, L, R, 512);
  const auto bd = run_band(rt, L, R, 0, 512);
  EXPECT_EQ(eq.matched, bd.matched);
  EXPECT_EQ(ids_of(eq), ids_of(bd));
}

// ---- group-by ----------------------------------------------------------

TEST(RelGroupBy, MatchesOracleAcrossSizes) {
  auto rt = Runtime::builder().seed(18).build();
  for (size_t n :
       {size_t{0}, size_t{1}, size_t{2}, size_t{7}, size_t{700}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto rows = make_right(n, std::max<uint64_t>(1, n / 4), 900 + n);
    for (rel::Agg agg : {rel::Agg::Sum, rel::Agg::Count, rel::Agg::Min,
                         rel::Agg::Max}) {
      const auto got = rt.group_by_aggregate(
          std::span<const RRow>(rows), kRKey,
          [](const RRow& r) { return r.id; }, agg);
      expect_groups_match(got, oracle_group(rows, agg));
    }
  }
}

TEST(RelGroupBy, AllEqualKeysCollapseToOneGroup) {
  auto rt = Runtime::builder().seed(19).build();
  std::vector<RRow> rows(100);
  for (size_t i = 0; i < 100; ++i) rows[i] = RRow{5, i + 1};
  const auto got = rt.group_by_aggregate(
      std::span<const RRow>(rows), kRKey,
      [](const RRow& r) { return r.id; }, rel::Agg::Sum);
  ASSERT_EQ(got.groups.size(), 1u);
  EXPECT_EQ(got.groups[0].key, 5u);
  EXPECT_EQ(got.groups[0].value, 100u * 101u / 2);
  EXPECT_EQ(got.groups[0].count, 100u);
}

TEST(RelGroupBy, GroupBoundTruncates) {
  auto rt = Runtime::builder().seed(20).build();
  const auto rows = make_right(200, 40, 71);
  const auto want = oracle_group(rows, rel::Agg::Sum);
  ASSERT_GT(want.size(), 5u);
  const auto got = rt.group_by_aggregate(
      std::span<const RRow>(rows), kRKey,
      [](const RRow& r) { return r.id; }, rel::Agg::Sum,
      rel::GroupByOptions{.group_bound = 5, .sort = {}});
  ASSERT_EQ(got.groups.size(), 5u);
  EXPECT_EQ(got.groups_total, want.size());
  EXPECT_TRUE(got.truncated());
  size_t i = 0;  // truncation keeps the lowest keys (ascending order)
  for (const auto& [key, row] : want) {
    if (i >= 5) break;
    EXPECT_EQ(got.groups[i].key, key);
    EXPECT_EQ(got.groups[i].value, row.value);
    ++i;
  }
}

// ---- input contract ----------------------------------------------------

TEST(RelContract, KeysAtOrAboveTheLimitThrow) {
  // The key contract throws in every build type instead of living in a
  // debug assert: near 2^63 the band arithmetic would otherwise wrap and
  // silently drop matches.
  auto rt = Runtime::builder().seed(18).build();
  const uint64_t huge = (uint64_t{1} << 63) + 10;
  const std::vector<LRow> big_l = {LRow{huge, 1}};
  const std::vector<RRow> big_r = {RRow{huge + 1, 2}};
  const std::vector<LRow> ok_l = {LRow{5, 1}};
  const std::vector<RRow> ok_r = {RRow{5, 2}};
  EXPECT_THROW((void)run_band(rt, big_l, big_r, 1, 0), std::invalid_argument);
  EXPECT_THROW((void)run_equi(rt, big_l, ok_r, 0), std::invalid_argument);
  EXPECT_THROW((void)run_equi(rt, ok_l, big_r, 0), std::invalid_argument);
  const auto val = [](const RRow& r) { return r.id; };
  const std::vector<RRow> at_limit = {RRow{5, 1}, RRow{rel::kKeyLimit, 2}};
  EXPECT_THROW((void)rt.group_by_aggregate(std::span<const RRow>(at_limit),
                                           kRKey, val, rel::Agg::Sum),
               std::invalid_argument);

  // One below the limit is legal for solo calls, band saturation included.
  const uint64_t top = rel::kKeyLimit - 1;
  const std::vector<LRow> top_l = {LRow{top, 1}};
  const std::vector<RRow> top_r = {RRow{0, 2}, RRow{top, 3}};
  EXPECT_EQ(run_band(rt, top_l, top_r, rel::kKeyLimit, 0).matched, 2u);
  EXPECT_EQ(run_equi(rt, top_l, top_r, 0).matched, 1u);
  const auto g = rt.group_by_aggregate(std::span<const RRow>(top_r), kRKey,
                                       val, rel::Agg::Sum);
  ASSERT_EQ(g.groups.size(), 2u);
  EXPECT_EQ(g.groups[1].key, top);
  EXPECT_EQ(g.groups[1].value, 3u);
}

// ---- one-slot batches are solo calls -----------------------------------

/// Fresh analytic Runtime with the ideal cache and the address trace on.
Runtime costed_rt() {
  return Runtime::builder().seed(19).cache(1 << 14, 64).trace().build();
}

struct RunCost {
  uint64_t work, span, misses, digest;
  bool operator==(const RunCost&) const = default;
  friend std::ostream& operator<<(std::ostream& os, const RunCost& c) {
    return os << "{work " << c.work << ", span " << c.span << ", misses "
              << c.misses << ", digest " << c.digest << "}";
  }
};

RunCost cost_of(const Runtime& rt) {
  return RunCost{rt.cost().work, rt.cost().span, rt.cache_misses(),
                 rt.trace_digest()};
}

std::vector<uint64_t> keys_of(const auto& rows) {
  std::vector<uint64_t> keys;
  for (const auto& r : rows) keys.push_back(r.key);
  return keys;
}

TEST(RelOneSlot, BatchedHooksCostTheSameAsSoloCalls) {
  // A one-slot join_batched / group_by_batched runs the same engine plan
  // as the solo operator: equal work, span, cache misses and address
  // trace, and the same rows.
  const auto L = make_left(150, 40, 71);
  const auto R = make_right(230, 40, 72);
  for (const bool banded : {false, true}) {
    SCOPED_TRACE(banded ? "band" : "equi");
    const uint64_t band = banded ? 2 : 0;
    const size_t bound = 700;
    auto solo_rt = costed_rt();
    const auto solo = banded ? run_band(solo_rt, L, R, band, bound)
                             : run_equi(solo_rt, L, R, bound);
    auto batch_rt = costed_rt();
    std::vector<obl::Elem> frame;
    const auto matched = batch_rt.join_batched(
        keys_of(L), keys_of(R),
        {rel::JoinSlot{L.size(), R.size(), bound, banded, band}}, frame);
    EXPECT_EQ(cost_of(batch_rt), cost_of(solo_rt));
    ASSERT_EQ(matched.size(), 1u);
    EXPECT_EQ(matched[0], solo.matched);
    Pairs got;
    for (const obl::Elem& e : frame) {
      if (!(e.flags & obl::Elem::kFiller)) {
        got.emplace_back(L[e.payload].id, R[e.aux].id);
      }
    }
    EXPECT_EQ(got, ids_of(solo));
  }

  const auto rows = make_right(400, 60, 73);
  std::vector<uint64_t> vals;
  for (const RRow& r : rows) vals.push_back(r.id);
  auto solo_rt = costed_rt();
  const auto solo = solo_rt.group_by_aggregate(
      std::span<const RRow>(rows), kRKey,
      [](const RRow& r) { return r.id; }, rel::Agg::Max,
      rel::GroupByOptions{.group_bound = 50, .sort = {}});
  auto batch_rt = costed_rt();
  std::vector<obl::Elem> frame;
  const auto groups = batch_rt.group_by_batched(
      keys_of(rows), vals, {rel::GroupSlot{rows.size(), 50}}, rel::Agg::Max,
      frame);
  EXPECT_EQ(cost_of(batch_rt), cost_of(solo_rt));
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], solo.groups_total);
  std::vector<obl::Elem> live;
  for (const obl::Elem& e : frame) {
    if (!(e.flags & obl::Elem::kFiller)) live.push_back(e);
  }
  ASSERT_EQ(live.size(), solo.groups.size());
  for (size_t g = 0; g < live.size(); ++g) {
    EXPECT_EQ(live[g].key, solo.groups[g].key);
    EXPECT_EQ(live[g].payload, solo.groups[g].value);
    EXPECT_EQ(live[g].aux, solo.groups[g].count);
  }
}

// ---- obliviousness pins ------------------------------------------------

/// Run the full operator battery on one traced Runtime and return the
/// digest. `variant` of the data: 0/1 = different random contents, 2 =
/// adversarial (all-equal keys). Sizes and bounds are identical across
/// variants — only contents differ.
uint64_t traced_battery_digest(const std::string& backend, int variant) {
  auto rt = Runtime::builder().seed(7).trace().backend(backend).build();
  std::vector<LRow> L;
  std::vector<RRow> R;
  if (variant == 2) {
    L.assign(48, LRow{3, 1});
    R.assign(48, RRow{3, 2});
    for (size_t i = 0; i < 48; ++i) L[i].id = i, R[i].id = i;
  } else {
    L = make_left(48, 48, 1000 + variant);
    R = make_right(48, 48, 2000 + variant);
  }
  (void)run_equi(rt, L, R, 96);
  (void)run_band(rt, L, R, 4, 96);
  (void)rt.group_by_aggregate(std::span<const RRow>(R), kRKey,
                              [](const RRow& r) { return r.id; },
                              rel::Agg::Sum,
                              rel::GroupByOptions{.group_bound = 16,
                                                  .sort = {}});
  return rt.trace_digest();
}

TEST(RelOblivious, NetworkScheduleIndependentOfContents) {
  // Comparator-network backends: the schedule is a pure function of the
  // (public) sizes and bounds, so the digest must not move when only the
  // table contents change — including to an adversarial distribution.
  for (const std::string& name : backend_names()) {
    if (name == "osort" || name == "spms") continue;  // randomized full sorts
    SCOPED_TRACE("backend=" + name);
    const uint64_t d0 = traced_battery_digest(name, 0);
    EXPECT_EQ(d0, traced_battery_digest(name, 1));
    EXPECT_EQ(d0, traced_battery_digest(name, 2));
  }
}

TEST(RelOblivious, DigestReplaysOnEveryBackend) {
  // Identically built Runtimes replay identical schedules *and* identical
  // results — the per-call seed-stream contract, covering the randomized
  // full-sort backends the content-independence pin cannot.
  for (const std::string& name : backend_names()) {
    SCOPED_TRACE("backend=" + name);
    const auto L = make_left(48, 16, 3001);
    const auto R = make_right(48, 16, 3002);
    auto run = [&](Runtime& rt) {
      auto eq = run_equi(rt, L, R, 64);
      auto bd = run_band(rt, L, R, 2, 64);
      return std::make_pair(ids_of(eq), ids_of(bd));
    };
    auto rt1 = Runtime::builder().seed(7).trace().backend(name).build();
    auto rt2 = Runtime::builder().seed(7).trace().backend(name).build();
    const auto out1 = run(rt1);
    const auto out2 = run(rt2);
    EXPECT_EQ(rt1.trace_digest(), rt2.trace_digest());
    EXPECT_EQ(out1, out2);
  }
}

/// Keys for the batched battery: 0 = uniform, 1 = all equal, 2 = skewed
/// (quadratic, most rows on a few keys).
std::vector<uint64_t> shaped_keys(int shape, size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<uint64_t> k(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t r = rng.below(32);
    k[i] = shape == 0 ? r : shape == 1 ? 5 : r * r / 32;
  }
  return k;
}

/// A fixed-shape mixed equi + band join batch and a 4-slot group-by batch
/// on one traced, costed Runtime; only the contents follow `shape`.
RunCost batched_battery(const std::string& backend, int shape) {
  auto rt = Runtime::builder().seed(23).cache(1 << 14, 64).trace()
                .backend(backend).build();
  const std::vector<rel::JoinSlot> jslots = {{24, 40, 96, false, 0},
                                             {32, 24, 128, true, 3},
                                             {16, 48, 20, false, 0}};
  std::vector<uint64_t> lk, rk;
  for (size_t s = 0; s < jslots.size(); ++s) {
    for (uint64_t k : shaped_keys(shape, jslots[s].nl, 100 + s)) {
      lk.push_back(k);
    }
    for (uint64_t k : shaped_keys(shape, jslots[s].nr, 200 + s)) {
      rk.push_back(k);
    }
  }
  std::vector<obl::Elem> frame;
  (void)rt.join_batched(lk, rk, jslots, frame);
  const std::vector<rel::GroupSlot> gslots = {{40, 8}, {24, 24}, {56, 4},
                                              {32, 16}};
  std::vector<uint64_t> gk, gv;
  for (size_t s = 0; s < gslots.size(); ++s) {
    for (uint64_t k : shaped_keys(shape, gslots[s].n, 300 + s)) {
      gk.push_back(k);
      gv.push_back(k * 7 + s);
    }
  }
  (void)rt.group_by_batched(gk, gv, gslots, rel::Agg::Sum, frame);
  return cost_of(rt);
}

TEST(RelOblivious, BatchedScheduleIndependentOfContents) {
  // The coalesced hooks keep the solo contract: on a comparator-network
  // backend a batch's schedule, cost and address trace are a pure
  // function of the slot shape vector.
  for (const std::string& name : backend_names()) {
    if (name == "osort" || name == "spms") continue;  // randomized full sorts
    SCOPED_TRACE("backend=" + name);
    const RunCost uniform = batched_battery(name, 0);
    EXPECT_NE(uniform.digest, 0u);
    EXPECT_EQ(batched_battery(name, 1), uniform);
    EXPECT_EQ(batched_battery(name, 2), uniform);
  }
}

// ---- compact / propagate facade ----------------------------------------

TEST(RelFacade, CompactStableAnySize) {
  auto rt = Runtime::builder().seed(21).build();
  for (size_t n : {size_t{5}, size_t{64}, size_t{300}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    auto in = test::random_elems(n, 80 + n);
    util::Rng flip(n);
    for (auto& e : in) {
      if (flip.below(3) == 0) e.flags |= obl::Elem::kFiller;
    }
    std::vector<obl::Elem> want_live;
    size_t fillers = 0;
    for (const auto& e : in) {
      if (e.flags & obl::Elem::kFiller) {
        ++fillers;
      } else {
        want_live.push_back(e);
      }
    }
    auto v = rt.make_vec<obl::Elem>(std::vector<obl::Elem>(in));
    rt.compact(v.s());
    for (size_t i = 0; i < want_live.size(); ++i) {
      EXPECT_EQ(v.s()[i].key, want_live[i].key);
      EXPECT_EQ(v.s()[i].payload, want_live[i].payload);
      EXPECT_EQ(v.s()[i].aux, want_live[i].aux);
      EXPECT_FALSE(v.s()[i].flags & obl::Elem::kFiller);
    }
    for (size_t i = want_live.size(); i < n; ++i) {
      EXPECT_TRUE(v.s()[i].flags & obl::Elem::kFiller);
    }
  }
}

TEST(RelFacade, CompactScheduleIndependentOfFillerPattern) {
  auto digest = [](uint64_t flip_seed) {
    auto rt = Runtime::builder().seed(22).trace().build();
    auto in = test::random_elems(100, 90);
    util::Rng flip(flip_seed);
    for (auto& e : in) {
      if (flip.below(2) == 0) e.flags |= obl::Elem::kFiller;
    }
    auto v = rt.make_vec<obl::Elem>(std::move(in));
    rt.compact(v.s());
    return rt.trace_digest();
  };
  EXPECT_EQ(digest(1), digest(2));
}

TEST(RelFacade, PropagateLeftmostPerGroup) {
  auto rt = Runtime::builder().seed(23).build();
  const size_t n = 100;
  std::vector<obl::Elem> in(n);
  for (size_t i = 0; i < n; ++i) {
    in[i].key = i / 7;  // sorted groups of 7
    const bool head = i % 7 == 0;
    in[i].payload = head ? 500 + i : 9999;  // non-head values are junk
    in[i].aux = head ? 800 + i : 9999;
  }
  auto v = rt.make_vec<obl::Elem>(std::vector<obl::Elem>(in));
  rt.propagate(v.s());
  for (size_t i = 0; i < n; ++i) {
    const size_t head = i - i % 7;
    EXPECT_EQ(v.s()[i].payload, 500 + head);
    EXPECT_EQ(v.s()[i].aux, 800 + head);
  }
}

}  // namespace
