// Coalesced relational serving: the join / group-by request kinds of
// dopar::Service. Pins the determinism contract — every request's result
// is byte-identical whether it is served solo (canonical Runtime pipeline)
// or inside any coalesced batch (one shared slot-tagged plan) — plus the
// per-kind compatibility rules, validation, and the batched Runtime hooks
// against their solo counterparts.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dopar.hpp"
#include "testutil.hpp"

namespace {

using namespace std::chrono_literals;
using JoinRes = dopar::rel::JoinResult<uint64_t, uint64_t>;

dopar::Runtime make_rt(uint64_t seed = 42) {
  return dopar::Runtime::builder().threads(2).seed(seed).build();
}

dopar::svc::Options flush_only_opts() {
  dopar::svc::Options o;
  o.window = 10min;  // only flush dispatches
  o.max_inflight_batches = 1;
  return o;
}

std::vector<uint64_t> rel_keys(uint64_t tag, size_t n, uint64_t bound) {
  // Small key domain: duplicate keys everywhere, so multiplicities and
  // tie handling are the engine-visible part of the plan.
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = dopar::util::hash_rand(tag, i) % bound;
  }
  return keys;
}

/// Check one slot of a join_batched frame against the independent
/// nested-loop oracle: the true match count, and the first `bound` pairs
/// of (left idx, right idx) in output order.
void expect_slot_matches_oracle(const std::vector<uint64_t>& lk,
                                const std::vector<uint64_t>& rk,
                                bool banded, uint64_t band, size_t bound,
                                uint64_t matched,
                                const dopar::test::IdPairs& got,
                                const std::string& what) {
  dopar::test::IdPairs want = dopar::test::oracle_join(
      dopar::test::keyed_rows(lk), dopar::test::keyed_rows(rk), banded, band);
  EXPECT_EQ(matched, want.size()) << what;
  if (want.size() > bound) want.resize(bound);
  EXPECT_EQ(got, want) << what;
}

void expect_join_eq(const JoinRes& a, const JoinRes& b, const char* what) {
  EXPECT_EQ(a.matched, b.matched) << what;
  EXPECT_EQ(a.rows, b.rows) << what;
}

void expect_group_eq(const dopar::rel::GroupByResult& a,
                     const dopar::rel::GroupByResult& b, const char* what) {
  EXPECT_EQ(a.groups_total, b.groups_total) << what;
  ASSERT_EQ(a.groups.size(), b.groups.size()) << what;
  for (size_t i = 0; i < a.groups.size(); ++i) {
    EXPECT_EQ(a.groups[i].key, b.groups[i].key) << what << " group " << i;
    EXPECT_EQ(a.groups[i].value, b.groups[i].value) << what << " group " << i;
    EXPECT_EQ(a.groups[i].count, b.groups[i].count) << what << " group " << i;
  }
}

// ---- coalesced vs solo byte identity ------------------------------------

TEST(ServiceRel, CoalescedEquiJoinMatchesSolo) {
  // Each request solo (one request per flush -> canonical Runtime
  // pipeline), then the same requests in one coalesced batch on a
  // different runtime seed. Results must be byte-identical.
  struct Shape {
    size_t nl, nr;
    uint64_t dom;
    size_t bound;
  };
  const Shape shapes[] = {
      {24, 40, 8, 0},    {64, 64, 16, 0}, {7, 100, 4, 0},
      {33, 33, 100, 0},  {1, 50, 2, 0},
  };

  std::vector<JoinRes> solo;
  {
    auto rt = make_rt(1);
    dopar::Service s(rt, flush_only_opts());
    for (size_t i = 0; i < std::size(shapes); ++i) {
      auto f = s.equi_join(/*tenant=*/i, rel_keys(i, shapes[i].nl, shapes[i].dom),
                           rel_keys(100 + i, shapes[i].nr, shapes[i].dom),
                           shapes[i].bound);
      s.flush();
      solo.push_back(f.get());
    }
    EXPECT_EQ(s.stats().kinds[size_t(dopar::Service::Kind::Join)].batches,
              std::size(shapes));
  }

  {
    auto rt = make_rt(2);
    dopar::svc::Options o = flush_only_opts();
    o.max_batch_elems = 1 << 20;  // footprints incl. default |L|*|R| bounds
    dopar::Service s(rt, o);
    std::vector<dopar::Future<JoinRes>> futs;
    for (size_t i = 0; i < std::size(shapes); ++i) {
      futs.push_back(
          s.equi_join(i, rel_keys(i, shapes[i].nl, shapes[i].dom),
                      rel_keys(100 + i, shapes[i].nr, shapes[i].dom),
                      shapes[i].bound));
    }
    s.flush();
    for (size_t i = 0; i < futs.size(); ++i) {
      JoinRes got = futs[i].get();
      expect_join_eq(got, solo[i], "equi join request");
    }
    const auto ks = s.stats().kinds[size_t(dopar::Service::Kind::Join)];
    EXPECT_EQ(ks.batches, 1u);
    EXPECT_EQ(ks.coalesced_requests, std::size(shapes));
  }
}

TEST(ServiceRel, CoalescedBandJoinMatchesSoloAndEquiAtZero) {
  // Band joins coalesce with equi joins (same kind); a band of 0 must
  // reproduce the equi result exactly.
  const std::vector<uint64_t> lk = rel_keys(5, 48, 32);
  const std::vector<uint64_t> rk = rel_keys(6, 56, 32);

  JoinRes solo_band, solo_equi;
  {
    auto rt = make_rt(1);
    dopar::Service s(rt, flush_only_opts());
    auto f1 = s.band_join(0, lk, rk, /*band=*/3);
    s.flush();
    solo_band = f1.get();
    auto f2 = s.equi_join(0, lk, rk);
    s.flush();
    solo_equi = f2.get();
  }
  EXPECT_GT(solo_band.matched, solo_equi.matched);  // band=3 widens matches

  {
    auto rt = make_rt(7);
    dopar::svc::Options o = flush_only_opts();
    o.max_batch_elems = 1 << 20;
    dopar::Service s(rt, o);
    auto fb = s.band_join(1, lk, rk, 3);
    auto fz = s.band_join(2, lk, rk, 0);
    auto fe = s.equi_join(3, lk, rk);
    s.flush();
    JoinRes got_b = fb.get(), got_z = fz.get(), got_e = fe.get();
    expect_join_eq(got_b, solo_band, "band=3 coalesced");
    expect_join_eq(got_e, solo_equi, "equi coalesced");
    expect_join_eq(got_z, solo_equi, "band=0 == equi");
    const auto ks = s.stats().kinds[size_t(dopar::Service::Kind::Join)];
    EXPECT_EQ(ks.batches, 1u);  // equi and banded share one batch
    EXPECT_EQ(ks.coalesced_requests, 3u);
  }
}

TEST(ServiceRel, JoinBoundTruncationMatchesSolo) {
  const std::vector<uint64_t> lk = rel_keys(9, 40, 4);  // heavy duplication
  const std::vector<uint64_t> rk = rel_keys(10, 40, 4);
  constexpr size_t kBound = 32;  // far below the true match count

  JoinRes solo;
  {
    auto rt = make_rt(1);
    dopar::Service s(rt, flush_only_opts());
    auto f = s.equi_join(0, lk, rk, kBound);
    s.flush();
    solo = f.get();
  }
  EXPECT_TRUE(solo.truncated());
  EXPECT_EQ(solo.rows.size(), kBound);

  {
    auto rt = make_rt(3);
    dopar::svc::Options o = flush_only_opts();
    o.max_batch_elems = 1 << 20;
    dopar::Service s(rt, o);
    auto f1 = s.equi_join(1, lk, rk, kBound);
    auto f2 = s.equi_join(2, rel_keys(11, 30, 8), rel_keys(12, 30, 8));
    s.flush();
    JoinRes got = f1.get();
    (void)f2.get();
    expect_join_eq(got, solo, "truncated join");
    EXPECT_TRUE(got.truncated());
  }
}

TEST(ServiceRel, CoalescedGroupByMatchesSoloAllAggs) {
  using dopar::rel::Agg;
  for (Agg agg : {Agg::Sum, Agg::Count, Agg::Min, Agg::Max}) {
    std::vector<dopar::rel::GroupByResult> solo;
    {
      auto rt = make_rt(1);
      dopar::Service s(rt, flush_only_opts());
      for (uint64_t r = 0; r < 4; ++r) {
        auto f = s.group_by_aggregate(r, rel_keys(r, 80, 12),
                                      rel_keys(50 + r, 80, 1000), agg);
        s.flush();
        solo.push_back(f.get());
      }
    }
    {
      auto rt = make_rt(4);
      dopar::svc::Options o = flush_only_opts();
      o.max_batch_elems = 1 << 20;
      dopar::Service s(rt, o);
      std::vector<dopar::Future<dopar::rel::GroupByResult>> futs;
      for (uint64_t r = 0; r < 4; ++r) {
        futs.push_back(s.group_by_aggregate(r, rel_keys(r, 80, 12),
                                            rel_keys(50 + r, 80, 1000), agg));
      }
      s.flush();
      for (size_t r = 0; r < futs.size(); ++r) {
        dopar::rel::GroupByResult got = futs[r].get();
        expect_group_eq(got, solo[r], "group-by request");
      }
      const auto ks = s.stats().kinds[size_t(dopar::Service::Kind::GroupBy)];
      EXPECT_EQ(ks.batches, 1u);
      EXPECT_EQ(ks.coalesced_requests, 4u);
    }
  }
}

TEST(ServiceRel, GroupBoundTruncationMatchesSolo) {
  const std::vector<uint64_t> keys = rel_keys(20, 100, 40);
  const std::vector<uint64_t> vals = rel_keys(21, 100, 1000);
  constexpr size_t kBound = 5;  // fewer than the distinct keys

  dopar::rel::GroupByResult solo;
  {
    auto rt = make_rt(1);
    dopar::Service s(rt, flush_only_opts());
    auto f = s.group_by_aggregate(0, keys, vals, dopar::rel::Agg::Sum, kBound);
    s.flush();
    solo = f.get();
  }
  EXPECT_TRUE(solo.truncated());
  EXPECT_EQ(solo.groups.size(), kBound);

  {
    auto rt = make_rt(8);
    dopar::Service s(rt, flush_only_opts());
    auto f1 = s.group_by_aggregate(1, keys, vals, dopar::rel::Agg::Sum, kBound);
    auto f2 = s.group_by_aggregate(2, rel_keys(22, 64, 8),
                                   rel_keys(23, 64, 9), dopar::rel::Agg::Sum);
    s.flush();
    dopar::rel::GroupByResult got = f1.get();
    (void)f2.get();
    expect_group_eq(got, solo, "truncated group-by");
  }
}

// ---- compatibility rules ------------------------------------------------

TEST(ServiceRel, MixedAggGroupBysDoNotCoalesce) {
  auto rt = make_rt();
  dopar::Service s(rt, flush_only_opts());
  auto f1 = s.group_by_aggregate(0, rel_keys(1, 32, 6), rel_keys(2, 32, 10),
                                 dopar::rel::Agg::Sum);
  auto f2 = s.group_by_aggregate(1, rel_keys(3, 32, 6), rel_keys(4, 32, 10),
                                 dopar::rel::Agg::Max);
  auto f3 = s.group_by_aggregate(2, rel_keys(5, 32, 6), rel_keys(6, 32, 10),
                                 dopar::rel::Agg::Sum);
  s.flush();
  (void)f1.get();
  (void)f2.get();
  (void)f3.get();
  const auto ks = s.stats().kinds[size_t(dopar::Service::Kind::GroupBy)];
  // Sum+Sum share one batch; Max dispatches alone.
  EXPECT_EQ(ks.batches, 2u);
  EXPECT_EQ(ks.coalesced_requests, 2u);
  EXPECT_EQ(ks.solo_requests, 1u);
}

TEST(ServiceRel, MixedKindsSplitBatchesWithPerKindStats) {
  auto rt = make_rt();
  dopar::Service s(rt, flush_only_opts());
  auto fs1 = s.sort(0, rel_keys(1, 64, 1000));
  auto fj1 = s.equi_join(0, rel_keys(2, 24, 8), rel_keys(3, 24, 8));
  auto fg1 = s.group_by_aggregate(0, rel_keys(4, 48, 6), rel_keys(5, 48, 10),
                                  dopar::rel::Agg::Sum);
  auto fs2 = s.sort(1, rel_keys(6, 64, 1000));
  auto fj2 = s.equi_join(1, rel_keys(7, 24, 8), rel_keys(8, 24, 8));
  auto fg2 = s.group_by_aggregate(1, rel_keys(9, 48, 6), rel_keys(10, 48, 10),
                                  dopar::rel::Agg::Sum);
  s.flush();
  EXPECT_EQ(fs1.get().size(), 64u);
  EXPECT_EQ(fs2.get().size(), 64u);
  (void)fj1.get();
  (void)fj2.get();
  (void)fg1.get();
  (void)fg2.get();
  const auto st = s.stats();
  using K = dopar::Service::Kind;
  for (K k : {K::Sort, K::Join, K::GroupBy}) {
    const auto& ks = st.kinds[size_t(k)];
    EXPECT_EQ(ks.accepted, 2u) << "kind " << int(k);
    EXPECT_EQ(ks.batches, 1u) << "kind " << int(k);
    EXPECT_EQ(ks.coalesced_requests, 2u) << "kind " << int(k);
  }
  EXPECT_EQ(st.batches, 3u);
}

TEST(ServiceRel, LargeKeyJoinRunsSolo) {
  // Keys above 2^48-1 cannot carry a slot tag but are legal (< 2^62):
  // the request is served solo, riding alongside coalescible traffic.
  auto rt = make_rt();
  dopar::Service s(rt, flush_only_opts());
  const uint64_t kBig = uint64_t{1} << 50;
  std::vector<uint64_t> lk = {kBig, kBig + 1, kBig + 2, kBig};
  std::vector<uint64_t> rk = {kBig, kBig + 2, kBig + 5};

  auto f1 = s.equi_join(0, rel_keys(1, 16, 6), rel_keys(2, 16, 6));
  auto fbig = s.equi_join(1, lk, rk);
  auto f2 = s.equi_join(2, rel_keys(3, 16, 6), rel_keys(4, 16, 6));
  s.flush();
  JoinRes got = fbig.get();
  (void)f1.get();
  (void)f2.get();
  EXPECT_EQ(got.matched, 3u);  // kBig x2 -> key kBig, kBig+2 -> one pair
  const auto ks = s.stats().kinds[size_t(dopar::Service::Kind::Join)];
  EXPECT_EQ(ks.solo_requests, 1u);
  EXPECT_EQ(ks.coalesced_requests, 2u);
}

// ---- validation & lifecycle ---------------------------------------------

TEST(ServiceRel, BadGroupBoundThrowsAtSubmitNotInItsBatch) {
  // A group bound >= 2^32 is the submitter's error: it must throw at
  // submit, not ride a batch whose plan then fails every batch-mate.
  auto rt = make_rt();
  dopar::svc::Options o = flush_only_opts();
  o.max_batch_elems = size_t{1} << 40;  // the bad bound would coalesce
  dopar::Service s(rt, o);
  const std::vector<uint64_t> keys = rel_keys(1, 64, 8);
  const std::vector<uint64_t> vals = rel_keys(2, 64, 100);
  auto good = s.group_by_aggregate(0, keys, vals, dopar::rel::Agg::Sum);
  EXPECT_THROW((void)s.group_by_aggregate(1, keys, vals, dopar::rel::Agg::Sum,
                                          size_t{1} << 32),
               std::invalid_argument);
  EXPECT_THROW((void)s.try_group_by_aggregate(
                   2, keys, vals, dopar::rel::Agg::Sum, size_t{1} << 32),
               std::invalid_argument);
  s.flush();

  std::map<uint64_t, std::pair<uint64_t, uint64_t>> want;  // sum, count
  for (size_t i = 0; i < keys.size(); ++i) {
    want[keys[i]].first += vals[i];
    ++want[keys[i]].second;
  }
  const dopar::rel::GroupByResult got = good.get();
  EXPECT_EQ(got.groups_total, want.size());
  ASSERT_EQ(got.groups.size(), want.size());
  size_t g = 0;
  for (const auto& [key, agg] : want) {
    EXPECT_EQ(got.groups[g].key, key);
    EXPECT_EQ(got.groups[g].value, agg.first);
    EXPECT_EQ(got.groups[g].count, agg.second);
    ++g;
  }
  EXPECT_EQ(s.stats().kinds[size_t(dopar::Service::Kind::GroupBy)].accepted,
            1u);
}

TEST(ServiceRel, ValidationAndInlineCompletion) {
  auto rt = make_rt();
  dopar::Service s(rt);
  const uint64_t kTooBig = uint64_t{1} << 62;
  EXPECT_THROW((void)s.equi_join(0, {1, kTooBig}, {1}), std::invalid_argument);
  EXPECT_THROW((void)s.group_by_aggregate(0, {kTooBig}, {1},
                                          dopar::rel::Agg::Sum),
               std::invalid_argument);
  EXPECT_THROW((void)s.group_by_aggregate(0, {1, 2}, {1},  // ragged columns
                                          dopar::rel::Agg::Sum),
               std::invalid_argument);

  // Empty inputs complete inline without touching the queue.
  auto fj = s.equi_join(0, {}, {1, 2});
  JoinRes jr = fj.get();
  EXPECT_EQ(jr.matched, 0u);
  EXPECT_TRUE(jr.rows.empty());
  auto fg = s.group_by_aggregate(0, {}, {}, dopar::rel::Agg::Count);
  dopar::rel::GroupByResult gr = fg.get();
  EXPECT_EQ(gr.groups_total, 0u);
  EXPECT_TRUE(gr.groups.empty());
}

TEST(ServiceRel, TraceDigestReplays) {
  // Two Services with identical configuration and mixed-kind request
  // sequences replay the identical memory trace.
  auto run = [] {
    auto rt = dopar::Runtime::builder().trace().seed(5).build();
    std::pair<uint64_t, uint64_t> out{};
    {
      dopar::Service s(rt, flush_only_opts());
      auto fj1 = s.equi_join(0, rel_keys(1, 24, 8), rel_keys(2, 24, 8));
      auto fj2 = s.band_join(1, rel_keys(3, 24, 16), rel_keys(4, 24, 16), 2);
      auto fg1 = s.group_by_aggregate(0, rel_keys(5, 40, 6),
                                      rel_keys(6, 40, 100),
                                      dopar::rel::Agg::Min);
      auto fg2 = s.group_by_aggregate(1, rel_keys(7, 40, 6),
                                      rel_keys(8, 40, 100),
                                      dopar::rel::Agg::Min);
      s.flush();
      out.second = fj1.get().matched + fj2.get().matched +
                   fg1.get().groups_total + fg2.get().groups_total;
    }
    out.first = rt.trace_digest();
    return out;
  };
  const auto [d1, r1] = run();
  const auto [d2, r2] = run();
  EXPECT_NE(d1, 0u);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(r1, r2);
}

// ---- batched Runtime hooks vs solo pipelines ----------------------------

TEST(ServiceRel, JoinBatchedHookMatchesSoloRuns) {
  // Three slots of different shapes — one banded — through one
  // Runtime::join_batched call; each slot's frame share must equal the
  // solo pipeline's (left id, right id) rows exactly.
  auto rt = make_rt(11);
  struct Slot {
    std::vector<uint64_t> lk, rk;
    dopar::rel::JoinSlot shape;
  };
  std::vector<Slot> slots(3);
  slots[0] = {rel_keys(1, 20, 6), rel_keys(2, 28, 6), {}};
  slots[1] = {rel_keys(3, 33, 64), rel_keys(4, 17, 64), {}};
  slots[2] = {rel_keys(5, 24, 16), rel_keys(6, 24, 16), {}};
  slots[0].shape = {20, 28, 20 * 28, false, 0};
  slots[1].shape = {33, 17, 64, false, 0};  // truncating bound
  slots[2].shape = {24, 24, 24 * 24, true, 2};

  std::vector<uint64_t> lkeys, rkeys;
  std::vector<dopar::rel::JoinSlot> shapes;
  for (const Slot& s : slots) {
    lkeys.insert(lkeys.end(), s.lk.begin(), s.lk.end());
    rkeys.insert(rkeys.end(), s.rk.begin(), s.rk.end());
    shapes.push_back(s.shape);
  }
  std::vector<dopar::obl::Elem> frame;
  const std::vector<uint64_t> matched =
      rt.join_batched(lkeys, rkeys, shapes, frame);

  size_t off = 0;
  for (size_t si = 0; si < slots.size(); ++si) {
    const Slot& s = slots[si];
    // Solo run over index spans: rows are (left idx, right idx) pairs.
    std::vector<uint64_t> li(s.lk.size()), ri(s.rk.size());
    std::iota(li.begin(), li.end(), uint64_t{0});
    std::iota(ri.begin(), ri.end(), uint64_t{0});
    const auto lkey = [&](uint64_t i) { return s.lk[i]; };
    const auto rkey = [&](uint64_t i) { return s.rk[i]; };
    dopar::rel::JoinOptions jo;
    jo.output_bound = s.shape.bound;
    const JoinRes want =
        s.shape.banded
            ? rt.band_join(std::span<const uint64_t>(li), lkey,
                           std::span<const uint64_t>(ri), rkey, s.shape.band,
                           jo)
            : rt.equi_join(std::span<const uint64_t>(li), lkey,
                           std::span<const uint64_t>(ri), rkey, jo);
    EXPECT_EQ(matched[si], want.matched) << "slot " << si;
    std::vector<std::pair<uint64_t, uint64_t>> got;
    for (size_t j = 0; j < s.shape.bound; ++j) {
      const dopar::obl::Elem& e = frame[off + j];
      if (e.flags & dopar::obl::Elem::kFiller) continue;
      got.emplace_back(e.payload, e.aux);
    }
    off += s.shape.bound;
    EXPECT_EQ(got, want.rows) << "slot " << si;
    expect_slot_matches_oracle(s.lk, s.rk, s.shape.banded, s.shape.band,
                               s.shape.bound, matched[si], got,
                               "oracle, slot " + std::to_string(si));
  }
}

TEST(ServiceRel, EquiJoinFastPathAdversarialShapes) {
  // All-equi batches take the recorded-network fast path inside
  // join_engine_batched; drive it over shapes chosen to stress every
  // routing primitive — all-duplicate keys (non-monotone gather ranks),
  // tight truncating bounds (frame prefix order), near-disjoint domains
  // (miss handling), single-row tables, and off-pow2 sizes — and require
  // slot-for-slot equality with the solo pipeline.
  auto rt = make_rt(21);
  struct Shape {
    size_t nl, nr;
    uint64_t dom;
    size_t bound;
  };
  const std::vector<std::vector<Shape>> rounds = {
      {{1, 1, 1, 1}, {2, 64, 1, 3}, {64, 2, 2, 128}, {5, 7, 1000, 35}},
      {{17, 33, 3, 8}, {31, 1, 2, 31}, {16, 16, 1, 256}, {3, 3, 2, 1}},
      {{40, 40, 4, 32}, {9, 120, 2, 10}, {120, 9, 6, 1080}, {2, 2, 1, 4}},
  };
  for (size_t rd = 0; rd < rounds.size(); ++rd) {
    std::vector<uint64_t> lkeys, rkeys;
    std::vector<dopar::rel::JoinSlot> shapes;
    std::vector<std::pair<std::vector<uint64_t>, std::vector<uint64_t>>> in;
    for (size_t si = 0; si < rounds[rd].size(); ++si) {
      const Shape& sh = rounds[rd][si];
      const uint64_t tag = 100 * rd + 2 * si;
      in.emplace_back(rel_keys(tag, sh.nl, sh.dom),
                      rel_keys(tag + 1, sh.nr, sh.dom));
      lkeys.insert(lkeys.end(), in.back().first.begin(),
                   in.back().first.end());
      rkeys.insert(rkeys.end(), in.back().second.begin(),
                   in.back().second.end());
      shapes.push_back({sh.nl, sh.nr, sh.bound, false, 0});
    }
    std::vector<dopar::obl::Elem> frame;
    const std::vector<uint64_t> matched =
        rt.join_batched(lkeys, rkeys, shapes, frame);

    size_t off = 0;
    for (size_t si = 0; si < shapes.size(); ++si) {
      std::vector<uint64_t> li(shapes[si].nl), ri(shapes[si].nr);
      std::iota(li.begin(), li.end(), uint64_t{0});
      std::iota(ri.begin(), ri.end(), uint64_t{0});
      const auto lkey = [&](uint64_t i) { return in[si].first[i]; };
      const auto rkey = [&](uint64_t i) { return in[si].second[i]; };
      dopar::rel::JoinOptions jo;
      jo.output_bound = shapes[si].bound;
      const JoinRes want = rt.equi_join(std::span<const uint64_t>(li), lkey,
                                        std::span<const uint64_t>(ri), rkey,
                                        jo);
      EXPECT_EQ(matched[si], want.matched)
          << "round " << rd << " slot " << si;
      std::vector<std::pair<uint64_t, uint64_t>> got;
      for (size_t j = 0; j < shapes[si].bound; ++j) {
        const dopar::obl::Elem& e = frame[off + j];
        if (e.flags & dopar::obl::Elem::kFiller) continue;
        got.emplace_back(e.payload, e.aux);
      }
      off += shapes[si].bound;
      EXPECT_EQ(got, want.rows) << "round " << rd << " slot " << si;
      expect_slot_matches_oracle(
          in[si].first, in[si].second, false, 0, shapes[si].bound,
          matched[si], got,
          "oracle, round " + std::to_string(rd) + " slot " +
              std::to_string(si));
    }
  }
}

TEST(ServiceRel, GroupByBatchedHookMatchesSoloRuns) {
  auto rt = make_rt(12);
  struct Slot {
    std::vector<uint64_t> keys, vals;
    dopar::rel::GroupSlot shape;
  };
  std::vector<Slot> slots(3);
  slots[0] = {rel_keys(1, 40, 7), rel_keys(2, 40, 100), {40, 40}};
  slots[1] = {rel_keys(3, 25, 50), rel_keys(4, 25, 100), {25, 4}};  // trunc
  slots[2] = {rel_keys(5, 64, 3), rel_keys(6, 64, 100), {64, 64}};

  std::vector<uint64_t> keys, vals;
  std::vector<dopar::rel::GroupSlot> shapes;
  for (const Slot& s : slots) {
    keys.insert(keys.end(), s.keys.begin(), s.keys.end());
    vals.insert(vals.end(), s.vals.begin(), s.vals.end());
    shapes.push_back(s.shape);
  }
  std::vector<dopar::obl::Elem> frame;
  const std::vector<uint64_t> groups =
      rt.group_by_batched(keys, vals, shapes, dopar::rel::Agg::Sum, frame);

  size_t off = 0;
  for (size_t si = 0; si < slots.size(); ++si) {
    const Slot& s = slots[si];
    std::vector<uint64_t> idx(s.keys.size());
    std::iota(idx.begin(), idx.end(), uint64_t{0});
    dopar::rel::GroupByOptions go;
    go.group_bound = s.shape.bound;
    const dopar::rel::GroupByResult want = rt.group_by_aggregate(
        std::span<const uint64_t>(idx),
        [&](uint64_t i) { return s.keys[i]; },
        [&](uint64_t i) { return s.vals[i]; }, dopar::rel::Agg::Sum, go);
    EXPECT_EQ(groups[si], want.groups_total) << "slot " << si;
    std::vector<dopar::rel::GroupRow> got;
    for (size_t j = 0; j < s.shape.bound; ++j) {
      const dopar::obl::Elem& e = frame[off + j];
      if (e.flags & dopar::obl::Elem::kFiller) continue;
      got.push_back(dopar::rel::GroupRow{e.key, e.payload, e.aux});
    }
    off += s.shape.bound;
    ASSERT_EQ(got.size(), want.groups.size()) << "slot " << si;
    for (size_t g = 0; g < got.size(); ++g) {
      EXPECT_EQ(got[g].key, want.groups[g].key) << "slot " << si;
      EXPECT_EQ(got[g].value, want.groups[g].value) << "slot " << si;
      EXPECT_EQ(got[g].count, want.groups[g].count) << "slot " << si;
    }
    // Against the independent oracle: the first `bound` groups by key.
    const auto oracle = dopar::test::oracle_group(
        dopar::test::keyed_rows(s.keys, s.vals), dopar::rel::Agg::Sum);
    EXPECT_EQ(groups[si], oracle.size()) << "slot " << si;
    ASSERT_EQ(got.size(), std::min(oracle.size(), s.shape.bound))
        << "slot " << si;
    size_t g = 0;
    for (const auto& [key, row] : oracle) {
      if (g == got.size()) break;
      EXPECT_EQ(got[g].key, key) << "slot " << si << " group " << g;
      EXPECT_EQ(got[g].value, row.value) << "slot " << si << " group " << g;
      EXPECT_EQ(got[g].count, row.count) << "slot " << si << " group " << g;
      ++g;
    }
  }
}

}  // namespace
