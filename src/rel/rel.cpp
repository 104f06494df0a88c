// Oblivious relational-operator engines (see rel/rel.hpp for the plans and
// the obliviousness/size contracts).
//
// Everything here is a composition of the library's fixed-pattern building
// blocks: recorded bitonic networks and monotone routing (obl/route.hpp),
// backend sorts, prefix and segmented scans (obl/scan.hpp,
// obl::aggregate_suffix) and stable oblivious compaction. Every scratch
// size is a function of the slot shape vector alone, so the step sequence
// — and with a network backend the entire comparator/access schedule — is
// independent of table contents. Secret-dependent *values* are computed
// branchlessly (obl::oselect) throughout; public parameters (sizes, the
// band, the aggregation operator) may branch freely.
//
// Each engine runs a batch of independent requests ("slots"); a solo call
// is the one-slot case, so solo and coalesced runs agree by construction.
//
//  * Joins run one per-slot plan, concurrently across slots on the pool:
//    the slot's rows never mix with another slot's, so no slot tag is
//    needed and the plan is a fixed function of (nl, nr, bound). It sorts
//    only with recorded comparator networks, so it never reads the
//    Runtime's sorter backend.
//  * Group-by runs ONE plan over the concatenation of every slot's rows.
//    Slot s's rows ride composite keys (s << kBatchKeyBits) | key, so
//    slots occupy disjoint, slot-major key ranges; every shared array is
//    laid out slot-major with per-slot pow2 padding and sorted SEGMENTED
//    (each slot's segment independently, concurrently on the pool).
//    Per-slot group counts fall out of ONE global scan read back at the
//    public slot-boundary positions. Position -> slot maps used inside the
//    generate lambdas are host arrays indexed by the (public) loop position
//    only.

#include "rel/rel.hpp"

#include <algorithm>
#include <cassert>
#include <optional>

#include "forkjoin/api.hpp"
#include "obl/aggregate.hpp"
#include "obl/compact.hpp"
#include "obl/elem.hpp"
#include "obl/kernel/kernel.hpp"
#include "obl/oswap.hpp"
#include "obl/route.hpp"
#include "obl/scan.hpp"
#include "obs/obs.hpp"
#include "sim/tracked.hpp"
#include "util/bits.hpp"

namespace dopar::rel::detail {

namespace kernel = obl::kernel;

namespace {

using obl::Elem;

// Query/row side tags (Elem::extra). At equal keys the merge places
// lo-queries before the right rows and hi-queries after them, so a plain
// prefix count of right rows yields, at a lo-query, the number of right
// keys strictly below it and, at a hi-query, the number at or below it.
constexpr uint32_t kTagLo = 0;
constexpr uint32_t kTagRight = 1;
constexpr uint32_t kTagHi = 2;

/// Branchless lexicographic (key, tag, index) order. Total on every real
/// record the join builds (indexes are unique per (key, tag) side; pads
/// and fillers are interchangeable).
struct ByKeyTagIdx {
  bool operator()(const Elem& a, const Elem& b) const {
    const bool klt = a.key < b.key;
    const bool keq = a.key == b.key;
    const bool tlt = a.extra < b.extra;
    const bool teq = a.extra == b.extra;
    const bool ilt = a.aux < b.aux;
    return klt | (keq & (tlt | (teq & ilt)));
  }
};

/// Descending (key, tag, index) order for the receiver sort: recorded-
/// network "ascending" under this comparator is descending under
/// ByKeyTagIdx, which is what the bitonic merge layout needs.
struct ByKeyTagIdxDesc {
  bool operator()(const Elem& a, const Elem& b) const {
    return ByKeyTagIdx{}(b, a);
  }
};

struct Add {
  uint64_t operator()(uint64_t a, uint64_t b) const { return a + b; }
};
struct MinOp {
  uint64_t operator()(uint64_t a, uint64_t b) const {
    return obl::oselect<uint64_t>(b < a, b, a);
  }
};
struct MaxOp {
  uint64_t operator()(uint64_t a, uint64_t b) const {
    return obl::oselect<uint64_t>(a < b, b, a);
  }
};

/// "Last marked record wins": associative, so an inclusive scan hands
/// every position the nearest record at or before it carrying kTemp
/// (positions before the first mark keep their own record).
struct LastMarked {
  Elem operator()(const Elem& a, const Elem& b) const {
    return obl::oselect((b.flags & Elem::kTemp) != 0, b, a);
  }
};

/// "Last source wins" over the gather's (payload + 1) values, 0 marking
/// a position that holds no source.
struct LastSource {
  uint64_t operator()(uint64_t a, uint64_t b) const {
    return obl::oselect<uint64_t>(b != 0, b, a);
  }
};

constexpr uint64_t slot_key(uint64_t s, uint64_t k) {
  return (s << kBatchKeyBits) | k;
}

/// Expand per-slot extents into a position -> slot host map.
std::vector<uint32_t> slot_map(const std::vector<size_t>& base) {
  const size_t S = base.size() - 1;
  std::vector<uint32_t> m(base[S]);
  for (size_t s = 0; s < S; ++s) {
    for (size_t p = base[s]; p < base[s + 1]; ++p) {
      m[p] = static_cast<uint32_t>(s);
    }
  }
  return m;
}

/// Pow2-padded extent of a slot segment (empty slots get no segment).
size_t padded(size_t n) { return n == 0 ? 0 : util::pow2_ceil(n); }

/// Slot s's share of a global exclusive prefix scan `excl` over the
/// slot-major array with per-slot starts `base` (whose scan total is
/// `total`): element s holds the scan value at slot s's first position.
/// Slot 0 always starts at 0 and the end at `total`, so only interior
/// boundaries are read.
std::vector<uint64_t> slot_bases(const slice<uint64_t>& excl,
                                 const std::vector<size_t>& base,
                                 uint64_t total) {
  const size_t S = base.size() - 1;
  std::vector<uint64_t> out(S + 1, total);
  out[0] = 0;
  for (size_t s = 1; s < S; ++s) {
    sim::tick(1);
    if (base[s] < excl.size()) out[s] = excl[base[s]];
  }
  return out;
}

/// Sort every slot's padded segment independently, concurrently across
/// slots. Equivalent order-wise to one shared sort of the whole array
/// (slots occupy disjoint key ranges at public offsets) at a fraction of
/// the comparator cost.
void sort_segments(const slice<Elem>& a, const std::vector<size_t>& base,
                   const SorterBackend& sorter) {
  fj::for_range(0, base.size() - 1, 1, [&](size_t s) {
    const size_t len = base[s + 1] - base[s];
    if (len > 1) sorter.sort(a.sub(base[s], len));
  });
}

/// Stable-compact every slot's padded segment independently: slot s's
/// live records land at [base[s], base[s] + live_s) — per-slot public
/// prefix readout positions.
void compact_segments(const slice<Elem>& a,
                      const std::vector<size_t>& base,
                      const SorterBackend& sorter) {
  fj::for_range(0, base.size() - 1, 1, [&](size_t s) {
    const size_t len = base[s + 1] - base[s];
    if (len > 1) obl::compact_oblivious(a.sub(base[s], len), sorter);
  });
}

/// One join slot: left rows (key, row id) against right rows, matching
/// |l.key - r.key| <= band (band 0 is the equi-join), `out` its output
/// frame. Returns the true match count. Three phases, each built from
/// recorded networks, monotone routing and scans (Krastnikov et al.'s
/// three-phase join):
///
///  * MULTIPLICITY: every left row issues a lo- and a hi-query (its key
///    minus and plus the band, saturated). [queries asc | rank-sorted
///    rights desc | key-0 pads] is bitonic under (key, tag, index), so one
///    recorded query sort plus one recorded merge interleave them; a
///    query's merged position minus its sorted position is its rank, and
///    tape replays return every query to its input position. count =
///    r_hi - r_lo and the first match's rank is r_lo.
///  * DISTRIBUTE-EXPAND: a scan turns counts into output offsets; run
///    heads carry their first output slot as a monotone routing target,
///    tight compaction plus monotone distribution place them, and a
///    last-marked scan spreads each head over its run.
///  * ALIGN-CONCAT: receivers keyed by requested rank record-sort
///    descending, one recorded merge interleaves them after their rank's
///    right row, a last-source scan does the gather, and replays restore
///    output order.
///
/// Pads and fillers are value-inert: pads sort before every query and
/// fillers after, so neither shifts a rank, and neither is a source in
/// the gather scan.
uint64_t join_slot(const slice<Elem>& left, const slice<Elem>& right,
                   const slice<Elem>& out, uint64_t band,
                   uint64_t key_max) {
  const size_t nl = left.size();
  const size_t nr = right.size();
  const size_t bound = out.size();
  if (nl == 0 || nr == 0) {
    kernel::fill_range(out, 0, bound, Elem::filler(), kernel::Tick::None);
    return 0;
  }
  std::optional<obs::Span> phase_span;
  phase_span.emplace("rel.multiplicity", "rows", nl + nr);

  // Rank the right table by (key, input index) — every row carries the
  // same tag — which makes the per-left match order total; kept for the
  // gather.
  const size_t pr = util::pow2_ceil(nr);
  vec<Elem> rsv(pr);
  const slice<Elem> rs = rsv.s();
  kernel::generate_range(rs, 0, pr, kernel::Tick::PerElem,
                         [&](Elem& e, size_t p) {
                           if (p < nr) {
                             e = right[p];
                             assert(e.key <= key_max &&
                                    "rel: join key above the slot ceiling");
                             assert(e.payload != kNoRow &&
                                    "rel: the gather carries row id + 1");
                             e.aux = p;
                             e.extra = kTagRight;
                           } else {
                             e = Elem::filler();
                           }
                         });
  std::vector<uint8_t> tape_rs;  // rs order is never undone
  obl::bitonic_sort_record(rs, tape_rs, ByKeyTagIdx{});

  // MULTIPLICITY. Query q asks for left row q / 2, a lo-query at even q
  // and a hi-query at odd q. Both bounds saturate at the key ceiling;
  // keys and band are below 2^62, so the sum cannot overflow.
  const uint64_t band_c = band > key_max ? key_max : band;
  const size_t nq = 2 * nl;
  const size_t pq = util::pow2_ceil(nq);
  const size_t pm = util::pow2_ceil(pq + pr);
  vec<Elem> umv(pm);
  const slice<Elem> um = umv.s();
  kernel::generate_range(
      um, 0, pm, kernel::Tick::PerElem, [&](Elem& e, size_t i) {
        if (i < nq) {
          const Elem l = left[i >> 1];
          assert(l.key <= key_max && "rel: join key above the slot ceiling");
          const bool is_hi = (i & 1) != 0;  // public
          e.key = is_hi ? obl::oselect<uint64_t>(l.key + band_c > key_max,
                                                 key_max, l.key + band_c)
                        : obl::oselect<uint64_t>(band_c > l.key, 0,
                                                 l.key - band_c);
          e.payload = 0;
          e.aux = i + 1;  // above the pads' 0: pads sort strictly first
          e.flags = 0;
          e.extra = is_hi ? kTagHi : kTagLo;
        } else if (i < pq) {
          e = Elem::filler();
        } else if (i < pq + pr) {  // rank-sorted right table, reversed
          e = rs[pq + pr - 1 - i];
        } else {  // key-0 pad: minimal under (key, tag, idx), inert
          e = Elem{};
          e.flags = Elem::kFiller;
        }
      });
  std::vector<uint8_t> tape_q, tape_m;
  obl::bitonic_sort_record(um.sub(0, pq), tape_q, ByKeyTagIdx{});
  kernel::transform_range(um, 0, pq, kernel::Tick::PerElem,
                          [](Elem& e, size_t q) { e.payload = q; });
  obl::bitonic_merge_record(um, tape_m, ByKeyTagIdx{});

  // The merge keeps the queries in their sorted order, and every pad
  // precedes them while every filler follows them, so a query at merged
  // position P that sat at sorted position Q has P - Q - pads real right
  // rows before it: its rank.
  const size_t pads = pm - pq - pr;
  kernel::transform_range(um, 0, pm, kernel::Tick::PerElem,
                          [&](Elem& e, size_t p) {
                            e.aux = p - e.payload - pads;
                          });
  obl::bitonic_merge_unreplay(um, tape_m);
  obl::bitonic_sort_unreplay(um.sub(0, pq), tape_q);

  // Queries are back at [0, nq) in input order: row i matches r_hi - r_lo
  // rows. One inclusive scan of the counts gives the end of each row's
  // output run; its start is that end minus the count.
  vec<uint64_t> endv(nl);
  const slice<uint64_t> end = endv.s();
  kernel::generate_range(end, 0, nl, kernel::Tick::PerElem,
                         [&](uint64_t& c, size_t i) {
                           c = um[2 * i + 1].aux - um[2 * i].aux;
                         });
  obl::scan_inclusive(end, Add{});
  const uint64_t matched = end[nl - 1];
  if (bound == 0) return matched;

  // DISTRIBUTE-EXPAND by monotone routing. Output slot j of left row i
  // pairs with rank r_lo + (j - off[i]), so a run head carrying delta =
  // r_lo - off[i] (mod 2^64) lets every slot recover its request as j +
  // delta. The terminator's delta points the padding slots past the
  // right table (rank >= |R| -> no match).
  phase_span.emplace("rel.distribute_expand", "frame", nl + 1 + bound);
  const size_t pf = util::pow2_ceil(nl + 1);
  const size_t pb = util::pow2_ceil(bound);
  vec<Elem> fv(std::max(pf, pb));
  const slice<Elem> fa = fv.s().first(pf);
  kernel::generate_range(
      fa, 0, pf, kernel::Tick::PerElem, [&](Elem& e, size_t i) {
        if (i < nl) {  // source: left row i at its first output slot
          const Elem lo = um[2 * i];
          const uint64_t c = um[2 * i + 1].aux - lo.aux;
          const uint64_t o = end[i] - c;
          const bool live = (c != 0) & (o < bound);
          e.key = o;  // routing target
          e.payload = left[i].payload;
          e.aux = lo.aux - o;
          e.flags = obl::oselect<uint32_t>(live, Elem::kTemp, 0);
          e.extra = 0;
        } else if (i == nl) {  // terminator pads slots >= matched
          const bool live = matched < bound;
          const uint64_t mc =
              obl::oselect<uint64_t>(live, matched, bound);
          e.key = mc;
          e.payload = kNoRow;
          e.aux = nr - mc;
          e.flags = obl::oselect<uint32_t>(live, Elem::kTemp, 0);
          e.extra = 0;
        } else {
          e = Elem::filler();
        }
      });
  obl::compact_monotone(fa, Elem::kTemp);
  // Live head count <= bound <= pb, so truncating at pb keeps every head.
  const slice<Elem> fb = fv.s().first(pb);
  if (pb > pf) {
    kernel::fill_range(fb, pf, pb - pf, Elem::filler(), kernel::Tick::PerElem);
  }
  obl::distribute_monotone(
      fb, [](const Elem& e) { return (e.flags & Elem::kTemp) != 0; },
      [](const Elem& e) { return e.key; }, Elem::filler());
  assert((fb.raw(0).flags & Elem::kTemp) != 0 &&
         "rel: slot 0 has a run head");
  // Slot j inherits the nearest head at or before it: payload = left row
  // id (kNoRow past the matches), aux = rank delta.
  obl::scan_inclusive(fb.sub(0, bound), LastMarked{});

  // ALIGN-CONCAT: exact-match gather of right payloads by rank.
  phase_span.emplace("rel.align_concat", "bound", bound);
  const size_t pg = pb;
  const size_t pm2 = util::pow2_ceil(pr + pg);
  vec<Elem> gmv(pm2);
  const slice<Elem> gm = gmv.s();
  kernel::generate_range(
      gm, 0, pm2, kernel::Tick::PerElem, [&](Elem& e, size_t i) {
        if (i < nr) {  // source: right payload at rank i
          e.key = i;
          e.payload = rs[i].payload;
          e.aux = i;
          e.flags = 0;
          e.extra = kTagLo;
        } else if (i < pr) {
          e = Elem::filler();
        } else if (i < pr + bound) {  // receiver for output slot j
          const size_t j = i - pr;
          e.key = j + fb[j].aux;  // requested rank (ranks >= |R| miss)
          assert(e.key < (uint64_t{1} << 63));
          e.payload = 0;
          e.aux = j;
          e.flags = 0;
          e.extra = kTagRight;
        } else if (i < pr + pg) {
          e = Elem::filler();
        } else {  // key-0 pad
          e = Elem{};
          e.flags = Elem::kFiller;
        }
      });
  std::vector<uint8_t> tape_g, tape_m2;
  obl::bitonic_sort_record(gm.sub(pr, pg), tape_g, ByKeyTagIdxDesc{});
  obl::bitonic_merge_record(gm, tape_m2, ByKeyTagIdx{});

  // Ranks 0..nr-1 each have one source, and a receiver sorts after the
  // source of its rank and before the next one, so a receiver hits iff
  // its rank is below nr, and then the nearest source at or before it is
  // its match. A scan of (payload + 1, 0 = no source) hands every
  // position that payload.
  vec<uint64_t> srcv(pm2);
  const slice<uint64_t> src = srcv.s();
  kernel::generate_range(
      src, 0, pm2, kernel::Tick::PerElem, [&](uint64_t& v, size_t i) {
        const Elem e = gm[i];
        const bool is_src =
            (e.extra == kTagLo) & ((e.flags & Elem::kFiller) == 0);
        v = obl::oselect<uint64_t>(is_src, e.payload + 1, 0);
      });
  obl::scan_inclusive(src, LastSource{});
  kernel::transform_range(
      gm, 0, pm2, kernel::Tick::PerElem, [&](Elem& e, size_t i) {
        const bool is_rcv = e.extra == kTagRight;
        const bool hit = is_rcv & (e.key < nr);
        e.payload = obl::oselect<uint64_t>(hit, src[i] - 1, e.payload);
        e.flags |= obl::oselect<uint32_t>(is_rcv & !hit, Elem::kNotFound, 0);
      });
  obl::bitonic_merge_unreplay(gm, tape_m2);
  obl::bitonic_sort_unreplay(gm.sub(pr, pg), tape_g);

  kernel::generate_range(
      out, 0, bound, kernel::Tick::PerElem, [&](Elem& e, size_t j) {
        const Elem got = gm[pr + j];
        const Elem head = fb[j];
        const bool live = ((got.flags & Elem::kNotFound) == 0) &
                          (head.payload != kNoRow);
        e.key = j;
        e.payload = head.payload;
        e.aux = got.payload;
        e.flags = obl::oselect<uint32_t>(live, 0, Elem::kFiller);
        e.extra = 0;
      });
  return matched;
}

}  // namespace

std::vector<uint64_t> join_engine(const slice<Elem>& left,
                                  const slice<Elem>& right,
                                  const std::vector<JoinSlot>& slots,
                                  const slice<Elem>& out) {
  const size_t S = slots.size();
  assert(S >= 1 && S <= kMaxRelBatchSlots &&
         "rel: join slot count out of range");
  const uint64_t key_max = max_key(S);
  std::vector<size_t> lbase(S + 1), rbase(S + 1), bbase(S + 1);
  for (size_t s = 0; s < S; ++s) {
    assert(slots[s].bound < (size_t{1} << 33) &&
           "rel: per-slot join bound must be < 2^33");
    lbase[s + 1] = lbase[s] + slots[s].nl;
    rbase[s + 1] = rbase[s] + slots[s].nr;
    bbase[s + 1] = bbase[s] + slots[s].bound;
  }
  assert(left.size() == lbase[S] && right.size() == rbase[S] &&
         out.size() == bbase[S]);
  std::vector<uint64_t> matched(S, 0);
  fj::for_range(0, S, 1, [&](size_t s) {
    const JoinSlot& sl = slots[s];
    matched[s] = join_slot(left.sub(lbase[s], sl.nl),
                           right.sub(rbase[s], sl.nr),
                           out.sub(bbase[s], sl.bound),
                           sl.banded ? sl.band : 0, key_max);
  });
  return matched;
}

std::vector<uint64_t> group_by_engine(const slice<Elem>& in, Agg agg,
                                      const std::vector<GroupSlot>& slots,
                                      const slice<Elem>& out,
                                      const SorterBackend& sorter) {
  const size_t S = slots.size();
  assert(S >= 1 && S <= kMaxRelBatchSlots &&
         "rel: group-by slot count out of range");
  [[maybe_unused]] const uint64_t key_max = max_key(S);
  std::vector<size_t> ibase(S + 1), bbase(S + 1), pgbase(S + 1);
  for (size_t s = 0; s < S; ++s) {
    assert(slots[s].n < (size_t{1} << 32) &&
           "rel: per-slot group-by row count must be < 2^32");
    ibase[s + 1] = ibase[s] + slots[s].n;
    bbase[s + 1] = bbase[s] + slots[s].bound;
    pgbase[s + 1] = pgbase[s] + padded(slots[s].n);
  }
  const size_t N = ibase[S], B = bbase[S];
  assert(in.size() == N && out.size() == B);
  std::vector<uint64_t> groups(S, 0);
  if (N == 0) {
    kernel::fill_range(out, 0, B, Elem::filler(), kernel::Tick::None);
    return groups;
  }
  obs::Span span("rel.group_by", "rows", N, "bound", B);

  // Grouping sort on per-slot padded segments of composite keys: slot s's
  // rows land at the public positions [pgbase[s], pgbase[s] + n_s) in key
  // order (padding sorts to the segment tail).
  const size_t PG = pgbase[S];
  const std::vector<uint32_t> pgslot = slot_map(pgbase);
  vec<Elem> gvv(PG);
  const slice<Elem> gv = gvv.s();
  kernel::generate_range(
      gv, 0, PG, kernel::Tick::PerElem, [&](Elem& e, size_t p) {
        const uint32_t s = pgslot[p];
        const size_t local = p - pgbase[s];
        if (local < slots[s].n) {
          const size_t gi = ibase[s] + local;
          e = in[gi];
          assert(e.key <= key_max &&
                 "rel: group key above the slot ceiling");
          e.key = slot_key(s, e.key);
          e.aux = gi;
        } else {
          e = Elem::filler();
        }
      });
  sort_segments(gv, pgbase, sorter);

  // Group sizes: a parallel copy with payload 1 per live row, aggregated
  // by the same key-groups (fillers share the sentinel group, summing 0).
  // Composite key-groups never span slots, so every fold is per slot.
  vec<Elem> cntv(PG);
  const slice<Elem> cnt = cntv.s();
  kernel::generate_range(cnt, 0, PG, kernel::Tick::PerElem,
                         [&](Elem& e, size_t i) {
                           e = gv[i];
                           e.payload = (e.flags & Elem::kFiller) ? 0u : 1u;
                         });
  obl::aggregate_suffix(cnt, Add{});

  // Aggregate the values (suffix fold from each group's head covers the
  // whole group). Count needs no value pass. Public branch: the operator
  // is part of the query, not the data.
  switch (agg) {
    case Agg::Sum: obl::aggregate_suffix(gv, Add{}); break;
    case Agg::Min: obl::aggregate_suffix(gv, MinOp{}); break;
    case Agg::Max: obl::aggregate_suffix(gv, MaxOp{}); break;
    case Agg::Count: break;
  }

  // Heads carry their group's full aggregate; everything else is dropped.
  // One global exclusive head count yields the per-slot group counts at
  // the public segment boundaries (padding contributes no heads).
  vec<uint64_t> headv(PG);
  const slice<uint64_t> head = headv.s();
  kernel::generate_range(
      head, 0, PG, kernel::Tick::PerElem, [&](uint64_t& v, size_t i) {
        const Elem e = gv[i];
        const bool h = !(e.flags & Elem::kFiller) &&
                       ((i == 0) || (gv[i - 1].key != e.key));
        v = h ? 1u : 0u;
      });
  vec<uint64_t> scratchv(PG);
  const uint64_t total = obl::prefix_sum_exclusive(
      head, scratchv.s(), [](uint64_t h) { return h; });
  const std::vector<uint64_t> gbase = slot_bases(scratchv.s(), pgbase,
                                                 total);
  for (size_t s = 0; s < S; ++s) groups[s] = gbase[s + 1] - gbase[s];

  kernel::transform_range(
      gv, 0, PG, kernel::Tick::PerElem, [&](Elem& e, size_t i) {
        const uint64_t c = cnt[i].payload;
        if (agg == Agg::Count) e.payload = c;
        e.aux = c;
        e.flags |= obl::oselect<uint32_t>(head[i] != 0, 0, Elem::kFiller);
      });
  compact_segments(gv, pgbase, sorter);
  // gv[pgbase[s] .. pgbase[s] + groups_s): slot s's groups ascending by
  // key; each slot reads its first bound_s records from its own segment.

  const std::vector<uint32_t> oslot = slot_map(bbase);
  kernel::generate_range(
      out, 0, B, kernel::Tick::PerElem, [&](Elem& e, size_t j) {
        const uint32_t s = oslot[j];
        const size_t g = j - bbase[s];
        if (g >= pgbase[s + 1] - pgbase[s]) {  // public: past the segment
          e = Elem::filler();
          return;
        }
        e = gv[pgbase[s] + g];
        e.key -= slot_key(s, 0);  // composite -> group key
        e.extra = 0;
      });
  return groups;
}

}  // namespace dopar::rel::detail
