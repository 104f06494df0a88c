#pragma once
// Oblivious monotone routing and recorded comparator networks.
//
// Building blocks that move records for O(m log m) masked swaps instead of
// a second full sort, for pipelines that know more about their permutation
// than "sort by this key again":
//
//  * recorded networks — run the fixed bitonic sort / bitonic merge
//    comparator schedule while saving each comparator's secret swap
//    decision (one tape byte per comparator, written unconditionally).
//    The network's permutation can then be inverted *exactly* by
//    replaying the masks in reverse round order: a pipeline sorts into a
//    convenient working order, computes, and routes every record back to
//    its public home for the cost of comparison-free masked swaps.
//
//  * compact_monotone — order-preserving tight compaction: live records
//    move to the front of the array. Leftward bit-by-bit shift routing: a
//    live record's offset is the number of dead records before it,
//    offsets are non-decreasing and live targets consecutive, so applying
//    offset bits LSB-first never collides; each round is one parallel
//    double-buffered masked select.
//
//  * distribute_monotone — the inverse direction (Goodrich-style
//    oblivious distribution), generic over the record type: records in a
//    live prefix, each carrying a target position with targets strictly
//    increasing and target >= position, spread out to their targets;
//    unfilled slots become fillers. Offset bits are applied MSB-first,
//    each round one parallel double-buffered masked select; strict
//    monotonicity keeps the routing collision-free. Oblivious bin
//    placement (obl/binplace.hpp) and rel's join both route through it.
//
// Obliviousness: every loop touches a fixed, size-determined sequence of
// positions; secret-dependent choices happen only inside branchless
// masked swaps (obl::oswap / kernel::oswap_batch_raw) and the
// unconditional tape writes. Work ticks are likewise size-determined.
//
// The network runners follow the kernel layer's native idiom (mask a
// pair run, swap it with one dispatched batch call) on both paths: every
// round forks, and rounds that fit one L1 tile run tile by tile. Under an
// instrumented session the leaves are a constant run of pairs that tick
// and touch_range exactly the records they swap, so the cost model sees
// O(log m) span per round without perturbing the comparator schedule.
// distribute_monotone and compact_monotone take the kernel layer's dual
// path: per-element ticks and touches under a grain-1 fork tree when
// instrumented, blocked memcpy + batched masked swaps natively.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "forkjoin/api.hpp"
#include "obl/elem.hpp"
#include "obl/kernel/dispatch.hpp"
#include "obl/kernel/kernel.hpp"
#include "obl/oswap.hpp"
#include "obl/scan.hpp"
#include "sim/session.hpp"
#include "sim/tracked.hpp"
#include "util/bits.hpp"

namespace dopar::obl {

namespace route_detail {

/// One all-pairs round of a comparator network on m records: every i with
/// (i & d) == 0 pairs with i + d (m/2 comparators). `k` is the bitonic
/// sort stage size fixing pair directions ((s & k) == 0 means ascending);
/// merge rounds use k = 0 (always ascending). `pos` is the round's tape
/// offset (round index * m/2).
struct Round {
  size_t k;
  size_t d;
  size_t pos;
};

/// Rounds of the full bitonic sorting network (ascending), in execution
/// order. O(log^2 m) entries.
inline std::vector<Round> sort_rounds(size_t m) {
  std::vector<Round> r;
  size_t pos = 0;
  for (size_t k = 2; k <= m; k <<= 1) {
    for (size_t d = k >> 1; d >= 1; d >>= 1) {
      r.push_back({k, d, pos});
      pos += m / 2;
    }
  }
  return r;
}

/// Rounds of one ascending bitonic merger. O(log m) entries.
inline std::vector<Round> merge_rounds(size_t m) {
  std::vector<Round> r;
  size_t pos = 0;
  for (size_t d = m >> 1; d >= 1; d >>= 1) {
    r.push_back({0, d, pos});
    pos += m / 2;
  }
  return r;
}

/// Pairs per forked leaf of an instrumented recorded round: the
/// bitonic_ca analytic base. A fork per comparator would roughly double
/// the network's analytic work; a constant run keeps the round's span at
/// O(log m) while adding one join per eight comparators.
inline constexpr size_t kRecordLeafPairs = 8;

/// Fork [lo, hi) in halves down to runs of at most `grain`, then f(lo, hi).
/// Unlike fj::for_blocks the grain also holds under a session, so the
/// instrumented fork tree stops at a constant run of pairs.
template <class F>
void fork_leaves(size_t lo, size_t hi, size_t grain, const F& f) {
  if (hi - lo <= grain) {
    f(lo, hi);
    return;
  }
  const size_t mid = lo + (hi - lo) / 2;
  fj::invoke([&] { fork_leaves(lo, mid, grain, f); },
             [&] { fork_leaves(mid, hi, grain, f); });
}

/// The round's pairs [w0, w1): pair w joins element (w / d) * 2d + w % d
/// with the element d above it, ascending iff that element's k-block is
/// even, and its tape byte is tape[r.pos + w]. Recording writes each
/// pair's wrong-order mask there; a replay reads it. Either way the
/// masked swaps run as batches: contiguous pair runs, or — natively,
/// when the runs are shorter than their count — one strided batch per
/// offset inside the run, as kernel::tile_stage_native does. Under a
/// session every pair is ticked and its two records touched.
template <bool Record, class T, class Byte, class Less>
void run_pairs(const slice<T>& a, const Round& r, size_t w0, size_t w1,
               Byte* tape, const Less& less) {
  T* p = a.data();
  const size_t d = r.d;
  Byte* t = tape + r.pos;
  const auto mask_of = [&](const T& x, const T& y, size_t s, size_t w) {
    if constexpr (Record) {
      t[w] = static_cast<uint8_t>((s & r.k) == 0 ? less(y, x) : less(x, y));
    }
    return t[w];
  };
  const bool instr = sim::current_session() != nullptr;
  if (instr || d >= (w1 - w0) / d) {
    if (instr) sim::tick(w1 - w0);
    for (size_t w = w0; w < w1;) {
      const size_t s = (w / d) * 2 * d;  // the pair run's first element
      const size_t o = w % d;
      const size_t cnt = std::min(d - o, w1 - w);
      if (instr) {
        a.touch_range(s + o, cnt);
        a.touch_range(s + d + o, cnt);
      }
      T* xa = p + s + o;
      for (size_t j = 0; j < cnt; ++j) mask_of(xa[j], xa[j + d], s, w + j);
      kernel::oswap_batch_raw(reinterpret_cast<unsigned char*>(xa),
                              reinterpret_cast<unsigned char*>(xa + d),
                              sizeof(T), sizeof(T), t + w, cnt);
      w += cnt;
    }
    return;
  }
  // Native, short runs: [w0, w1) covers whole runs (w0 and the leaf size
  // are multiples of d). Offset o of runs k0.. is one stride-2d batch.
  unsigned char mask[kernel::kMaskChunk];
  for (size_t o = 0; o < d; ++o) {
    for (size_t k0 = w0 / d; k0 < w1 / d; k0 += kernel::kMaskChunk) {
      const size_t cnt = std::min(kernel::kMaskChunk, w1 / d - k0);
      T* base = p + k0 * 2 * d + o;
      for (size_t j = 0; j < cnt; ++j) {
        const size_t k = k0 + j;
        mask[j] = mask_of(base[j * 2 * d], base[j * 2 * d + d], k * 2 * d,
                          k * d + o);
      }
      kernel::oswap_batch_raw(reinterpret_cast<unsigned char*>(base),
                              reinterpret_cast<unsigned char*>(base + d),
                              sizeof(T), 2 * d * sizeof(T), mask, cnt);
    }
  }
}

/// Execute the rounds (in reverse order when `reverse`), handing every
/// pair range to leaf(round, w0, w1). A round whose comparators span more
/// than one kernel::tile_elems<T>() tile forks its pairs on its own.
/// Consecutive rounds that act inside aligned tiles run tile by tile: the
/// tiles fork, and each tile takes all of those rounds before the next
/// tile is loaded. Native leaves are one tile's pairs, run serially;
/// instrumented leaves are kRecordLeafPairs pairs. Rounds touch disjoint
/// pairs, so every schedule computes the same bytes.
template <class T, class Leaf>
void for_rounds(const slice<T>& a, const std::vector<Round>& rounds,
                bool reverse, const Leaf& leaf) {
  const size_t m = a.size();
  const size_t n = rounds.size();
  const size_t tile = std::min(kernel::tile_elems<T>(), m);
  const size_t grain =
      sim::current_session() != nullptr ? kRecordLeafPairs : tile / 2;
  const auto at = [&](size_t i) -> const Round& {
    return rounds[reverse ? n - 1 - i : i];
  };
  for (size_t i = 0; i < n;) {
    if (2 * at(i).d > tile) {
      const Round& r = at(i);
      fork_leaves(0, m / 2, grain,
                  [&](size_t w0, size_t w1) { leaf(r, w0, w1); });
      ++i;
      continue;
    }
    size_t j = i + 1;
    while (j < n && 2 * at(j).d <= tile) ++j;
    fj::for_range(0, m / tile, 1, [&](size_t t) {
      const size_t w0 = t * (tile / 2);
      for (size_t q = i; q < j; ++q) {
        const Round& r = at(q);
        fork_leaves(w0, w0 + tile / 2, grain,
                    [&](size_t u0, size_t u1) { leaf(r, u0, u1); });
      }
    });
    i = j;
  }
}

/// Run the rounds forward, recording every swap decision: tape byte
/// r.pos + w is the wrong-order mask of the round's pair w.
template <class T, class Less>
void run_recorded(const slice<T>& a, const std::vector<Round>& rounds,
                  std::vector<uint8_t>& tape, const Less& less) {
  tape.resize(rounds.size() * (a.size() / 2));
  for_rounds(a, rounds, false, [&](const Round& r, size_t w0, size_t w1) {
    run_pairs<true>(a, r, w0, w1, tape.data(), less);
  });
}

/// Exactly invert a recorded run: rounds in reverse order, swapping
/// precisely where the forward pass swapped (comparison-free).
template <class T>
void replay_inverse(const slice<T>& a, const std::vector<Round>& rounds,
                    const std::vector<uint8_t>& tape) {
  assert(tape.size() == rounds.size() * (a.size() / 2));
  const auto no_compare = [](const T&, const T&) { return false; };
  for_rounds(a, rounds, true, [&](const Round& r, size_t w0, size_t w1) {
    run_pairs<false>(a, r, w0, w1, tape.data(), no_compare);
  });
}

}  // namespace route_detail

/// Sort `a` (pow2 size) ascending by `less` with the fixed bitonic
/// network, recording the swap tape for later inversion.
template <class T, class Less>
void bitonic_sort_record(const slice<T>& a, std::vector<uint8_t>& tape,
                         const Less& less) {
  assert(util::is_pow2(a.size()) || a.size() == 0);
  if (a.size() < 2) {
    tape.clear();
    return;
  }
  route_detail::run_recorded(a, route_detail::sort_rounds(a.size()), tape,
                             less);
}

/// Undo a recorded bitonic sort: every record returns to its pre-sort
/// position (carrying any value updates made while sorted).
template <class T>
void bitonic_sort_unreplay(const slice<T>& a,
                           const std::vector<uint8_t>& tape) {
  if (a.size() < 2) return;
  route_detail::replay_inverse(a, route_detail::sort_rounds(a.size()), tape);
}

/// Merge a bitonic sequence (non-decreasing then non-increasing under
/// `less`) ascending, recording the swap tape for later inversion.
template <class T, class Less>
void bitonic_merge_record(const slice<T>& a, std::vector<uint8_t>& tape,
                          const Less& less) {
  assert(util::is_pow2(a.size()) || a.size() == 0);
  if (a.size() < 2) {
    tape.clear();
    return;
  }
  route_detail::run_recorded(a, route_detail::merge_rounds(a.size()), tape,
                             less);
}

/// Undo a recorded bitonic merge.
template <class T>
void bitonic_merge_unreplay(const slice<T>& a,
                            const std::vector<uint8_t>& tape) {
  if (a.size() < 2) return;
  route_detail::replay_inverse(a, route_detail::merge_rounds(a.size()),
                               tape);
}

namespace route_detail {

/// Routing tag of a slot during distribute_monotone: (remaining offset <<
/// 1) | live. A dead slot's tag is 0, so it never moves.
inline bool tag_moves(uint64_t tag, unsigned sh) { return (tag >> sh) & 1; }

/// One routing round with step `step` (offset bit sh - 1), double-
/// buffered src -> dst: slot i receives src[i - step] (src[i + step] when
/// `Left`) if that record moves, else keeps src[i] (whose tag is cleared
/// if it leaves). The routing invariant guarantees an arriving record
/// never lands on a record that stays.
template <bool Left = false, class T>
void shift_round(const slice<T>& src, const slice<uint64_t>& ts,
                 const slice<T>& dst, const slice<uint64_t>& td, size_t step,
                 unsigned sh) {
  const size_t m = src.size();
  if (kernel::instrumented()) {
    kernel::for_each(0, m, [&](size_t i) {
      sim::tick(1);
      const uint64_t t = ts[i];
      const T cur = src[i];
      uint64_t tp = 0;
      T prev = cur;
      if (Left ? i + step < m : i >= step) {  // public index test
        const size_t j = Left ? i + step : i - step;
        tp = ts[j];
        prev = src[j];
      }
      const bool in = tag_moves(tp, sh);
      const uint64_t stay = t & (uint64_t{tag_moves(t, sh)} - 1);
      dst[i] = oselect(in, prev, cur);
      td[i] = oselect(in, tp, stay);
    });
    return;
  }
  // Native: copy every slot and drop leaving tags, then swap each moving
  // record into its destination with batched masked swaps. The swapped-
  // out bytes land in src, which the next round (or the caller's final
  // pass) overwrites. Pair c is (mover, destination) = (c, c + step), or
  // (c + step, c) when `Left`.
  T* s = src.data();
  T* d = dst.data();
  const uint64_t* tsp = ts.data();
  uint64_t* tdp = td.data();
  fj::for_blocks(0, m, fj::kDefaultGrain, [&](size_t b0, size_t b1) {
    std::memcpy(d + b0, s + b0, (b1 - b0) * sizeof(T));
    for (size_t i = b0; i < b1; ++i) {
      tdp[i] = tsp[i] & (uint64_t{tag_moves(tsp[i], sh)} - 1);
    }
  });
  fj::for_blocks(0, m - step, fj::kDefaultGrain, [&](size_t b0, size_t b1) {
    unsigned char mask[kernel::kMaskChunk];
    for (size_t c0 = b0; c0 < b1; c0 += kernel::kMaskChunk) {
      const size_t cnt = std::min(kernel::kMaskChunk, b1 - c0);
      const size_t from = Left ? c0 + step : c0;
      const size_t to = Left ? c0 : c0 + step;
      for (size_t k = 0; k < cnt; ++k) {
        const uint64_t t = tsp[from + k];
        const uint64_t mv = tag_moves(t, sh);
        mask[k] = static_cast<unsigned char>(mv);
        uint64_t& dt = tdp[to + k];
        dt = (dt & (mv - 1)) | (t & (0 - mv));
      }
      kernel::oswap_batch_raw(reinterpret_cast<unsigned char*>(d + to),
                              reinterpret_cast<unsigned char*>(s + from),
                              sizeof(T), sizeof(T), mask, cnt);
    }
  });
}

}  // namespace route_detail

/// Oblivious monotone distribution (Goodrich-style): the live records of
/// `a` (pow2 size m) form a prefix, each carrying a target position
/// target(r) with targets strictly increasing and target >= position.
/// Every live record moves to its target; unfilled slots become
/// `filler`. log m MSB-first rounds, each a parallel double-buffered
/// masked select: O(m log m) work, O(log^2 m) span.
template <class T, class LiveFn, class TargetFn>
void distribute_monotone(const slice<T>& a, const LiveFn& live,
                         const TargetFn& target, const T& filler) {
  const size_t m = a.size();
  assert(util::is_pow2(m) || m == 0);
  if (m == 0) return;
#ifndef NDEBUG
  for (size_t i = 0; i < m; ++i) {
    if (!live(a.raw(i))) continue;
    assert(i == 0 || live(a.raw(i - 1)));  // live prefix
    assert(target(a.raw(i)) >= i && target(a.raw(i)) < m);
    assert(i == 0 || target(a.raw(i)) > target(a.raw(i - 1)));
  }
#endif
  vec<uint64_t> tag0(m);
  vec<uint64_t> tag1(m);
  vec<T> bufv(m);
  slice<T> src = a;
  slice<T> dst = bufv.s();
  slice<uint64_t> ts = tag0.s();
  slice<uint64_t> td = tag1.s();
  kernel::generate_range(ts, 0, m, kernel::Tick::PerElem,
                         [&](uint64_t& t, size_t i) {
                           const T r = a[i];
                           t = oselect<uint64_t>(
                               live(r), ((target(r) - i) << 1) | 1, 0);
                         });
  // Strictly increasing targets over a live prefix make the offsets non-
  // decreasing, so after the rounds for bits > b the live records sit at
  // strictly increasing positions target - (offset mod 2^b): no round
  // ever lands a record on one that stays.
  for (size_t step = m >> 1; step > 0; step >>= 1) {
    route_detail::shift_round(src, ts, dst, td, step,
                              util::log2_exact(step) + 1);
    std::swap(src, dst);
    std::swap(ts, td);
  }
  kernel::for_each(0, m, [&](size_t i) {
    sim::tick(1);
    a[i] = oselect((ts[i] & 1) != 0, src[i], filler);
  });
}

/// Order-preserving tight compaction: records with (flags & live_flag)
/// move to the front of `a` (pow2 size m), keeping their relative order.
/// A live record's offset is the number of dead records before it (one
/// scan); offsets are non-decreasing and live targets consecutive, so
/// applying offset bits LSB-first never lands a record on one that stays.
/// log m leftward rounds, each a parallel double-buffered masked select
/// (distribute_monotone's round run the other way): O(m log m) work,
/// O(log^2 m) span. Dead records are not preserved: the tail holds
/// unspecified records with live_flag cleared.
inline void compact_monotone(const slice<Elem>& a, uint32_t live_flag) {
  const size_t m = a.size();
  assert(util::is_pow2(m) || m == 0);
  if (m < 2) return;
  vec<uint64_t> tag0(m);
  vec<uint64_t> tag1(m);
  vec<Elem> bufv(m);
  slice<Elem> src = a;
  slice<Elem> dst = bufv.s();
  slice<uint64_t> ts = tag0.s();
  slice<uint64_t> td = tag1.s();
  // Inclusive dead count; at a live record it equals the dead count
  // before it.
  kernel::generate_range(ts, 0, m, kernel::Tick::PerElem,
                         [&](uint64_t& t, size_t i) {
                           t = (a[i].flags & live_flag) == 0;
                         });
  scan_inclusive(ts, [](uint64_t x, uint64_t y) { return x + y; });
  kernel::transform_range(ts, 0, m, kernel::Tick::PerElem,
                          [&](uint64_t& t, size_t i) {
                            const bool live = (a[i].flags & live_flag) != 0;
                            t = oselect<uint64_t>(live, (t << 1) | 1, 0);
                          });
  for (size_t step = 1; step < m; step <<= 1) {
    route_detail::shift_round</*Left=*/true>(src, ts, dst, td, step,
                                             util::log2_exact(step) + 1);
    std::swap(src, dst);
    std::swap(ts, td);
  }
  kernel::for_each(0, m, [&](size_t i) {
    sim::tick(1);
    Elem e = src[i];
    e.flags &= ~oselect<uint32_t>((ts[i] & 1) != 0, 0, live_flag);
    a[i] = e;
  });
}

}  // namespace dopar::obl
