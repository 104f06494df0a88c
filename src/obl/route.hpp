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
// The recorded networks run on the kernel layer's bitonic round runner
// (kernel::for_rounds, with run_pairs in its Record and Replay modes) on
// both paths: every round forks, and rounds that fit one L1 tile run tile
// by tile. Under an instrumented session the leaves are a constant run of
// pairs that tick and touch_range exactly the records they swap, so the
// cost model sees O(log m) span per round without perturbing the
// comparator schedule.
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

/// Run the network forward, recording every swap decision: tape byte
/// r.pos + w is the wrong-order mask of round r's pair w.
template <class T, class Less>
void run_recorded(const slice<T>& a, const kernel::Network& net,
                  std::vector<uint8_t>& tape, const Less& less) {
  tape.resize(net.rounds() * (a.size() / 2));
  kernel::for_rounds<kernel::Pairs::Record>(a, net, false, tape.data(),
                                            less);
}

/// Exactly invert a recorded run: rounds in reverse order, swapping
/// precisely where the forward pass swapped (comparison-free).
template <class T>
void replay_inverse(const slice<T>& a, const kernel::Network& net,
                    const std::vector<uint8_t>& tape) {
  assert(tape.size() == net.rounds() * (a.size() / 2));
  const auto no_compare = [](const T&, const T&) { return false; };
  kernel::for_rounds<kernel::Pairs::Replay>(a, net, true, tape.data(),
                                            no_compare);
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
  route_detail::run_recorded(a, kernel::Network::sort(a.size(), true), tape,
                             less);
}

/// Undo a recorded bitonic sort: every record returns to its pre-sort
/// position (carrying any value updates made while sorted).
template <class T>
void bitonic_sort_unreplay(const slice<T>& a,
                           const std::vector<uint8_t>& tape) {
  if (a.size() < 2) return;
  route_detail::replay_inverse(a, kernel::Network::sort(a.size(), true),
                               tape);
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
  route_detail::run_recorded(a, kernel::Network::merge(a.size(), true), tape,
                             less);
}

/// Undo a recorded bitonic merge.
template <class T>
void bitonic_merge_unreplay(const slice<T>& a,
                            const std::vector<uint8_t>& tape) {
  if (a.size() < 2) return;
  route_detail::replay_inverse(a, kernel::Network::merge(a.size(), true),
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
    fj::for_range(0, m, fj::kDefaultGrain, [&](size_t i) {
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
  fj::for_range(0, m, fj::kDefaultGrain, [&](size_t i) {
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
  fj::for_range(0, m, fj::kDefaultGrain, [&](size_t i) {
    sim::tick(1);
    Elem e = src[i];
    e.flags &= ~oselect<uint32_t>((ts[i] & 1) != 0, 0, live_flag);
    a[i] = e;
  });
}

}  // namespace dopar::obl
