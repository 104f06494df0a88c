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
//    move to the front of the array, dead records are displaced behind
//    them. Leftward bit-by-bit shift routing: a live record's offset is
//    the number of dead records before it, offsets are non-decreasing and
//    live targets consecutive, so applying offset bits LSB-first with
//    ascending masked swaps never collides.
//
//  * distribute_monotone — the inverse direction (Goodrich-style
//    oblivious distribution), generic over the record type: records in a
//    live prefix, each carrying a target position with targets strictly
//    increasing and target >= position, spread out to their targets;
//    unfilled slots become fillers. Offset bits are applied MSB-first,
//    each round one parallel double-buffered masked select; strict
//    monotonicity keeps the routing collision-free. Oblivious bin
//    placement (obl/binplace.hpp) and rel's batched equi-join both route
//    through it.
//
// Obliviousness: every loop touches a fixed, size-determined sequence of
// positions; secret-dependent choices happen only inside branchless
// masked swaps (obl::oswap / kernel::oswap_batch_raw) and the
// unconditional tape writes. Work ticks are likewise size-determined.
//
// The network runners follow the kernel layer's native idiom (mask a
// contiguous pair run, swap it with one dispatched batch call); under an
// instrumented session they account their touches per round via
// touch_range, keeping the cache model fed without perturbing the
// comparator schedule. distribute_monotone takes the kernel layer's dual
// path: per-element ticks and touches under a grain-1 fork tree when
// instrumented, blocked memcpy + batched masked swaps natively.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "obl/elem.hpp"
#include "obl/kernel/dispatch.hpp"
#include "obl/kernel/kernel.hpp"
#include "obl/oswap.hpp"
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

/// Forward pair run with recording: tape[j] = wrong-order mask of pair
/// (xa[j], xb[j]) under direction `up`, then one batched masked swap.
template <class T, class Less>
inline void record_run(T* xa, T* xb, size_t count, bool up, uint8_t* tape,
                       const Less& less) {
  for (size_t j = 0; j < count; ++j) {
    tape[j] =
        static_cast<uint8_t>(up ? less(xb[j], xa[j]) : less(xa[j], xb[j]));
  }
  kernel::oswap_batch_raw(reinterpret_cast<unsigned char*>(xa),
                          reinterpret_cast<unsigned char*>(xb), sizeof(T),
                          sizeof(T), tape, count);
}

/// Run the rounds forward, recording every swap decision.
template <class T, class Less>
void run_recorded(const slice<T>& a, const std::vector<Round>& rounds,
                  std::vector<uint8_t>& tape, const Less& less) {
  const size_t m = a.size();
  tape.resize(rounds.size() * (m / 2));
  sim::tick(tape.size());
  const bool instr = sim::current_session() != nullptr;
  T* p = a.data();
  for (const Round& r : rounds) {
    if (instr) a.touch_range(0, m);
    uint8_t* t = tape.data() + r.pos;
    size_t w = 0;
    for (size_t s = 0; s < m; s += 2 * r.d) {
      const bool up = (s & r.k) == 0;
      record_run(p + s, p + s + r.d, r.d, up, t + w, less);
      w += r.d;
    }
  }
}

/// Exactly invert a recorded run: rounds in reverse order, swapping
/// precisely where the forward pass swapped (comparison-free).
template <class T>
void replay_inverse(const slice<T>& a, const std::vector<Round>& rounds,
                    const std::vector<uint8_t>& tape) {
  const size_t m = a.size();
  assert(tape.size() == rounds.size() * (m / 2));
  sim::tick(tape.size());
  const bool instr = sim::current_session() != nullptr;
  T* p = a.data();
  for (size_t ri = rounds.size(); ri-- > 0;) {
    const Round& r = rounds[ri];
    if (instr) a.touch_range(0, m);
    const uint8_t* t = tape.data() + r.pos;
    size_t w = 0;
    for (size_t s = 0; s < m; s += 2 * r.d) {
      kernel::oswap_batch_raw(
          reinterpret_cast<unsigned char*>(p + s),
          reinterpret_cast<unsigned char*>(p + s + r.d), sizeof(T),
          sizeof(T), t + w, r.d);
      w += r.d;
    }
  }
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

/// Order-preserving tight compaction: records with (flags & live_flag)
/// move to the front of `a` (pow2 size), keeping their relative order;
/// dead records end up behind them in unspecified order. O(m log m)
/// masked swaps. The shift chains are sequentially dependent within a
/// round, so pairs run scalar.
inline void compact_monotone(const slice<Elem>& a, uint32_t live_flag) {
  const size_t m = a.size();
  assert(util::is_pow2(m) || m == 0);
  if (m < 2) return;
  Elem* p = a.data();
  const bool instr = sim::current_session() != nullptr;
  if (instr) a.touch_range(0, m);
  // Offset of a live record = number of dead records before it.
  std::vector<uint64_t> d(m);
  uint64_t dead = 0;
  for (size_t i = 0; i < m; ++i) {
    d[i] = dead;
    dead += static_cast<uint64_t>((p[i].flags & live_flag) == 0);
  }
  sim::tick(m);
  // LSB-first leftward shifts; consecutive live targets never collide.
  unsigned bit = 0;
  for (size_t step = 1; step < m; step <<= 1, ++bit) {
    if (instr) a.touch_range(0, m);
    sim::tick(m - step);
    for (size_t i = step; i < m; ++i) {
      const bool sw =
          ((p[i].flags & live_flag) != 0) & (((d[i] >> bit) & 1) != 0);
      oswap(p[i - step], p[i], sw);
      oswap(d[i - step], d[i], sw);
    }
  }
}

namespace route_detail {

/// Routing tag of a slot during distribute_monotone: (remaining offset <<
/// 1) | live. A dead slot's tag is 0, so it never moves.
inline bool tag_moves(uint64_t tag, unsigned sh) { return (tag >> sh) & 1; }

/// One MSB-first distribution round with step `step` (offset bit sh - 1),
/// double-buffered src -> dst: slot i receives src[i - step] if that
/// record moves, else keeps src[i] (whose tag is cleared if it leaves).
/// The routing invariant guarantees an arriving record never lands on a
/// record that stays.
template <class T>
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
      if (i >= step) {  // public index test
        tp = ts[i - step];
        prev = src[i - step];
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
  // out bytes land in src, which the next round (or distribute_monotone's
  // final pass) overwrites.
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
      for (size_t k = 0; k < cnt; ++k) {
        const uint64_t t = tsp[c0 + k];
        const uint64_t mv = tag_moves(t, sh);
        mask[k] = static_cast<unsigned char>(mv);
        uint64_t& dt = tdp[c0 + k + step];
        dt = (dt & (mv - 1)) | (t & (0 - mv));
      }
      kernel::oswap_batch_raw(reinterpret_cast<unsigned char*>(d + c0 + step),
                              reinterpret_cast<unsigned char*>(s + c0),
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

}  // namespace dopar::obl
