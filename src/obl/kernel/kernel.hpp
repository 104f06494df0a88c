#pragma once
// The comparator-kernel layer: batch data-movement primitives shared by
// every sort engine and masked-write pass in dopar.
//
// Each API here has two execution paths chosen per call:
//
//   * instrumented (a sim::Session is installed): a byte-exact replication
//     of the historical per-element loops — same sim::tick calls, same
//     slice::operator[] touches, in the same order, under the same grain-1
//     binary fork tree. Analytic work/span/cache numbers and ORP trace
//     digests are therefore bit-for-bit unchanged by this layer.
//   * native (no session): tight serial loops over raw pointers — whole
//     comparator rounds per call and memmove bulk copies. A comparator
//     round on records of at most kInlineBytes compares and swaps each
//     pair in one inline pass (obl::oswap's word path); on larger records
//     it stages the masks first and swaps them with one batched oswap, the
//     runtime-dispatched SIMD kernels of dispatch.hpp.
//
// Bitonic networks have one native executor, the round runner below
// (Network, for_rounds, run_pairs): the native sorts and merges of every
// bitonic sorter (obl/bitonic.hpp's bitonic_sort_native) and the recorded
// sorts and merges of obl/route.hpp all run their rounds through it. A round
// whose comparators span more than one L1 tile (kL1TileBytes: 512 Elem,
// 256 BinItem<Routed>) forks its pairs; consecutive rounds inside aligned
// tiles run tile by tile, so a tile is loaded once for all of them. A
// fork on the real pool costs about 100 ns, so a native leaf is one
// tile's pairs, run serially. The instrumented comparator schedules (the
// fork-per-comparator recursions and bitonic_ca's serial butterfly) keep
// their historical shape because the paper's work/span/cache analysis,
// the committed analytic snapshots and the trace digests are all stated
// over them, not over the native schedule.
//
// The dual-path rule is safe because a comparator network is a fixed
// function of n: the set of (i, j, dir) comparators is identical on both
// paths, and comparators within a round touch disjoint pairs, so any
// execution order computes the same bytes. Only the *accounting* needs the
// historical order — and the instrumented path keeps it exactly.
//
// Loop-shape note: fj::for_range(lo, hi, g, f) and fj::for_blocks(lo, hi,
// g, body) force g = 1 under a session and split ranges identically, so a
// for_range call site converted to for_blocks + serial inner loop yields
// the *same* binary fork tree and the same leaf sequence when instrumented
// — that conversion is the mechanical part of routing a call site through
// this layer.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "forkjoin/api.hpp"
#include "obl/kernel/dispatch.hpp"
#include "obl/oswap.hpp"
#include "sim/session.hpp"
#include "sim/tracked.hpp"
#include "util/bits.hpp"

namespace dopar::obl::kernel {

/// Whether calls on this thread currently take the instrumented path.
inline bool instrumented() { return sim::current_session() != nullptr; }

/// Whether a per-element sim::tick(1) is charged on the instrumented path.
/// Mirrors the historical call sites: comparator loops and most scan loops
/// tick once per element; pure data shuffles (final copies, stamp loops)
/// never ticked.
enum class Tick { None, PerElem };

/// Native-path staging chunk: masks for this many record pairs are computed
/// per batched oswap call (records above kInlineBytes; smaller ones swap
/// each pair inline). Small enough to live on the stack, large enough to
/// amortize the dispatch indirection.
inline constexpr size_t kMaskChunk = 512;

/// Native round tiling: consecutive bitonic rounds with comparator
/// distance below the tile run back-to-back over blocks of about this many
/// bytes so the block stays L1-resident across rounds.
inline constexpr size_t kL1TileBytes = 16 * 1024;

/// Tile size in elements for round tiling (power of two, >= 2).
template <class T>
constexpr size_t tile_elems() {
  const size_t e = kL1TileBytes / sizeof(T);
  return e < 2 ? size_t{2} : util::pow2_floor(e);
}

namespace detail {

/// Native path: strided pairs (p[i], p[i+gap]) for i = first, first+step, …
/// while i + gap < end. Always ascending (the odd-even network's form).
template <class T, class Less>
inline void strided_run_native(T* p, size_t first, size_t end, size_t gap,
                               size_t step, const Less& less) {
  unsigned char mask[kMaskChunk];
  size_t i = first;
  while (i + gap < end) {
    const size_t chunk_start = i;
    size_t cnt = 0;
    for (; cnt < kMaskChunk && i + gap < end; ++cnt, i += step) {
      mask[cnt] = static_cast<unsigned char>(less(p[i + gap], p[i]));
    }
    oswap_batch_raw(reinterpret_cast<unsigned char*>(p + chunk_start),
                    reinterpret_cast<unsigned char*>(p + chunk_start + gap),
                    sizeof(T), step * sizeof(T), mask, cnt);
  }
}

}  // namespace detail

/// One comparator: orders a[i], a[j] ascending iff `up`. One tick of work
/// and span. The unit every instrumented comparator schedule reduces to.
template <class T, class Less>
inline void cex_pair(const slice<T>& a, size_t i, size_t j, bool up,
                     const Less& less) {
  sim::tick(1);
  T x = a[i];
  T y = a[j];
  const bool wrong = up ? less(y, x) : less(x, y);
  oswap(x, y, wrong);
  a[i] = x;
  a[j] = y;
}

/// Comparators (i, i+gap) ascending for i = first, first+step, … while
/// i + gap < end — Batcher odd-even merge's interior round. Serial (the
/// historical site ran it serially inside an already-forked merge).
template <class T, class Less>
void cex_strided(const slice<T>& a, size_t first, size_t end, size_t gap,
                 size_t step, const Less& less) {
  assert(step > gap);
  if (instrumented()) {
    for (size_t i = first; i + gap < end; i += step) {
      cex_pair(a, i, i + gap, /*up=*/true, less);
    }
    return;
  }
  detail::strided_run_native(a.data(), first, end, gap, step, less);
}

// ---- the bitonic round runner -------------------------------------------

/// One all-pairs round of a bitonic network on m records: every i with
/// (i & d) == 0 pairs with i + d (m/2 comparators). The pair run starting
/// at element s ascends iff ((s | top) & k) == 0: k is the merge stage
/// (block size) the round belongs to, and top is 0 for an ascending
/// network or m for a descending one, which flips exactly the top stage's
/// blocks. `pos` is the round's tape offset (round index * m/2).
struct Round {
  size_t k;
  size_t d;
  size_t top;
  size_t pos;
  bool ascends(size_t s) const { return ((s | top) & k) == 0; }
};

/// The rounds of a bitonic network on m records (m a power of two >= 2):
/// merge stages k = k0, 2 k0, …, m, each of rounds d = k/2, …, 1. A full
/// sort starts at k0 = 2 (the naive recursion's comparators: lower stages
/// ascend on even blocks, the top stage in `up`); one merge is the single
/// stage k0 = m. Rounds are stepped through in place, so running a network
/// allocates nothing.
struct Network {
  size_t m;
  size_t k0;
  bool up;

  static Network sort(size_t m, bool up) { return {m, 2, up}; }
  static Network merge(size_t m, bool up) { return {m, m, up}; }

  size_t rounds() const {
    const size_t a = util::log2_exact(k0);
    const size_t b = util::log2_exact(m);
    return (b * (b + 1) - (a - 1) * a) / 2;
  }
  Round first() const { return {k0, k0 / 2, up ? 0 : m, 0}; }
  Round last() const { return {m, 1, up ? 0 : m, (rounds() - 1) * (m / 2)}; }
  /// The round after r in execution order.
  Round next(const Round& r) const {
    return r.d > 1 ? Round{r.k, r.d / 2, r.top, r.pos + m / 2}
                   : Round{2 * r.k, r.k, r.top, r.pos + m / 2};
  }
  /// The round before r in execution order.
  Round prev(const Round& r) const {
    return 2 * r.d < r.k ? Round{r.k, 2 * r.d, r.top, r.pos - m / 2}
                         : Round{r.k / 2, 1, r.top, r.pos - m / 2};
  }
};

/// Pairs per forked leaf of an instrumented round: the bitonic_ca analytic
/// base. A fork per comparator would roughly double the network's analytic
/// work; a constant run keeps the round's span at O(log m) while adding
/// one join per eight comparators.
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

/// How run_pairs gets a pair's swap mask: compare the records, compare and
/// write the mask to the tape, or read it back from the tape.
enum class Pairs { Compare, Record, Replay };

namespace detail {

/// mask[j] for j < cnt: the wrong-order mask of the pair (x[j * step],
/// x[j * step + d]) ordered ascending iff up(j), whose tape byte is
/// t[j * tstep]. Every operand is a value, so the mask stores (which may
/// alias anything) force no reloads.
template <Pairs Mode, class T, class Byte, class Less, class Up>
void pair_masks(unsigned char* mask, const T* x, size_t step, size_t d,
                size_t cnt, Byte* t, size_t tstep, const Less& less, Up up) {
  for (size_t j = 0; j < cnt; ++j) {
    if constexpr (Mode == Pairs::Replay) {
      mask[j] = t[j * tstep];
    } else {
      const T& lo = x[j * step];
      const T& hi = x[j * step + d];
      mask[j] =
          static_cast<unsigned char>(up(j) ? less(hi, lo) : less(lo, hi));
      if constexpr (Mode == Pairs::Record) t[j * tstep] = mask[j];
    }
  }
}

/// Order the cnt pairs (x[j * step], x[j * step + d]) as pair_masks
/// describes, in one pass: each pair is loaded into values, its mask
/// computed (or read from the tape), the values swapped with obl::oswap
/// and stored back. For records of at most kInlineBytes, whose oswap is
/// the inline word loop.
template <Pairs Mode, class T, class Byte, class Less, class Up>
void swap_pairs(T* x, size_t step, size_t d, size_t cnt, Byte* t,
                size_t tstep, const Less& less, Up up) {
  for (size_t j = 0; j < cnt; ++j) {
    T lo = x[j * step];
    T hi = x[j * step + d];
    const bool wrong = [&] {
      if constexpr (Mode == Pairs::Replay) {
        return t[j * tstep] != 0;
      } else {
        return up(j) ? less(hi, lo) : less(lo, hi);
      }
    }();
    if constexpr (Mode == Pairs::Record) {
      t[j * tstep] = static_cast<unsigned char>(wrong);
    }
    oswap(lo, hi, wrong);
    x[j * step] = lo;
    x[j * step + d] = hi;
  }
}

}  // namespace detail

/// The round's pairs [w0, w1): pair w joins element (w / d) * 2d + w % d
/// with the element d above it, in its run's direction (Round::ascends).
/// Its tape byte, in the Record and Replay modes, is tape[r.pos + w];
/// Compare mode writes no tape. Pairs go in batches of up to kMaskChunk:
/// a contiguous pair run, or — natively, when the runs are shorter than
/// their count — one stride-2d batch per offset inside the run. When
/// `instr` (a session is installed) every pair is ticked and its two
/// records touched.
template <Pairs Mode, class T, class Byte, class Less>
void run_pairs(const slice<T>& a, const Round& r, size_t w0, size_t w1,
               Byte* tape, const Less& less, bool instr) {
  T* p = a.data();
  const size_t d = r.d;
  const unsigned lg = util::log2_exact(d);  // shifts, not divisions
  // Natively, records of at most kInlineBytes take detail::swap_pairs' one
  // pass. Larger records, whose oswap_batch_raw vector kernels beat the
  // word loop, and every record under a session (the staged path is the
  // reference the one pass is tested against) stage the masks on the
  // stack and swap them as one batch.
  const bool one_pass = sizeof(T) <= kInlineBytes && !instr;
  unsigned char mask[kMaskChunk];
  // A batch of cnt pairs (x[j * step], x[j * step + d]): pair j's run
  // starts at element s0 + j * step, and it is the round's pair
  // tw + j * tstep. A batch inside one aligned k-block (every batch of a
  // merge) has one direction and gets it as a constant.
  const auto swaps = [&](T* x, size_t step, size_t cnt, size_t s0,
                         size_t tw, size_t tstep) {
    Byte* t = Mode == Pairs::Compare ? tape : tape + r.pos + tw;
    const auto run = [&](auto up) {
      if (one_pass) {
        detail::swap_pairs<Mode>(x, step, d, cnt, t, tstep, less, up);
      } else {
        detail::pair_masks<Mode>(mask, x, step, d, cnt, t, tstep, less, up);
      }
    };
    if (((s0 ^ (s0 + (cnt - 1) * step)) & ~(r.k - 1)) != 0) {
      run([r, s0, step](size_t j) { return r.ascends(s0 + j * step); });
    } else if (r.ascends(s0)) {
      run([](size_t) { return true; });
    } else {
      run([](size_t) { return false; });
    }
    if (!one_pass) {
      oswap_batch_raw(reinterpret_cast<unsigned char*>(x),
                      reinterpret_cast<unsigned char*>(x + d), sizeof(T),
                      step * sizeof(T), mask, cnt);
    }
  };
  if (instr || ((w1 - w0) >> lg) <= d) {
    if (instr) sim::tick(w1 - w0);
    for (size_t w = w0; w < w1;) {
      const size_t s = (w >> lg) << (lg + 1);  // the pair run's first element
      const size_t o = w & (d - 1);
      const size_t cnt = std::min(std::min(d - o, w1 - w), kMaskChunk);
      if (instr) {
        a.touch_range(s + o, cnt);
        a.touch_range(s + d + o, cnt);
      }
      swaps(p + s + o, 1, cnt, s, w, 1);
      w += cnt;
    }
    return;
  }
  // Native, short runs: [w0, w1) covers whole runs (w0 and the leaf size
  // are multiples of d). Offset o of runs k0.. is one stride-2d batch.
  for (size_t o = 0; o < d; ++o) {
    for (size_t k0 = w0 >> lg; k0 < w1 >> lg; k0 += kMaskChunk) {
      const size_t cnt = std::min(kMaskChunk, (w1 >> lg) - k0);
      swaps(p + k0 * 2 * d + o, 2 * d, cnt, k0 * 2 * d, k0 * d + o, d);
    }
  }
}

/// Execute the network's rounds on a (|a| == net.m), in reverse order when
/// `reverse`, running every pair range through run_pairs in `Mode`. A
/// round whose comparators span more than one tile_elems<T>() tile forks
/// its pairs on its own. Consecutive rounds that act inside aligned tiles
/// run tile by tile: the tiles fork, and each tile takes all of those
/// rounds before the next tile is loaded. Native leaves are one tile's
/// pairs, run serially; instrumented leaves are kRecordLeafPairs pairs.
/// Rounds touch disjoint pairs, so every schedule computes the same bytes.
template <Pairs Mode, class T, class Byte, class Less>
void for_rounds(const slice<T>& a, const Network& net, bool reverse,
                Byte* tape, const Less& less) {
  const size_t m = a.size();
  assert(m == net.m);
  const size_t n = net.rounds();
  const size_t tile = std::min(tile_elems<T>(), m);
  const bool instr = instrumented();
  const size_t grain = instr ? kRecordLeafPairs : tile / 2;
  const auto step = [&](const Round& r) {
    return reverse ? net.prev(r) : net.next(r);
  };
  const auto leaf = [&](const Round& r) {
    return [&](size_t w0, size_t w1) {
      run_pairs<Mode>(a, r, w0, w1, tape, less, instr);
    };
  };
  Round r = reverse ? net.last() : net.first();
  for (size_t i = 0; i < n;) {
    if (2 * r.d > tile) {
      fork_leaves(0, m / 2, grain, leaf(r));
      ++i;
      r = step(r);
      continue;
    }
    const Round r0 = r;
    const size_t i0 = i;
    for (++i, r = step(r); i < n && 2 * r.d <= tile; ++i) r = step(r);
    fj::for_range(0, m / tile, 1, [&](size_t t) {
      const size_t w0 = t * (tile / 2);
      Round q = r0;
      for (size_t c = i0; c < i; ++c, q = step(q)) {
        fork_leaves(w0, w0 + tile / 2, grain, leaf(q));
      }
    });
  }
}

/// Run a whole network on a in compare mode: the native bitonic sorts and
/// merges, at every size.
template <class T, class Less>
void run_network(const slice<T>& a, const Network& net, const Less& less) {
  for_rounds<Pairs::Compare>(a, net, false, static_cast<uint8_t*>(nullptr),
                             less);
}

/// Parallel copy of n records: dst[d0+i] = src[s0+i]. The regions must not
/// overlap. Instrumented: per-element tracked assignments (read touch then
/// write touch, one optional tick each). Native: blockwise memmove.
template <class T, class U>
void copy_range(const slice<T>& dst, size_t d0, const slice<U>& src,
                size_t s0, size_t n, Tick tick) {
  static_assert(sizeof(T) == sizeof(U));
  if (instrumented()) {
    fj::for_blocks(0, n, fj::kDefaultGrain, [&](size_t b0, size_t b1) {
      for (size_t i = b0; i < b1; ++i) {
        if (tick == Tick::PerElem) sim::tick(1);
        dst[d0 + i] = src[s0 + i];
      }
    });
    return;
  }
  fj::for_blocks(0, n, fj::kDefaultGrain, [&](size_t b0, size_t b1) {
    std::memmove(dst.data() + d0 + b0, src.data() + s0 + b0,
                 (b1 - b0) * sizeof(T));
  });
}

/// Serial copy of n records: dst[d0+i] = src[s0+i], no fork tree — the
/// drop-in for historical *serial* copy loops (converting those to
/// for_blocks would add join costs to the analytic span). The regions must
/// not overlap. Native: one memmove.
template <class T, class U>
void copy_range_serial(const slice<T>& dst, size_t d0, const slice<U>& src,
                       size_t s0, size_t n, Tick tick) {
  static_assert(sizeof(T) == sizeof(U));
  if (instrumented()) {
    for (size_t i = 0; i < n; ++i) {
      if (tick == Tick::PerElem) sim::tick(1);
      dst[d0 + i] = src[s0 + i];
    }
    return;
  }
  std::memmove(dst.data() + d0, src.data() + s0, n * sizeof(T));
}

/// Parallel fill: a[i0+i] = val for i in [0, n).
template <class T>
void fill_range(const slice<T>& a, size_t i0, size_t n, const T& val,
                Tick tick) {
  if (instrumented()) {
    fj::for_blocks(0, n, fj::kDefaultGrain, [&](size_t b0, size_t b1) {
      for (size_t i = b0; i < b1; ++i) {
        if (tick == Tick::PerElem) sim::tick(1);
        a[i0 + i] = val;
      }
    });
    return;
  }
  fj::for_blocks(0, n, fj::kDefaultGrain, [&](size_t b0, size_t b1) {
    T* p = a.data() + i0;
    for (size_t i = b0; i < b1; ++i) p[i] = val;
  });
}

/// Serial fill: a[i0+i] = val for i in [0, n), no fork tree (see
/// copy_range_serial).
template <class T>
void fill_range_serial(const slice<T>& a, size_t i0, size_t n, const T& val,
                       Tick tick) {
  if (instrumented()) {
    for (size_t i = 0; i < n; ++i) {
      if (tick == Tick::PerElem) sim::tick(1);
      a[i0 + i] = val;
    }
    return;
  }
  T* p = a.data() + i0;
  for (size_t i = 0; i < n; ++i) p[i] = val;
}

/// Parallel read-modify-write: for each i in [lo, hi), load e = a[i], call
/// f(e, i), store a[i] = e. f may read other tracked slices; instrumented
/// runs see those touches between a[i]'s read and write touch, exactly as
/// the historical open-coded loops did. Native runs mutate in place.
template <class T, class F>
void transform_range(const slice<T>& a, size_t lo, size_t hi, Tick tick,
                     F&& f) {
  if (instrumented()) {
    fj::for_blocks(lo, hi, fj::kDefaultGrain, [&](size_t b0, size_t b1) {
      for (size_t i = b0; i < b1; ++i) {
        if (tick == Tick::PerElem) sim::tick(1);
        T e = a[i];
        f(e, i);
        a[i] = e;
      }
    });
    return;
  }
  fj::for_blocks(lo, hi, fj::kDefaultGrain, [&](size_t b0, size_t b1) {
    T* p = a.data();
    for (size_t i = b0; i < b1; ++i) f(p[i], i);
  });
}

/// Parallel generate: for each i in [lo, hi), call f(v, i) to build the
/// record, then store a[i] = v (one write touch). f must fully assign v.
template <class T, class F>
void generate_range(const slice<T>& a, size_t lo, size_t hi, Tick tick,
                    F&& f) {
  if (instrumented()) {
    fj::for_blocks(lo, hi, fj::kDefaultGrain, [&](size_t b0, size_t b1) {
      for (size_t i = b0; i < b1; ++i) {
        if (tick == Tick::PerElem) sim::tick(1);
        T v{};
        f(v, i);
        a[i] = v;
      }
    });
    return;
  }
  fj::for_blocks(lo, hi, fj::kDefaultGrain, [&](size_t b0, size_t b1) {
    T* p = a.data();
    for (size_t i = b0; i < b1; ++i) {
      T v{};
      f(v, i);
      p[i] = v;
    }
  });
}

}  // namespace dopar::obl::kernel
