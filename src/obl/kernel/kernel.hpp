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
//   * native (no session): tight serial loops over raw pointers feeding the
//     runtime-dispatched SIMD kernels of dispatch.hpp — whole comparator
//     rounds per call (mask first, then one batched oswap), L1-tiled
//     butterfly rounds, and memmove bulk copies.
//
// Native leaf grain: a fork on the real pool costs about 100 ns, so native
// recursions stop forking at one L1 tile (kL1TileBytes: 512 Elem, 256
// BinItem<Routed>). Inside a tile, sort_tile and the butterfly's last
// log(tile) rounds run serially as batched rounds. The instrumented path
// keeps its fork-per-comparator recursion because the paper's work/span/
// cache analysis, the committed analytic snapshots and the trace digests
// are all stated over that recursion, not over the native schedule.
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
/// per batched oswap call. Small enough to live on the stack, large enough
/// to amortize the dispatch indirection.
inline constexpr size_t kMaskChunk = 512;

/// Native butterfly tiling: consecutive rounds with comparator distance
/// below the tile run back-to-back over blocks of about this many bytes so
/// the block stays L1-resident across rounds.
inline constexpr size_t kL1TileBytes = 16 * 1024;

/// Tile size in elements for butterfly tiling (power of two, >= 2).
template <class T>
constexpr size_t tile_elems() {
  const size_t e = kL1TileBytes / sizeof(T);
  return e < 2 ? size_t{2} : util::pow2_floor(e);
}

namespace detail {

/// Native path: one contiguous run of `count` independent comparators —
/// pair k is (xa[k], xb[k]), ordered ascending iff `up`. Computes the wrong-
/// order masks for a chunk, then swaps the whole chunk with one dispatched
/// batch call.
template <class T, class Less>
inline void pair_run_native(T* xa, T* xb, size_t count, bool up,
                            const Less& less) {
  unsigned char mask[kMaskChunk];
  for (size_t base = 0; base < count; base += kMaskChunk) {
    const size_t cnt = std::min(kMaskChunk, count - base);
    for (size_t k = 0; k < cnt; ++k) {
      const T& x = xa[base + k];
      const T& y = xb[base + k];
      mask[k] = static_cast<unsigned char>(up ? less(y, x) : less(x, y));
    }
    oswap_batch_raw(reinterpret_cast<unsigned char*>(xa + base),
                    reinterpret_cast<unsigned char*>(xb + base), sizeof(T),
                    sizeof(T), mask, cnt);
  }
}

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

/// Native path: the butterfly rounds d = s/2, …, 1 of every s-block of
/// q[0..m) (2 <= s <= m, powers of two), serially. Block j is ordered
/// ascending iff (s == m ? up : j is even) — the block directions of one
/// merge stage of obl::detail::bitonic_sort_naive. A round whose pair runs
/// are shorter than their count (d < m/(2d)) runs as d strided batches
/// instead of m/(2d) contiguous ones; either way it executes the same
/// independent comparators.
template <class T, class Less>
void tile_stage_native(T* q, size_t m, size_t s, bool up, const Less& less) {
  const auto dir = [&](size_t i) { return s == m ? up : (i & s) == 0; };
  unsigned char mask[kMaskChunk];
  for (size_t d = s / 2; d >= 1; d /= 2) {
    const size_t runs = m / (2 * d);
    if (d >= runs) {
      for (size_t r = 0; r < m; r += 2 * d) {
        pair_run_native(q + r, q + r + d, d, dir(r), less);
      }
      continue;
    }
    for (size_t o = 0; o < d; ++o) {
      for (size_t k0 = 0; k0 < runs; k0 += kMaskChunk) {
        const size_t cnt = std::min(kMaskChunk, runs - k0);
        T* base = q + o + k0 * 2 * d;
        for (size_t k = 0; k < cnt; ++k) {
          const T& x = base[k * 2 * d];
          const T& y = base[k * 2 * d + d];
          const bool wrong = dir(o + (k0 + k) * 2 * d) ? less(y, x)
                                                       : less(x, y);
          mask[k] = static_cast<unsigned char>(wrong);
        }
        oswap_batch_raw(reinterpret_cast<unsigned char*>(base),
                        reinterpret_cast<unsigned char*>(base + d), sizeof(T),
                        2 * d * sizeof(T), mask, cnt);
      }
    }
  }
}

}  // namespace detail

/// One comparator: orders a[i], a[j] ascending iff `up`. One tick of work
/// and span. This is the historical obl::comparator body, verbatim — the
/// unit both paths of every round API below reduce to.
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

/// Comparators (i, i+off) for every i in [i0, i1) — the contiguous half-vs-
/// half round of a bitonic merge. Requires off >= i1 - i0 (the two record
/// ranges must not overlap).
template <class T, class Less>
void cex_offset_range(const slice<T>& a, size_t i0, size_t i1, size_t off,
                      bool up, const Less& less) {
  assert(off >= i1 - i0);
  if (instrumented()) {
    for (size_t i = i0; i < i1; ++i) cex_pair(a, i, i + off, up, less);
    return;
  }
  T* p = a.data();
  detail::pair_run_native(p + i0, p + i0 + off, i1 - i0, up, less);
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

/// One layer of the layerwise bitonic schedule restricted to i in [i0, i1):
/// every i with (i & d) == 0 pairs with i + d, directed by its block of the
/// current merge stage. `block` must be a multiple of 2d (it is, for every
/// (block, d) the bitonic schedule produces), so direction is constant on
/// each run of d consecutive comparators.
template <class T, class Less>
void cex_layer(const slice<T>& a, size_t i0, size_t i1, size_t block,
               size_t d, bool up, const Less& less) {
  if (instrumented()) {
    for (size_t i = i0; i < i1; ++i) {
      if ((i & d) == 0) {
        const bool dir = up == (((i / block) % 2) == 0);
        cex_pair(a, i, i + d, dir, less);
      }
    }
    return;
  }
  T* p = a.data();
  size_t i = i0;
  while (i < i1) {
    if (i & d) {  // inside a partner run: hop to the next left-index run
      i = (i & ~(d - 1)) + d;
      continue;
    }
    const size_t run_end = std::min(i1, (i & ~(d - 1)) + d);
    const bool dir = up == (((i / block) % 2) == 0);
    detail::pair_run_native(p + i, p + i + d, run_end - i, dir, less);
    i = run_end + d;
  }
}

/// One full butterfly round over a (|a| a power of two, d < |a|): every i
/// with (i & d) == 0 pairs with i + d, all in direction `up`.
template <class T, class Less>
void compare_exchange_round(const slice<T>& a, size_t d, bool up,
                            const Less& less) {
  const size_t m = a.size();
  assert(util::is_pow2(m) && d >= 1 && 2 * d <= m);
  if (instrumented()) {
    for (size_t i = 0; i < m; ++i) {
      if ((i & d) == 0) cex_pair(a, i, i + d, up, less);
    }
    return;
  }
  T* p = a.data();
  for (size_t s = 0; s < m; s += 2 * d) {
    detail::pair_run_native(p + s, p + s + d, d, up, less);
  }
}

/// Full butterfly (bitonic merge network) on a[0..m), m a power of two.
/// Instrumented: the historical butterfly_serial loops, verbatim. Native:
/// rounds with distance >= tile run one round at a time (pair-blocks forked
/// in parallel); all remaining rounds run back-to-back inside each aligned
/// L1-resident tile, so a tile is loaded once and receives log(tile) rounds
/// before eviction.
template <class T, class Less>
void butterfly(const slice<T>& a, bool up, const Less& less) {
  const size_t m = a.size();
  if (m <= 1) return;
  assert(util::is_pow2(m));
  if (instrumented()) {
    for (size_t d = m / 2; d >= 1; d /= 2) {
      for (size_t i = 0; i < m; ++i) {
        if ((i & d) == 0) cex_pair(a, i, i + d, up, less);
      }
    }
    return;
  }
  const size_t tile = std::min(tile_elems<T>(), m);
  size_t d = m / 2;
  for (; d >= tile; d /= 2) {
    fj::for_range(0, m / (2 * d), 1, [&](size_t b) {
      T* p = a.data() + b * 2 * d;
      detail::pair_run_native(p, p + d, d, up, less);
    });
  }
  fj::for_range(0, m / tile, 1, [&](size_t t) {
    detail::tile_stage_native(a.data() + t * tile, tile, tile, up, less);
  });
}

/// Native path only: the whole bitonic sorting network on a[0..m), m a
/// power of two of at most tile_elems<T>(), run serially inside one
/// L1-resident tile as log m batched merge stages. Same comparators and
/// directions as obl::detail::bitonic_sort_naive (halves ascending then
/// descending, top merge in `up`), hence the same output bytes.
template <class T, class Less>
void sort_tile(const slice<T>& a, bool up, const Less& less) {
  const size_t m = a.size();
  assert(!instrumented() && util::is_pow2(m) && m <= tile_elems<T>());
  for (size_t s = 2; s <= m; s *= 2) {
    detail::tile_stage_native(a.data(), m, s, up, less);
  }
}

/// Batch oswap: for i in [0, count), swap a[i] and b[i] iff mask[i] != 0.
/// The two slices must not overlap. No tick — pure data movement; callers
/// that want the swaps accounted tick themselves.
template <class T>
void oswap_batch(const slice<T>& a, const slice<T>& b,
                 const unsigned char* mask, size_t count) {
  assert(count <= a.size() && count <= b.size());
  if (instrumented()) {
    for (size_t i = 0; i < count; ++i) {
      T x = a[i];
      T y = b[i];
      oswap(x, y, mask[i] != 0);
      a[i] = x;
      b[i] = y;
    }
    return;
  }
  oswap_batch_raw(reinterpret_cast<unsigned char*>(a.data()),
                  reinterpret_cast<unsigned char*>(b.data()), sizeof(T),
                  sizeof(T), mask, count);
}

/// Run body(i) for each i in [lo, hi) in parallel. The blocked drop-in for
/// fj::for_range call sites routed through this layer: instrumented runs
/// keep the identical grain-1 fork tree and leaf order; native runs execute
/// a tight serial loop per block.
template <class F>
inline void for_each(size_t lo, size_t hi, F&& body) {
  fj::for_blocks(lo, hi, fj::kDefaultGrain, [&](size_t b0, size_t b1) {
    for (size_t i = b0; i < b1; ++i) body(i);
  });
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
