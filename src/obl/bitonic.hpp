#pragma once
// Bitonic sorting network — naive binary fork-join parallelization.
//
// This is the baseline implementation the paper improves on in Section E.1:
// forking the comparators of each layer gives O(n log^2 n) work,
// O(log^3 n) span and O((n/B) log^2 n) cache misses. The cache-agnostic
// variant (bitonic_ca.hpp) reuses the same comparator network with the
// transpose-based recursion of Theorem E.1. Both are data-oblivious: the
// comparator sequence is a fixed function of n.
//
// Native runs (no sim::Session) execute the same network with a coarser
// schedule: a subproblem of at most kernel::tile_elems<T>() records (one
// 16 KiB L1 tile) runs its whole sub-network serially (kernel::sort_tile);
// larger ones fork their halves and merge with the tiled kernel::butterfly.
// Forking down to single comparators would cost far more than the
// comparators themselves on a real pool. Instrumented runs keep the naive
// recursion, whose accounting is what the paper's bounds and the committed
// analytic snapshots describe. Same comparators and directions on both
// paths, so the same output bytes, ties included.
//
// The element count must be a power of two; callers pad with +inf fillers
// (Elem::filler() sorts last under ByKey).

#include <cassert>
#include <cstddef>

#include "forkjoin/api.hpp"
#include "obl/elem.hpp"
#include "obl/kernel/kernel.hpp"
#include "obl/oswap.hpp"
#include "sim/session.hpp"
#include "sim/tracked.hpp"
#include "util/bits.hpp"

namespace dopar::obl {

/// One comparator: orders a[i], a[j] ascending iff `up`.
/// Counted as one tick of work/span. (Forwarder kept for the many policies
/// that place individual comparators; round-shaped call sites go through
/// the batch APIs in obl/kernel/kernel.hpp instead.)
template <class T, class Less>
inline void comparator(const slice<T>& a, size_t i, size_t j, bool up,
                       const Less& less) {
  kernel::cex_pair(a, i, j, up, less);
}

namespace detail {

template <class T, class Less>
void bitonic_merge_naive(const slice<T>& a, size_t lo, size_t n, bool up,
                         const Less& less) {
  if (n <= 1) return;
  const size_t k = n / 2;
  fj::for_blocks(lo, lo + k, fj::kDefaultGrain, [&](size_t b0, size_t b1) {
    kernel::cex_offset_range(a, b0, b1, k, up, less);
  });
  fj::invoke([&] { bitonic_merge_naive(a, lo, k, up, less); },
             [&] { bitonic_merge_naive(a, lo + k, k, up, less); });
}

template <class T, class Less>
void bitonic_sort_naive(const slice<T>& a, size_t lo, size_t n, bool up,
                        const Less& less) {
  if (n <= 1) return;
  const size_t k = n / 2;
  fj::invoke([&] { bitonic_sort_naive(a, lo, k, true, less); },
             [&] { bitonic_sort_naive(a, lo + k, k, false, less); });
  bitonic_merge_naive(a, lo, n, up, less);
}

/// Native execution of bitonic_sort_naive's network (see the header):
/// serial inside one L1 tile, forked halves and a tiled merge above it.
template <class T, class Less>
void bitonic_sort_tiled(const slice<T>& a, bool up, const Less& less) {
  const size_t n = a.size();
  if (n <= kernel::tile_elems<T>()) {
    kernel::sort_tile(a, up, less);
    return;
  }
  const size_t k = n / 2;
  fj::invoke([&] { bitonic_sort_tiled(a.first(k), true, less); },
             [&] { bitonic_sort_tiled(a.last(k), false, less); });
  kernel::butterfly(a, up, less);
}

}  // namespace detail

/// Sort a (|a| a power of two) ascending iff `up`. Instrumented: the naive
/// parallelization, forked down to single comparators. Native: forks only
/// above an L1 tile.
template <class T, class Less = ByKey>
void bitonic_sort(const slice<T>& a, bool up = true, const Less& less = {}) {
  assert(util::is_pow2(a.size()) || a.size() == 0);
  if (a.size() <= 1) return;
  if (!kernel::instrumented()) {
    detail::bitonic_sort_tiled(a, up, less);
    return;
  }
  detail::bitonic_sort_naive(a, 0, a.size(), up, less);
}

/// Merge a bitonic sequence (|a| a power of two), naive parallelization.
template <class T, class Less = ByKey>
void bitonic_merge(const slice<T>& a, bool up = true, const Less& less = {}) {
  assert(util::is_pow2(a.size()) || a.size() == 0);
  if (a.size() <= 1) return;
  detail::bitonic_merge_naive(a, 0, a.size(), up, less);
}

/// Layer-by-layer (breadth-first) bitonic sort: the literal PRAM schedule
/// with every layer's comparators forked in a binary tree — the "naive
/// parallelization" Theorem E.1 improves on. Span O(log^3 n) and cache
/// O((n/B) log^2 n): each of the log n (log n + 1)/2 layers scans the
/// whole array.
template <class T, class Less = ByKey>
void bitonic_sort_layerwise(const slice<T>& a, bool up = true,
                            const Less& less = {}) {
  const size_t n = a.size();
  assert(util::is_pow2(n) || n == 0);
  if (n <= 1) return;
  for (size_t block = 2; block <= n; block *= 2) {
    for (size_t d = block / 2; d >= 1; d /= 2) {
      fj::for_blocks(0, n, fj::kDefaultGrain, [&](size_t b0, size_t b1) {
        kernel::cex_layer(a, b0, b1, block, d, up, less);
      });
    }
  }
}

/// Comparator count of the full bitonic sorter: n/2 per layer,
/// log n (log n + 1) / 2 layers — used by the Figure 1 bench to check the
/// implementation against the textbook network.
inline uint64_t bitonic_comparator_count(size_t n) {
  if (n <= 1) return 0;
  const uint64_t ln = util::log2_exact(n);
  return (n / 2) * ln * (ln + 1) / 2;
}

}  // namespace dopar::obl
