#pragma once
// Bitonic sorting network — naive binary fork-join parallelization.
//
// This is the baseline implementation the paper improves on in Section E.1:
// forking the comparators of each layer gives O(n log^2 n) work,
// O(log^3 n) span and O((n/B) log^2 n) cache misses. The cache-agnostic
// variant (bitonic_ca.hpp) reuses the same comparator network with the
// transpose-based recursion of Theorem E.1, and the layerwise sorter below
// with the literal PRAM schedule. All are data-oblivious: the comparator
// sequence is a fixed function of n.
//
// The three schedules differ only under a sim::Session, where their
// accounting is what the paper's bounds and the committed analytic
// snapshots describe. Native runs (no session) of all three execute the
// network on one path, bitonic_sort_native, over the kernel layer's round
// runner (kernel::run_network): a subproblem of at most
// kernel::tile_elems<T>() records (one 16 KiB L1 tile) runs its whole
// network serially inside the tile; larger ones fork their halves and
// merge with the runner, whose rounds fork above a tile and run tile by
// tile below it. Forking down to single comparators would cost far more
// than the comparators themselves on a real pool. Same comparators and
// directions on every path, so the same output bytes, ties included.
//
// The element count must be a power of two; callers pad with +inf fillers
// (Elem::filler() sorts last under ByKey).

#include <cassert>
#include <cstddef>

#include "forkjoin/api.hpp"
#include "obl/elem.hpp"
#include "obl/kernel/kernel.hpp"
#include "sim/session.hpp"
#include "sim/tracked.hpp"
#include "util/bits.hpp"

namespace dopar::obl {

namespace detail {

/// Instrumented runs only: every merge round forks down to single
/// comparators.
template <class T, class Less>
void bitonic_merge_naive(const slice<T>& a, size_t lo, size_t n, bool up,
                         const Less& less) {
  if (n <= 1) return;
  const size_t k = n / 2;
  fj::for_range(lo, lo + k, 1,
                [&](size_t i) { kernel::cex_pair(a, i, i + k, up, less); });
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

/// Native execution of bitonic_sort_naive's network (see the header): the
/// native path of every bitonic sorter.
template <class T, class Less>
void bitonic_sort_native(const slice<T>& a, bool up, const Less& less) {
  const size_t n = a.size();
  if (n <= kernel::tile_elems<T>()) {
    kernel::run_network(a, kernel::Network::sort(n, up), less);
    return;
  }
  const size_t k = n / 2;
  fj::invoke([&] { bitonic_sort_native(a.first(k), true, less); },
             [&] { bitonic_sort_native(a.last(k), false, less); });
  kernel::run_network(a, kernel::Network::merge(n, up), less);
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
    detail::bitonic_sort_native(a, up, less);
    return;
  }
  detail::bitonic_sort_naive(a, 0, a.size(), up, less);
}

/// Layer-by-layer (breadth-first) ascending bitonic sort: the literal PRAM
/// schedule with every layer's comparators forked in a binary tree — the
/// "naive parallelization" Theorem E.1 improves on. Span O(log^3 n) and
/// cache O((n/B) log^2 n): each of the log n (log n + 1)/2 layers scans the
/// whole array. Native runs take bitonic_sort's native path.
template <class T, class Less = ByKey>
void bitonic_sort_layerwise(const slice<T>& a, const Less& less = {}) {
  const size_t n = a.size();
  assert(util::is_pow2(n) || n == 0);
  if (n <= 1) return;
  if (!kernel::instrumented()) {
    detail::bitonic_sort_native(a, true, less);
    return;
  }
  for (size_t block = 2; block <= n; block *= 2) {
    for (size_t d = block / 2; d >= 1; d /= 2) {
      fj::for_range(0, n, 1, [&](size_t i) {
        if ((i & d) == 0) {
          kernel::cex_pair(a, i, i + d, (i & block) == 0, less);
        }
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
