#pragma once
// Cache-agnostic, binary fork-join bitonic sort (paper Theorem E.1).
//
// Each bitonic merge is a butterfly network; writing the m inputs as an
// H x L matrix (H = 2^ceil(log m / 2), L = m/H), the first log H layers act
// inside columns and the last log L layers inside rows. BITONIC-MERGE
// therefore transposes, recursively merges the L rows of length H (the old
// columns), transposes back, and recursively merges the H rows of length L —
// the same FFT-style recursion as REC-ORBA, giving
//   work  O(m log m)        span  O(log m · log log m)
//   cache O((m/B) log_M m)
// per merge, and for the full sort
//   work  O(n log^2 n)      span  O(log^2 n · log log n)
//   cache O((n/B) · log_M n · log(n/M)).
//
// The comparator sequence (hence the access pattern) is a fixed function of
// n — data-oblivious by construction.
//
// The transpose recursion is the Theorem E.1 analytic schedule only: it
// runs under a sim::Session, down to the base kBitonicCaBase, and only
// there allocates its scratch buffer. Native runs (no session) execute the
// same network on bitonic_sort's native path (detail::bitonic_sort_native),
// which measured faster than shuffling through scratch at every size from
// 2^13 to 2^20, for 32- and 48-byte records, at 1 and 4 threads. Both paths
// sort the halves ascending then descending at every level, as
// bitonic_sort does, so all bitonic sorters realize one network and write
// the same bytes, ties included.

#include <cassert>
#include <cstddef>

#include "forkjoin/api.hpp"
#include "obl/bitonic.hpp"
#include "obl/elem.hpp"
#include "obl/kernel/kernel.hpp"
#include "sim/tracked.hpp"
#include "util/bits.hpp"
#include "util/transpose.hpp"

namespace dopar::obl {

namespace detail {

/// Problem sizes at or below this run the butterfly directly (still a fixed
/// network). Must be a power of two. The instrumented recursion goes all
/// the way down to it, so the measured work/span/cache asymptotics (and
/// trace digests) match the paper's recursion.
inline constexpr size_t kBitonicCaBase = 8;

/// Full butterfly (bitonic merge network) on a[0..m): the serial round
/// loops of merge_ca's base.
template <class T, class Less>
void butterfly(const slice<T>& a, bool up, const Less& less) {
  const size_t m = a.size();
  for (size_t d = m / 2; d >= 1; d /= 2) {
    for (size_t i = 0; i < m; ++i) {
      if ((i & d) == 0) kernel::cex_pair(a, i, i + d, up, less);
    }
  }
}

template <class T, class Less>
void merge_ca(const slice<T>& data, const slice<T>& scratch, bool up,
              const Less& less) {
  const size_t m = data.size();
  if (m <= kBitonicCaBase) {
    butterfly(data, up, less);
    return;
  }
  const unsigned k = util::log2_exact(m);
  const size_t rows = size_t{1} << (k - k / 2);  // H = 2^ceil(k/2)
  const size_t cols = m / rows;                  // L = 2^floor(k/2)

  // Layers 1..log H act on columns; gather them into rows.
  util::transpose_blocks(data, scratch, rows, cols);
  fj::for_range(0, cols, 1, [&](size_t r) {
    merge_ca(scratch.sub(r * rows, rows), data.sub(r * rows, rows), up, less);
  });
  // Back to row-major; layers log H+1..log m act on contiguous rows.
  util::transpose_blocks(scratch, data, cols, rows);
  fj::for_range(0, rows, 1, [&](size_t r) {
    merge_ca(data.sub(r * cols, cols), scratch.sub(r * cols, cols), up, less);
  });
}

template <class T, class Less>
void sort_ca(const slice<T>& data, const slice<T>& scratch, bool up,
             const Less& less) {
  const size_t n = data.size();
  if (n <= kBitonicCaBase) {
    bitonic_sort(data, up, less);
    return;
  }
  const size_t h = n / 2;
  fj::invoke([&] { sort_ca(data.first(h), scratch.first(h), true, less); },
             [&] { sort_ca(data.last(h), scratch.last(h), false, less); });
  merge_ca(data, scratch, up, less);
}

}  // namespace detail

/// Cache-agnostic bitonic sort; |data| a power of two. Instrumented: the
/// transpose recursion over one scratch buffer of equal size. Native:
/// bitonic_sort's native path, no scratch.
template <class T, class Less = ByKey>
void bitonic_sort_ca(const slice<T>& data, bool up = true,
                     const Less& less = {}) {
  assert(util::is_pow2(data.size()) || data.size() == 0);
  if (data.size() <= 1) return;
  if (!kernel::instrumented()) {
    detail::bitonic_sort_native(data, up, less);
    return;
  }
  vec<T> scratch(data.size());
  detail::sort_ca(data, scratch.s(), up, less);
}

}  // namespace dopar::obl
