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
// Native runs (no sim::Session) stop the transpose recursion at
// kBitonicCaNativeBase records and run the base sorts and merges on the
// kernel layer's bitonic round runner; instrumented runs recurse down to
// the analytic base kBitonicCaBase and run its serial instrumented
// butterfly.

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
/// network). Must be a power of two. This is the *analytic-model* base:
/// instrumented runs recurse all the way down to it so the measured
/// work/span/cache asymptotics (and trace digests) match the paper's
/// recursion — and stay identical to every previously committed snapshot.
inline constexpr size_t kBitonicCaBase = 8;

/// Base for uninstrumented native execution. The transpose recursion only
/// pays off once a subproblem outgrows cache; below this, the kernel
/// layer's round runner (bitonic_sort's native sorts, kernel::butterfly's
/// native merges: serial inside L1 tiles, forked above them) is faster
/// than shuffling through scratch. Same comparator network either way (see
/// the half-direction rule in sort_ca) — outputs are identical, only the
/// execution order of independent comparators differs.
inline constexpr size_t kBitonicCaNativeBase = 4096;

inline size_t bitonic_ca_base() {
  return sim::current_session() ? kBitonicCaBase : kBitonicCaNativeBase;
}

template <class T, class Less>
void merge_ca(const slice<T>& data, const slice<T>& scratch, bool up,
              const Less& less) {
  const size_t m = data.size();
  if (m <= bitonic_ca_base()) {
    kernel::butterfly(data, up, less);
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
  if (n <= bitonic_ca_base()) {
    bitonic_sort(data, up, less);
    return;
  }
  // Half directions: above the native base the transpose recursion sorts
  // (up, !up); at or below it the network is bitonic_sort's, whose halves
  // run ascending then descending. Instrumented runs recurse past the
  // native base, so they follow the same rule: both paths then realize one
  // network, and records with equal keys land in the same order. (The
  // directions never change which addresses a comparator touches.)
  const size_t h = n / 2;
  const bool lo_up = n <= kBitonicCaNativeBase ? true : up;
  fj::invoke(
      [&] { sort_ca(data.first(h), scratch.first(h), lo_up, less); },
      [&] { sort_ca(data.last(h), scratch.last(h), !lo_up, less); });
  merge_ca(data, scratch, up, less);
}

}  // namespace detail

/// Cache-agnostic bitonic sort; |data| a power of two. Allocates one
/// scratch buffer of equal size.
template <class T, class Less = ByKey>
void bitonic_sort_ca(const slice<T>& data, bool up = true,
                     const Less& less = {}) {
  assert(util::is_pow2(data.size()) || data.size() == 0);
  if (data.size() <= 1) return;
  vec<T> scratch(data.size());
  detail::sort_ca(data, scratch.s(), up, less);
}

/// Variant reusing a caller-provided scratch buffer (hot paths: REC-ORBA
/// base cases run many small sorts and should not allocate per call).
template <class T, class Less = ByKey>
void bitonic_sort_ca(const slice<T>& data, const slice<T>& scratch,
                     bool up = true, const Less& less = {}) {
  assert(data.size() == scratch.size());
  assert(util::is_pow2(data.size()) || data.size() == 0);
  if (data.size() <= 1) return;
  detail::sort_ca(data, scratch, up, less);
}

}  // namespace dopar::obl
