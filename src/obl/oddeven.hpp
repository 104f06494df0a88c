#pragma once
// Batcher odd-even merge sorting network.
//
// Serves two purposes: (a) an independent fixed comparator network to
// cross-check bitonic sort in the property tests (both must realize the
// sorting functionality for every 0/1 input, per the zero-one principle);
// (b) the pluggable stand-in for the AKS network wherever the paper invokes
// "an O(1) number of AKS sorts" — same obliviousness, O(n log^2 n) work
// (the paper's own practical variant makes exactly this substitution).

#include <cassert>
#include <cstddef>

#include "forkjoin/api.hpp"
#include "obl/elem.hpp"
#include "obl/kernel/kernel.hpp"
#include "sim/tracked.hpp"
#include "util/bits.hpp"

namespace dopar::obl {

namespace detail {

// Batcher's recursive odd-even merge: merges two sorted halves of
// a[lo, lo+n) taken at stride r.
template <class T, class Less>
void oe_merge(const slice<T>& a, size_t lo, size_t n, size_t r,
              const Less& less) {
  const size_t m = r * 2;
  if (m < n) {
    fj::invoke([&] { oe_merge(a, lo, n, m, less); },
               [&] { oe_merge(a, lo + r, n, m, less); });
    // Interior round: strided independent comparators, one batched call.
    kernel::cex_strided(a, lo + r, lo + n, r, m, less);
  } else {
    kernel::cex_pair(a, lo, lo + r, /*up=*/true, less);
  }
}

template <class T, class Less>
void oe_sort(const slice<T>& a, size_t lo, size_t n, const Less& less) {
  if (n <= 1) return;
  const size_t m = n / 2;
  fj::invoke([&] { oe_sort(a, lo, m, less); },
             [&] { oe_sort(a, lo + m, m, less); });
  oe_merge(a, lo, n, 1, less);
}

}  // namespace detail

/// Sort `a` ascending with Batcher's odd-even merge network.
/// |a| must be a power of two.
template <class T, class Less = ByKey>
void odd_even_merge_sort(const slice<T>& a, const Less& less = {}) {
  assert(util::is_pow2(a.size()) || a.size() == 0);
  if (a.size() <= 1) return;
  detail::oe_sort(a, 0, a.size(), less);
}

}  // namespace dopar::obl
