#pragma once
// Comparator-network policies: the generic comparison sorters that realize
// the sorts inside the composite oblivious primitives.
//
// These are no longer the public plumbing — primitives take the
// type-erased dopar::SorterBackend (core/backend.hpp), selected by name
// through the backend registry and dopar::Runtime. The policies here are
// the network *implementations* those backends wrap:
//   * BitonicSorter       — cache-agnostic bitonic (paper Theorem E.1),
//   * PlainBitonicSorter  — depth-first recursive bitonic,
//   * NaiveBitonicSorter  — literal layer-by-layer PRAM schedule
//                           (the Table 2 / Theorem E.1 "prior best"),
//   * OddEvenSorter       — Batcher odd-even merge (AKS stand-in).
// A network must (a) realize the sorting functionality on power-of-two
// arrays and (b) have an input-independent access-pattern distribution.
//
// All four policies execute their comparator rounds through the kernel
// layer (obl/kernel/kernel.hpp): instrumented runs replay the historical
// per-comparator loops exactly (accounting and trace digests unchanged).
// The three bitonic policies realize one network and differ only in those
// instrumented schedules: uninstrumented, all three take bitonic_sort's
// native path on the bitonic round runner, and the odd-even policy runs
// strided batches, all feeding the runtime-dispatched SIMD oswap kernels.

#include "obl/bitonic.hpp"
#include "obl/bitonic_ca.hpp"
#include "obl/elem.hpp"
#include "obl/oddeven.hpp"

namespace dopar::obl {

/// Cache-agnostic bitonic network sorter (default).
struct BitonicSorter {
  template <class T, class Less>
  void operator()(const slice<T>& a, const Less& less) const {
    bitonic_sort_ca(a, /*up=*/true, less);
  }
};

/// Depth-first recursive bitonic sorter (same network as BitonicSorter;
/// its instrumented schedule has no transpose recursion — cache
/// O((n/B) log^2 n)).
struct PlainBitonicSorter {
  template <class T, class Less>
  void operator()(const slice<T>& a, const Less& less) const {
    bitonic_sort(a, /*up=*/true, less);
  }
};

/// Naive-parallelization bitonic sorter: the literal layer-by-layer PRAM
/// schedule (for the Table 2 / Theorem E.1 "prior best" columns).
struct NaiveBitonicSorter {
  template <class T, class Less>
  void operator()(const slice<T>& a, const Less& less) const {
    bitonic_sort_layerwise(a, less);
  }
};

/// Batcher odd-even network sorter (AKS stand-in cross-check).
struct OddEvenSorter {
  template <class T, class Less>
  void operator()(const slice<T>& a, const Less& less) const {
    odd_even_merge_sort(a, less);
  }
};

}  // namespace dopar::obl
