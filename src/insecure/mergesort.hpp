#pragma once
// Insecure (non-oblivious) binary fork-join merge sort.
//
// Stand-in for SPMS [CR17b], the "previous best insecure algorithm" of
// Table 1 and the final sorting pass of the theoretical oblivious-sort
// variant (Section 3.3): any comparison-based sort applied to a randomly
// permuted array keeps the pipeline oblivious. This is the classic CLRS
// Chapter-27 multithreaded merge sort: work O(n log n); the parallel merge
// splits on the median of the larger run, giving span O(log^3 n) — a
// log^2/loglog factor off SPMS, which only matters for the span column.
// The genuine SPMS engine is core/spms.hpp (the "spms" backend).

#include <cassert>
#include <cstddef>

#include "forkjoin/api.hpp"
#include "obl/elem.hpp"
#include "sim/session.hpp"
#include "sim/tracked.hpp"

namespace dopar::insecure {

namespace detail {

template <class T, class Less>
size_t lower_bound(const slice<T>& a, const T& x, const Less& less) {
  size_t lo = 0, hi = a.size();
  while (lo < hi) {
    sim::tick(1);
    const size_t mid = lo + (hi - lo) / 2;
    if (less(a[mid], x)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

template <class T, class Less>
void merge_serial(const slice<T>& a, const slice<T>& b, const slice<T>& out,
                  const Less& less) {
  size_t i = 0, j = 0, k = 0;
  while (i < a.size() && j < b.size()) {
    sim::tick(1);
    if (less(b[j], a[i])) {
      out[k++] = b[j++];
    } else {
      out[k++] = a[i++];
    }
  }
  while (i < a.size()) {
    sim::tick(1);
    out[k++] = a[i++];
  }
  while (j < b.size()) {
    sim::tick(1);
    out[k++] = b[j++];
  }
}

template <class T, class Less>
void merge_par(const slice<T>& a, const slice<T>& b, const slice<T>& out,
               const Less& less) {
  assert(out.size() == a.size() + b.size());
  if (a.size() + b.size() <= 64) {
    merge_serial(a, b, out, less);
    return;
  }
  // Split on the median of the larger run.
  if (a.size() < b.size()) {
    merge_par(b, a, out, less);
    return;
  }
  const size_t ma = a.size() / 2;
  const size_t mb = lower_bound(b, a[ma], less);
  fj::invoke(
      [&] { merge_par(a.first(ma), b.first(mb), out.first(ma + mb), less); },
      [&] {
        merge_par(a.sub(ma, a.size() - ma), b.sub(mb, b.size() - mb),
                  out.sub(ma + mb, out.size() - ma - mb), less);
      });
}

/// Serial insertion sort — the recursion base here and of the SPMS engine
/// (core/spms.cpp), shared so the tick accounting cannot diverge between
/// the two comparison sorts.
template <class T, class Less>
void insertion_sort(const slice<T>& a, const Less& less) {
  for (size_t i = 1; i < a.size(); ++i) {
    T x = a[i];
    size_t j = i;
    while (j > 0 && less(x, a[j - 1])) {
      sim::tick(1);
      a[j] = a[j - 1];
      --j;
    }
    sim::tick(1);
    a[j] = x;
  }
}

template <class T, class Less>
void msort_rec(const slice<T>& a, const slice<T>& tmp, const Less& less) {
  const size_t n = a.size();
  if (n <= 32) {
    insertion_sort(a, less);
    return;
  }
  const size_t mid = n / 2;
  fj::invoke([&] { msort_rec(a.first(mid), tmp.first(mid), less); },
             [&] {
               msort_rec(a.sub(mid, n - mid), tmp.sub(mid, n - mid), less);
             });
  fj::for_range(0, n, fj::kDefaultGrain, [&](size_t i) {
    sim::tick(1);
    tmp[i] = a[i];
  });
  merge_par(tmp.first(mid), tmp.sub(mid, n - mid), a, less);
}

}  // namespace detail

/// Sort `a` (any length) with the given strict-weak-order comparator.
template <class T, class Less = obl::ByKey>
void merge_sort(const slice<T>& a, const Less& less = {}) {
  if (a.size() <= 1) return;
  vec<T> tmp(a.size());
  detail::msort_rec(a, tmp.s(), less);
}

}  // namespace dopar::insecure
