#pragma once
// Oblivious parallel scans (prefix / suffix folds) in the fork-join model.
//
// Scans are the workhorse behind the paper's aggregation and propagation
// primitives (Section F): both reduce to segmented scans, which run in
// O(n) work, O(log n) span and O(n/B) cache misses with an access pattern
// that is a fixed function of n (a static binary tree walk).
//
// The implementation is the classic two-pass tree scan expressed with
// binary forks: an upsweep computes subtree folds into a segment tree, the
// downsweep pushes carries to the leaves. No identity element is required
// (carries track an explicit "empty" state), so any associative combine
// works, including the non-commutative segmented operators.

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "forkjoin/api.hpp"
#include "sim/session.hpp"
#include "sim/tracked.hpp"

namespace dopar::obl {

namespace detail {

template <class T, class Combine>
void scan_up(const slice<T>& a, const slice<T>& tree, size_t node, size_t lo,
             size_t hi, const Combine& comb) {
  if (hi - lo == 1) {
    sim::tick(1);
    tree[node] = a[lo];
    return;
  }
  const size_t mid = lo + (hi - lo) / 2;
  fj::invoke([&] { scan_up(a, tree, 2 * node, lo, mid, comb); },
             [&] { scan_up(a, tree, 2 * node + 1, mid, hi, comb); });
  sim::tick(1);
  tree[node] = comb(tree[2 * node], tree[2 * node + 1]);
}

// Forward inclusive: a[i] <- a[0] + ... + a[i]  (in array order).
template <class T, class Combine>
void scan_down_fwd(const slice<T>& a, const slice<T>& tree, size_t node,
                   size_t lo, size_t hi, const T& carry, bool has_carry,
                   const Combine& comb) {
  if (hi - lo == 1) {
    sim::tick(1);
    if (has_carry) a[lo] = comb(carry, a[lo]);
    return;
  }
  const size_t mid = lo + (hi - lo) / 2;
  sim::tick(1);
  const T left_fold = tree[2 * node];
  const T right_carry = has_carry ? comb(carry, left_fold) : left_fold;
  fj::invoke(
      [&] { scan_down_fwd(a, tree, 2 * node, lo, mid, carry, has_carry,
                          comb); },
      [&] { scan_down_fwd(a, tree, 2 * node + 1, mid, hi, right_carry, true,
                          comb); });
}

// Reverse inclusive: a[i] <- a[i] + ... + a[n-1]  (combine keeps array
// order: comb(earlier, later)).
template <class T, class Combine>
void scan_down_rev(const slice<T>& a, const slice<T>& tree, size_t node,
                   size_t lo, size_t hi, const T& carry, bool has_carry,
                   const Combine& comb) {
  if (hi - lo == 1) {
    sim::tick(1);
    if (has_carry) a[lo] = comb(a[lo], carry);
    return;
  }
  const size_t mid = lo + (hi - lo) / 2;
  sim::tick(1);
  const T right_fold = tree[2 * node + 1];
  const T left_carry = has_carry ? comb(right_fold, carry) : right_fold;
  fj::invoke(
      [&] { scan_down_rev(a, tree, 2 * node, lo, mid, left_carry, true,
                          comb); },
      [&] { scan_down_rev(a, tree, 2 * node + 1, mid, hi, carry, has_carry,
                          comb); });
}

inline uint64_t reduce_sum_tree(const slice<uint64_t>& a, size_t lo,
                                size_t hi) {
  if (hi - lo == 1) return a[lo];
  const size_t mid = lo + (hi - lo) / 2;
  uint64_t left = 0;
  uint64_t right = 0;
  fj::invoke([&] { left = reduce_sum_tree(a, lo, mid); },
             [&] { right = reduce_sum_tree(a, mid, hi); });
  sim::tick(1);
  return left + right;
}

}  // namespace detail

/// Sum of a[0..n). Under a session: a balanced binary fork tree (one touch
/// per element, O(log n) span). Natively: a plain loop — the values are
/// already computed, and a tree walk would cost more than the adds.
inline uint64_t reduce_sum(const slice<uint64_t>& a) {
  if (a.empty()) return 0;
  if (sim::current_session()) return detail::reduce_sum_tree(a, 0, a.size());
  uint64_t sum = 0;
  const uint64_t* p = a.data();
  for (size_t i = 0; i < a.size(); ++i) sum += p[i];
  return sum;
}

/// In-place inclusive prefix fold: a[i] = comb(a[0], ..., a[i]).
template <class T, class Combine>
void scan_inclusive(const slice<T>& a, const Combine& comb) {
  const size_t n = a.size();
  if (n <= 1) return;
  vec<T> tree(4 * n);
  detail::scan_up(a, tree.s(), 1, 0, n, comb);
  detail::scan_down_fwd(a, tree.s(), 1, 0, n, T{}, false, comb);
}

/// In-place inclusive suffix fold: a[i] = comb(a[i], ..., a[n-1]).
template <class T, class Combine>
void scan_inclusive_reverse(const slice<T>& a, const Combine& comb) {
  const size_t n = a.size();
  if (n <= 1) return;
  vec<T> tree(4 * n);
  detail::scan_up(a, tree.s(), 1, 0, n, comb);
  detail::scan_down_rev(a, tree.s(), 1, 0, n, T{}, false, comb);
}

/// Exclusive prefix sums of uint64 values extracted from a user array,
/// returning the total; out[i] = sum of get(a[j]) for j < i. A building
/// block for (non-oblivious-output) compaction and index assignment; the
/// access pattern is still fixed.
template <class T, class Get>
uint64_t prefix_sum_exclusive(const slice<T>& a, const slice<uint64_t>& out,
                              const Get& get) {
  const size_t n = a.size();
  assert(out.size() == n);
  if (n == 0) return 0;
  fj::for_range(0, n, fj::kDefaultGrain,
                [&](size_t i) { out[i] = get(a[i]); });
  struct Add {
    uint64_t operator()(uint64_t x, uint64_t y) const { return x + y; }
  };
  scan_inclusive(out, Add{});
  const uint64_t total = out[n - 1];
  // Shift right by one (through a scratch buffer) to make it exclusive.
  vec<uint64_t> tmp(n);
  fj::for_range(0, n, fj::kDefaultGrain, [&](size_t i) { tmp[i] = out[i]; });
  fj::for_range(0, n, fj::kDefaultGrain,
                [&](size_t i) { out[i] = i == 0 ? 0 : tmp[i - 1]; });
  return total;
}

}  // namespace dopar::obl
