#pragma once
// Oblivious parallel scans (prefix / suffix folds) in the fork-join model.
//
// Scans are the workhorse behind the paper's aggregation and propagation
// primitives (Section F): both reduce to segmented scans, which run in
// O(n) work, O(log n) span and O(n/B) cache misses with an access pattern
// that is a fixed function of n (a static binary tree walk).
//
// Instrumented runs (a sim::Session is installed) execute the classic
// two-pass tree scan expressed with binary forks: an upsweep computes
// subtree folds into a segment tree, the downsweep pushes carries to the
// leaves. That recursion is what the analytic accounting and trace digests
// describe, so it stays. Native runs use a blocked scan instead (fold each
// kScanBlock-record block in parallel, carry serially over the block
// totals, apply the carries in parallel): no 4n tree, and forks per block
// rather than per element. Both access patterns are fixed functions of n.
// No identity element is required (the tree tracks an explicit "empty"
// carry; the blocked scan starts each block from its first record), so any
// associative combine works, including the non-commutative segmented
// operators, and both paths compute the same values.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

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

/// Native scan block: records folded serially per parallel task.
inline constexpr size_t kScanBlock = 1024;

/// Native inclusive scan of p[0..n) in three phases: a parallel serial
/// fold inside each kScanBlock-record block, a serial carry over the
/// block totals, and a parallel carry-apply. Forward: p[i] = comb(p[0],
/// ..., p[i]); reverse: p[i] = comb(p[i], ..., p[n-1]). The combine keeps
/// array order and is associative, so the values equal the tree scan's.
template <bool Reverse, class T, class Combine>
void scan_blocked(T* p, size_t n, const Combine& comb) {
  const size_t nb = (n + kScanBlock - 1) / kScanBlock;
  const auto lo_of = [](size_t b) { return b * kScanBlock; };
  const auto hi_of = [n](size_t b) {
    return std::min(n, (b + 1) * kScanBlock);
  };
  std::vector<T> total(nb);
  fj::for_range(0, nb, 1, [&](size_t b) {
    const size_t lo = lo_of(b), hi = hi_of(b);
    if constexpr (Reverse) {
      for (size_t i = hi - 1; i > lo; --i) p[i - 1] = comb(p[i - 1], p[i]);
      total[b] = p[lo];
    } else {
      for (size_t i = lo + 1; i < hi; ++i) p[i] = comb(p[i - 1], p[i]);
      total[b] = p[hi - 1];
    }
  });
  if (nb == 1) return;
  if constexpr (Reverse) {
    for (size_t b = nb - 1; b-- > 0;) total[b] = comb(total[b], total[b + 1]);
  } else {
    for (size_t b = 1; b < nb; ++b) total[b] = comb(total[b - 1], total[b]);
  }
  // Forward: block b >= 1 takes total[b-1]; reverse: block b < nb-1 takes
  // total[b+1].
  fj::for_range(0, nb - 1, 1, [&](size_t j) {
    const size_t b = Reverse ? j : j + 1;
    const T carry = total[Reverse ? b + 1 : b - 1];
    for (size_t i = lo_of(b); i < hi_of(b); ++i) {
      p[i] = Reverse ? comb(p[i], carry) : comb(carry, p[i]);
    }
  });
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
  if (!sim::current_session()) {
    detail::scan_blocked</*Reverse=*/false>(a.data(), n, comb);
    return;
  }
  vec<T> tree(4 * n);
  detail::scan_up(a, tree.s(), 1, 0, n, comb);
  detail::scan_down_fwd(a, tree.s(), 1, 0, n, T{}, false, comb);
}

/// In-place inclusive suffix fold: a[i] = comb(a[i], ..., a[n-1]).
template <class T, class Combine>
void scan_inclusive_reverse(const slice<T>& a, const Combine& comb) {
  const size_t n = a.size();
  if (n <= 1) return;
  if (!sim::current_session()) {
    detail::scan_blocked</*Reverse=*/true>(a.data(), n, comb);
    return;
  }
  vec<T> tree(4 * n);
  detail::scan_up(a, tree.s(), 1, 0, n, comb);
  detail::scan_down_rev(a, tree.s(), 1, 0, n, T{}, false, comb);
}

/// Exclusive prefix sums of uint64 values extracted from a user array,
/// returning the total; out[i] = sum of get(a[j]) for j < i. A building
/// block for (non-oblivious-output) compaction and index assignment; the
/// access pattern is still fixed. One inclusive scan over the values
/// shifted right by one slot, so no scratch buffer.
template <class T, class Get>
uint64_t prefix_sum_exclusive(const slice<T>& a, const slice<uint64_t>& out,
                              const Get& get) {
  const size_t n = a.size();
  assert(out.size() == n);
  if (n == 0) return 0;
  fj::for_range(0, n, fj::kDefaultGrain, [&](size_t i) {
    out[i] = i == 0 ? 0 : get(a[i - 1]);
  });
  struct Add {
    uint64_t operator()(uint64_t x, uint64_t y) const { return x + y; }
  };
  scan_inclusive(out, Add{});
  return out[n - 1] + get(a[n - 1]);
}

}  // namespace dopar::obl
