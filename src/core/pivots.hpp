#pragma once
// Pivot selection for REC-SORT (paper Section E.2, "Pivot selection").
//
// From a randomly permuted input, sample each element with probability
// ~1/log n (a stateless coin per index, so the sampling loop is a parallel
// O(log n)-span pass), sort the sample with the cache-agnostic bitonic
// network, and read off r-1 evenly spaced pivots that approximate the
// (n/r)-quantiles. Sorting the ~n/log n sample costs O(n log n) work and
// O(log^2 n loglog n) span — the span bottleneck of the practical variant,
// exactly as the paper reports.
//
// REC-SORT runs *after* the oblivious permutation, so none of this needs to
// be oblivious; ties are broken by the bit-reversed permuted position
// (Elem::extra) so duplicate-heavy inputs still split evenly.

#include <cassert>
#include <stdexcept>

#include "forkjoin/api.hpp"
#include "obl/bitonic_ca.hpp"
#include "obl/elem.hpp"
#include "obl/scan.hpp"
#include "sim/tracked.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace dopar::core {

/// Lexicographic (key, extra) order: the comparator of the whole REC-SORT
/// phase. `extra` holds the element's bit-reversed position in the
/// permuted array, so equal keys have uniformly random relative ranks.
struct LessKeyExtra {
  bool operator()(const obl::Elem& a, const obl::Elem& b) const {
    if (a.key != b.key) return a.key < b.key;
    return a.extra < b.extra;
  }
};

/// REC-SORT's own padding: a filler that orders after every record under
/// LessKeyExtra, those keyed 2^64 - 1 included (a real record's extra is
/// its bit-reversed permuted position, below 2^32 - 1). Elem::filler() has
/// extra 0 and would order before them.
inline obl::Elem last_filler() {
  obl::Elem e = obl::Elem::filler();
  e.extra = ~uint32_t{0};
  return e;
}

struct PivotFailure : std::runtime_error {
  PivotFailure()
      : std::runtime_error("pivot selection: sample too small (re-seed)") {}
};

/// Select r-1 approximate quantile pivots from the permuted array `data`.
/// Returns them sorted by (key, extra).
inline vec<obl::Elem> select_pivots(const slice<obl::Elem>& data, size_t r,
                                    uint64_t seed) {
  const size_t n = data.size();
  assert(r >= 2);
  const double p = 1.0 / util::log2_clamped(n);
  const uint64_t threshold =
      static_cast<uint64_t>(p * 18446744073709551615.0);

  // Parallel coin flips + prefix sums to compact the sample.
  vec<uint64_t> flags(n);
  const slice<uint64_t> fl = flags.s();
  fj::for_range(0, n, fj::kDefaultGrain, [&](size_t i) {
    sim::tick(1);
    fl[i] = util::hash_rand(seed, i) < threshold ? 1u : 0u;
  });
  vec<uint64_t> pos(n);
  const uint64_t count = obl::prefix_sum_exclusive(
      fl, pos.s(), [](const uint64_t& v) { return v; });
  if (count < 2 * r) throw PivotFailure{};

  const size_t padded = util::pow2_ceil(count);
  vec<obl::Elem> samplev(padded, last_filler());
  const slice<obl::Elem> sample = samplev.s();
  fj::for_range(0, n, fj::kDefaultGrain, [&](size_t i) {
    if (fl[i]) sample[pos[i]] = data[i];
  });

  obl::bitonic_sort_ca(sample, /*up=*/true, LessKeyExtra{});

  vec<obl::Elem> pivots(r - 1);
  const slice<obl::Elem> pv = pivots.s();
  fj::for_range(0, r - 1, fj::kDefaultGrain, [&](size_t i) {
    sim::tick(1);
    pv[i] = sample[(i + 1) * count / r];
  });
  return pivots;
}

}  // namespace dopar::core
