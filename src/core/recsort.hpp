#pragma once
// REC-SORT: the paper's practical comparison sort for randomly permuted
// arrays (Section E.2).
//
// Same gamma-way butterfly recursion as REC-ORBA, but elements are routed
// by a precomputed sorted pivot array instead of random label bits: at the
// base case the live records of a group of <= gamma bins are gathered,
// bitonic-sorted and split by the pivots into its output bins; the
// recursive case sorts partitions by coarse pivots (every beta1-th
// pivot), transposes the bin matrix, and refines each row with its own
// pivot range. Afterwards every bin holds exactly the elements of one
// inter-pivot range, in final bin order, and already sorted: a base case
// writes each of its output bins as one contiguous slice of its sorted
// buffer, and the transposes after it move whole bins. So the output is
// the concatenation of the bins' live prefixes, with no pass over the bins
// after the recursion. Like REC-ORBA, the recursion ping-pongs between two
// sets of bins (recsort_rec's `src` is clobbered): no node allocates bin
// scratch or copies its result back.
//
// A bin is a live prefix of count[b] records followed by slots that are
// moved but never read. The padding REC-SORT sorts (the gathered records
// and the pivot sample) is last_filler(), which orders after every record
// under LessKeyExtra, so a real record keyed 2^64 - 1 still sorts among
// the live records.
//
// Bins have variable load; capacity is twice the expected load and a
// violation (probability exp(-Omega(bin size)), independent of the input
// values thanks to the random permutation + position tie-breaks) raises
// RecsortOverflow so the caller re-permutes. REC-SORT itself need not be
// oblivious — the paper proves the access pattern of a comparison sort on
// a randomly permuted input is simulatable.

#include <cassert>
#include <cstdint>
#include <stdexcept>

#include "core/params.hpp"
#include "core/pivots.hpp"
#include "forkjoin/api.hpp"
#include "obl/bitonic_ca.hpp"
#include "obl/elem.hpp"
#include "obl/kernel/kernel.hpp"
#include "obl/scan.hpp"
#include "sim/tracked.hpp"
#include "util/bits.hpp"
#include "util/transpose.hpp"

namespace dopar::core {

struct RecsortOverflow : std::runtime_error {
  RecsortOverflow() : std::runtime_error("REC-SORT: bin overflow") {}
};

namespace detail {

using obl::Elem;

/// Binary search: first index in [0, n) of sorted `a` not less than x.
inline size_t lb(const slice<Elem>& a, size_t n, const Elem& x,
                 const LessKeyExtra& less) {
  size_t lo = 0, hi = n;
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

/// State: nbins bins of capacity `cap`, of which only the first `count[b]`
/// slots hold records. `data` is the flat bin storage, `count` the per-bin
/// loads.
struct RsView {
  slice<Elem> data;
  slice<uint32_t> count;
  size_t cap;

  /// The k bins starting at bin b.
  RsView bins(size_t b, size_t k) const {
    return RsView{data.sub(b * cap, k * cap), count.sub(b, k), cap};
  }
};

/// Base case: gather the live records of the <= gamma bins of `src`,
/// bitonic sort them, split by the nbins-1 pivots into the nbins bins of
/// `dst`.
inline void recsort_base(const RsView& src, const RsView& dst, size_t nbins,
                         const slice<Elem>& pivots) {
  const LessKeyExtra less{};
  // Bin b's live prefix lands at off[b], an exclusive prefix over the loads.
  vec<uint64_t> offv(nbins);
  const slice<uint64_t> off = offv.s();
  const size_t live = obl::prefix_sum_exclusive(
      src.count, off, [](const uint32_t& c) { return uint64_t{c}; });
  vec<Elem> tmpv(util::pow2_ceil(live < 1 ? 1 : live), last_filler());
  const slice<Elem> tmp = tmpv.s();
  fj::for_range(0, nbins, 1, [&](size_t b) {
    obl::kernel::copy_range(tmp, off[b], src.data, b * src.cap, src.count[b],
                            obl::kernel::Tick::PerElem);
  });
  obl::bitonic_sort_ca(tmp, /*up=*/true, less);

  // Segment boundaries: bin j receives [start[j], start[j+1]).
  vec<uint64_t> startv(nbins + 1);
  const slice<uint64_t> start = startv.s();
  start[0] = 0;
  start[nbins] = live;
  fj::for_range(1, nbins, fj::kDefaultGrain, [&](size_t j) {
    start[j] = lb(tmp, live, pivots[j - 1], less);
  });

  for (size_t j = 0; j < nbins; ++j) {
    const size_t len = start[j + 1] - start[j];
    if (len > dst.cap) throw RecsortOverflow{};
    dst.count[j] = static_cast<uint32_t>(len);
  }
  fj::for_range(0, nbins, 1, [&](size_t j) {
    obl::kernel::copy_range_serial(dst.data, j * dst.cap, tmp, start[j],
                                   start[j + 1] - start[j],
                                   obl::kernel::Tick::PerElem);
  });
}

/// Route the bins of `src` into the bins of `dst` by the nbins-1 sorted
/// pivots. The two views ping-pong like REC-ORBA's buffers: phase 1
/// writes src -> dst, the transpose dst -> src, phase 2 src -> dst, so no
/// node allocates bin scratch or copies back. `src` is clobbered.
inline void recsort_rec(const RsView& src, const RsView& dst, size_t nbins,
                        size_t gamma, const slice<Elem>& pivots) {
  assert(pivots.size() == nbins - 1);
  if (nbins <= gamma) {
    recsort_base(src, dst, nbins, pivots);
    return;
  }
  const unsigned bits = util::log2_exact(nbins);
  const size_t beta1 = size_t{1} << ((bits + 1) / 2);
  const size_t beta2 = nbins / beta1;

  // Coarse pivots: every beta1-th pivot separates the beta2 phase-1 ranges.
  vec<Elem> coarsev(beta2 - 1);
  const slice<Elem> coarse = coarsev.s();
  obl::kernel::generate_range(
      coarse, 0, beta2 - 1, obl::kernel::Tick::PerElem,
      [&](Elem& v, size_t d) { v = pivots[(d + 1) * beta1 - 1]; });

  // Phase 1: each partition of beta2 consecutive bins splits into the
  // beta2 coarse ranges.
  fj::for_range(0, beta1, 1, [&](size_t j) {
    recsort_rec(src.bins(j * beta2, beta2), dst.bins(j * beta2, beta2), beta2,
                gamma, coarse);
  });

  // Transpose bins (and their load counters): row d of the transposed
  // matrix holds, from every partition, the bin destined for coarse range
  // d — i.e. one phase-2 subproblem.
  util::transpose_blocks(dst.data, src.data, beta1, beta2, src.cap);
  util::transpose_blocks(dst.count, src.count, beta1, beta2, size_t{1});

  // Phase 2: refine each row with its own pivot range
  // pivots[d*beta1 .. d*beta1 + beta1 - 2].
  fj::for_range(0, beta2, 1, [&](size_t d) {
    recsort_rec(src.bins(d * beta1, beta1), dst.bins(d * beta1, beta1), beta1,
                gamma, pivots.sub(d * beta1, beta1 - 1));
  });
}

}  // namespace detail

/// Sort the randomly permuted array `a` (|a| a power of two). Fillers, if
/// any, must form a suffix of `a` (the natural shape after power-of-two
/// padding); they end up as a suffix of the output. Elem::extra must hold
/// a distinct tie-break below 2^32 - 1 (osort's bit-reversed permuted
/// position). Throws RecsortOverflow
/// (re-permute and retry) with negligible probability.
inline void rec_sort(const slice<obl::Elem>& a, uint64_t seed,
                     const SortParams& params) {
  using obl::Elem;
  const size_t n = a.size();
  assert(util::is_pow2(n));
  const LessKeyExtra less{};

  size_t live_total = 0;
  for (size_t i = 0; i < n; ++i) {
    if (a.raw(i).is_filler()) break;
    ++live_total;
  }

  const size_t bin = params.rec_bin >= n ? n : params.rec_bin;
  const size_t r = n / bin;
  if (r <= 2 || live_total < 4 * r) {
    // Tiny input (or nearly-all-filler padding): one bitonic pass suffices.
    obl::bitonic_sort_ca(a, /*up=*/true, less);
    return;
  }

  vec<Elem> pivots = select_pivots(a.first(live_total), r, seed);

  // Initial bins: r bins of `bin` consecutive elements, capacity 2x.
  // Loads count only live elements (fillers are a suffix of `a`). REC-SORT
  // routes them into the second set of r bins.
  const size_t cap = 2 * bin;
  vec<Elem> datav(r * cap), outv(r * cap);
  vec<uint32_t> countv(r), outcv(r);
  const slice<Elem> data = datav.s();
  const slice<uint32_t> count = countv.s();
  fj::for_range(0, r, 1, [&](size_t b) {
    const size_t lo = b * bin;
    const size_t live_here =
        live_total <= lo ? 0 : (live_total - lo < bin ? live_total - lo : bin);
    obl::kernel::copy_range_serial(data, b * cap, a, lo, live_here,
                                   obl::kernel::Tick::PerElem);
    count[b] = static_cast<uint32_t>(live_here);
  });

  const detail::RsView out{outv.s(), outcv.s(), cap};
  detail::recsort_rec(detail::RsView{data, count, cap}, out, r, params.gamma,
                      pivots.s());

  // Every bin's live prefix is sorted (header comment): concatenate them.
  // Prefix sums of loads give each bin's output offset.
  vec<uint64_t> offs(r);
  const slice<uint64_t> of = offs.s();
  const uint64_t total = obl::prefix_sum_exclusive(
      out.count, of, [](const uint32_t& c) { return uint64_t{c}; });
  if (total != live_total) throw RecsortOverflow{};  // lost elements
  fj::for_range(0, r, 1, [&](size_t b) {
    const size_t base = of[b], cnt = out.count[b];
    obl::kernel::copy_range_serial(a, base, out.data, b * cap, cnt,
                                   obl::kernel::Tick::PerElem);
  });
  obl::kernel::fill_range(a, live_total, n - live_total, Elem::filler(),
                          obl::kernel::Tick::None);
}

}  // namespace dopar::core
