// SPMS (Sample-Partition-Merge Sort) engine — see core/spms.hpp for the
// algorithm overview and the bucket-balance argument. Everything here is
// concrete on obl::Elem under the (key, extra) order of the oblivious
// pipeline, which is what lets the engine live in one TU instead of a
// header template.

#include "core/spms.hpp"

#include <vector>

#include "core/pivots.hpp"
#include "forkjoin/api.hpp"
// The generic binary-search and (parallel) two-way merge templates live
// with the insecure merge sort: like SPMS, it is a comparison sort whose
// obliviousness comes from running on a randomly permuted input, so the
// building blocks are the same model class — reuse them rather than
// fork them.
#include "insecure/mergesort.hpp"
#include "obl/kernel/kernel.hpp"
#include "obl/scan.hpp"
#include "sim/tracked.hpp"
#include "util/bits.hpp"
#include "util/transpose.hpp"

namespace dopar::core {

namespace detail {

namespace {

using obl::Elem;

constexpr LessKeyExtra kLess{};

/// Binary fork-join merge tree over segs[lo, hi): children merge into
/// `tmp`'s halves in parallel, the parent two-way-merges them into `dst`.
/// The ping-pong (dst/tmp swap per level) keeps every element moving
/// through at most log(hi-lo) buffers. Segment storage is never written.
void merge_segs(const std::vector<slice<Elem>>& segs, size_t lo, size_t hi,
                const slice<Elem>& dst, const slice<Elem>& tmp) {
  if (hi - lo == 1) {
    const slice<Elem>& s = segs[lo];
    obl::kernel::copy_range(dst, 0, s, 0, s.size(), obl::kernel::Tick::PerElem);
    return;
  }
  const size_t mid = lo + (hi - lo) / 2;
  size_t left = 0;
  for (size_t i = lo; i < mid; ++i) left += segs[i].size();
  const size_t right = dst.size() - left;
  fj::invoke(
      [&] { merge_segs(segs, lo, mid, tmp.first(left), dst.first(left)); },
      [&] {
        merge_segs(segs, mid, hi, tmp.sub(left, right),
                   dst.sub(left, right));
      });
  // Parallel two-way merge (median split on the larger run): the node of
  // the bucket merge tree — "merge subtrees in parallel".
  insecure::detail::merge_par(tmp.first(left), tmp.sub(left, right), dst,
                              kLess);
}

/// SPMS-MERGE: merge the sorted `runs` into `out` (|out| = total size).
/// Sample -> partition (transpose-based) -> per-bucket parallel merge.
void multiway_merge(const std::vector<slice<Elem>>& runs,
                    const slice<Elem>& out, const SpmsTuning& tuning) {
  const size_t k = runs.size();
  const size_t n = out.size();
  if (n == 0) return;
  if (k == 1) {
    obl::kernel::copy_range(out, 0, runs[0], 0, n, obl::kernel::Tick::PerElem);
    return;
  }

  // Deterministic sampling frame: every s-th element of each run; every
  // t-th element of the sorted sample is a pivot. A bucket then holds at
  // most (t + k) * s = 2ks elements (see spms.hpp), and s is picked so
  // that bound is bucket_target / 2.
  const size_t s =
      tuning.bucket_target / (4 * k) < 2 ? 2 : tuning.bucket_target / (4 * k);
  const size_t t = k;
  size_t sample_total = 0;
  for (size_t i = 0; i < k; ++i) sample_total += runs[i].size() / s;

  // Small merges (or too few samples to cut even two buckets): the
  // partition machinery cannot help — run the merge tree directly.
  if (n <= 2 * tuning.bucket_target || sample_total < 2 * t) {
    vec<Elem> tmpv(n);
    merge_segs(runs, 0, k, out, tmpv.s());
    return;
  }

  // ---- Sample: gather every s-th element, run-major. Each sampled
  // subsequence is itself sorted, so sorting the sample is a recursive
  // SPMS-MERGE of k runs of total size n/s.
  std::vector<size_t> soff(k + 1, 0);
  for (size_t i = 0; i < k; ++i) soff[i + 1] = soff[i] + runs[i].size() / s;
  vec<Elem> samplev(sample_total);
  const slice<Elem> sample = samplev.s();
  fj::for_range(0, k, 1, [&](size_t i) {
    const size_t c = runs[i].size() / s;
    obl::kernel::generate_range(
        sample, soff[i], soff[i] + c, obl::kernel::Tick::PerElem,
        [&](Elem& v, size_t idx) {
          const size_t j = idx - soff[i];
          v = runs[i][(j + 1) * s - 1];
        });
  });
  std::vector<slice<Elem>> sruns(k);
  for (size_t i = 0; i < k; ++i) {
    sruns[i] = sample.sub(soff[i], soff[i + 1] - soff[i]);
  }
  vec<Elem> sortedv(sample_total);
  const slice<Elem> sorted = sortedv.s();
  multiway_merge(sruns, sorted, tuning);

  // ---- Partition: p buckets separated by the p-1 pivots
  // sorted[t-1], sorted[2t-1], ...; each run is split at every pivot by
  // binary search. Boundary matrix B is k x (p+1), run-major.
  const size_t p = sample_total / t;
  vec<uint64_t> boundv(k * (p + 1));
  const slice<uint64_t> bound = boundv.s();
  obl::kernel::generate_range(
      bound, 0, k * (p + 1), obl::kernel::Tick::PerElem,
      [&](uint64_t& v, size_t idx) {
        const size_t i = idx / (p + 1);
        const size_t j = idx % (p + 1);
        if (j == 0) {
          v = 0;
        } else if (j == p) {
          v = runs[i].size();
        } else {
          v = insecure::detail::lower_bound(runs[i], sorted[j * t - 1], kLess);
        }
      });

  // Segment lengths, run-major k x p, transposed to bucket-major p x k so
  // that one exclusive prefix sum yields each segment's slot in the
  // bucket-grouped scratch layout (and each bucket's output offset).
  vec<uint64_t> len_rm(k * p), len_bm(k * p);
  obl::kernel::generate_range(
      len_rm.s(), 0, k * p, obl::kernel::Tick::PerElem,
      [&](uint64_t& v, size_t idx) {
        const size_t i = idx / p;
        const size_t j = idx % p;
        v = bound[i * (p + 1) + j + 1] - bound[i * (p + 1) + j];
      });
  util::transpose_blocks(len_rm.s(), len_bm.s(), k, p);

  vec<uint64_t> segoffv(k * p);
  const slice<uint64_t> segoff = segoffv.s();
  const uint64_t routed = obl::prefix_sum_exclusive(
      len_bm.s(), segoff, [](const uint64_t& v) { return v; });
  (void)routed;
  assert(routed == n);

  // Gather segments into the bucket-grouped scratch.
  vec<Elem> scratchv(n);
  const slice<Elem> scratch = scratchv.s();
  fj::for_range(0, k * p, 1, [&](size_t idx) {
    const size_t j = idx / k;  // bucket
    const size_t i = idx % k;  // run
    const size_t lo = bound[i * (p + 1) + j];
    const size_t len = bound[i * (p + 1) + j + 1] - lo;
    const slice<Elem> src = runs[i];
    const size_t base = segoff[idx];
    // Serial per-segment copy (the fork happens over segments, above).
    obl::kernel::copy_range_serial(scratch, base, src, lo, len,
                                   obl::kernel::Tick::PerElem);
  });

  // ---- Multiway-merge: fork over buckets; each bucket's <= k segments
  // go through the binary merge tree into their slot of `out`.
  fj::for_range(0, p, 1, [&](size_t j) {
    const size_t b0 = segoff[j * k];
    const size_t b1 = j + 1 < p ? segoff[(j + 1) * k] : n;
    const size_t blen = b1 - b0;
    if (blen == 0) return;
    std::vector<slice<Elem>> segs(k);
    for (size_t i = 0; i < k; ++i) {
      const size_t off = segoff[j * k + i];
      const size_t end = j * k + i + 1 < k * p ? segoff[j * k + i + 1] : n;
      segs[i] = scratch.sub(off, end - off);
    }
    vec<Elem> tmpv(blen);
    merge_segs(segs, 0, k, out.sub(b0, blen), tmpv.s());
  });
}

void spms_sort_rec(const slice<Elem>& a, const SpmsTuning& tuning) {
  const size_t n = a.size();
  if (n <= tuning.serial_cutoff || n <= 1) {
    insecure::detail::insertion_sort(a, kLess);
    return;
  }
  // Fork: k chunks sorted recursively in parallel.
  const size_t chunk = util::ceil_div(n, tuning.fanout);
  const size_t k = util::ceil_div(n, chunk);
  fj::for_range(0, k, 1, [&](size_t c) {
    const size_t lo = c * chunk;
    const size_t len = lo + chunk <= n ? chunk : n - lo;
    spms_sort_rec(a.sub(lo, len), tuning);
  });
  std::vector<slice<Elem>> runs(k);
  for (size_t c = 0; c < k; ++c) {
    const size_t lo = c * chunk;
    runs[c] = a.sub(lo, lo + chunk <= n ? chunk : n - lo);
  }
  vec<Elem> outv(n);
  multiway_merge(runs, outv.s(), tuning);
  obl::kernel::copy_range(a, 0, outv.s(), 0, n, obl::kernel::Tick::PerElem);
}

}  // namespace

void spms_sort(const slice<obl::Elem>& a, const SpmsTuning& tuning) {
  if (a.size() <= 1) return;
  SpmsTuning t = tuning;
  if (t.fanout < 2) t.fanout = 2;
  spms_sort_rec(a, t);
}

}  // namespace detail

}  // namespace dopar::core
