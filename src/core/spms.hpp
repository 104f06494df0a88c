#pragma once
// SPMS — Sample-Partition-Merge Sort (Cole & Ramachandran), the genuine
// comparison sort behind the paper's optimal sorting bounds, replacing the
// parallel-merge-sort stand-in that previously backed Variant::Theoretical.
//
// Structure (all deterministic — SPMS itself draws NO randomness; the
// oblivious pipeline's randomness lives entirely in the ORP that precedes
// it, so trace-digest replay is a function of the per-call seed alone):
//
//   SPMS-SORT(A):
//     split A into k chunks, recursively sort them in parallel,
//     then SPMS-MERGE the k sorted runs.
//
//   SPMS-MERGE(runs):
//     * Sample      — every s-th element of each run (deterministic
//                     sampling; the sampled subsequences are themselves
//                     sorted runs, so the sample is sorted by a recursive
//                     SPMS-MERGE, not by a separate sort).
//     * Partition   — every t-th element of the sorted sample is a pivot;
//                     each run is split by binary search at every pivot,
//                     and the k x p segment-length matrix is transposed
//                     (util::transpose_blocks) to bucket-major order so
//                     each bucket's segments land contiguously.
//     * Multiway-merge — fork over the p buckets; inside a bucket the
//                     <= k segments are merged by a binary fork-join
//                     merge tree (parallel two-way merges splitting on
//                     the larger run's median), i.e. merge subtrees in
//                     parallel.
//
// Balance: between consecutive pivots lie <= t sample elements, and each
// run contributes < (its samples in range + 1) * s elements, so a bucket
// holds <= (t + k) * s elements. The tunings below pick s and t so this
// bound is a small constant multiple of the serial cutoff — buckets never
// re-enter the partition phase. The bound needs a strict total order;
// the oblivious pipeline guarantees one by tie-breaking on the permuted
// position (Elem::extra, see LessKeyExtra). With a weak order (massive
// duplicates) the algorithm stays correct — an oversized bucket simply
// falls back to the merge tree — only the balance guarantee weakens.
//
// Work O(n log n), span O(log n) per merge level below the fork tree
// (polylog overall), cache O((n/B) log_M n)-shaped: the partition pass is
// one streaming sweep + a cache-agnostic transpose, and bucket merges are
// sequential scans over segments that fit in cache.
//
// The full oblivious sort with an SPMS comparison phase is available as
// the "spms" entry of the sorter-backend registry (core/backend.cpp) and
// as Variant::Theoretical of core::detail::osort.

#include <cstdint>

#include "core/params.hpp"
#include "obl/elem.hpp"
#include "sim/tracked.hpp"

namespace dopar {
// Forward declaration: core/backend.hpp is kept out of this header to
// avoid a cycle — backend.cpp's SpmsBackend calls spms_osort, which
// consumes a SorterBackend for its ORP bin placements.
class SorterBackend;
}  // namespace dopar

namespace dopar::core {

/// Tuning knobs of the SPMS recursion. Zeros auto-tune from the variant:
///   * Theoretical — wide fanout (the paper's sqrt-flavoured two-level
///     recursion, clamped), small serial cutoff: the recursion structure
///     dominates, which is what analytic span/work measurements model.
///   * Practical   — fanout 16, larger serial cutoff (big enough that
///     native runs are not fork-bound, small enough that buckets stay in
///     cache).
struct SpmsTuning {
  size_t fanout = 0;         ///< max runs merged at once (power of two)
  size_t serial_cutoff = 0;  ///< at or below: serial insertion sort
  size_t bucket_target = 0;  ///< partition aims for buckets <= this

  static SpmsTuning auto_for(Variant v) {
    SpmsTuning t;
    if (v == Variant::Theoretical) {
      t.fanout = 32;
      t.serial_cutoff = 32;
      t.bucket_target = 256;
    } else {
      t.fanout = 16;
      t.serial_cutoff = 128;
      t.bucket_target = 512;
    }
    return t;
  }
};

namespace detail {

/// SPMS comparison sort of `a` by (key, extra) — see LessKeyExtra. Meant
/// for randomly permuted arrays (Elem::extra = permuted position): the
/// paper proves the access pattern of a comparison sort on a randomly
/// permuted input is simulatable, and the position tie-break gives the
/// strict total order the bucket-balance bound needs. Deterministic: no
/// internal randomness, any input length, sorts in place.
void spms_sort(const slice<obl::Elem>& a, const SpmsTuning& tuning);

/// Engine behind the "spms" backend: the full Theorem 3.2 pipeline with
/// the genuine SPMS comparison phase — ORP (all randomness from `seed`),
/// permuted-position tie-break stamping, then SPMS. `params` sizes the
/// ORP (Z, gamma, retry budget); `variant` picks the SPMS tuning.
/// `scratch_sorter` realizes the ORP's internal bin-placement sorts
/// (the backend passes itself, falling back to its comparator network).
void spms_osort(const slice<obl::Elem>& a, uint64_t seed, Variant variant,
                SortParams params, const SorterBackend& scratch_sorter);

}  // namespace detail

}  // namespace dopar::core
