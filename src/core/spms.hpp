#pragma once
// SPMS — Sample-Partition-Merge Sort (Cole & Ramachandran), the genuine
// comparison sort behind the paper's optimal sorting bounds: the
// comparison phase core::detail::osort runs after the random permutation
// when it is given an SpmsTuning.
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
// the oblivious pipeline guarantees one among real records by
// tie-breaking on the bit-reversed permuted position (Elem::extra, see
// LessKeyExtra; its fillers are identical records). With a weak order
// (massive duplicates) the algorithm stays correct — an oversized bucket
// simply falls back to the merge tree — only the balance guarantee
// weakens.
//
// Work O(n log n), span O(log n) per merge level below the fork tree
// (polylog overall), cache O((n/B) log_M n)-shaped: the partition pass is
// one streaming sweep + a cache-agnostic transpose, and bucket merges are
// sequential scans over segments that fit in cache.
//
// The full oblivious sort with an SPMS comparison phase is
// core::detail::osort(a, seed, kSpmsPractical or kSpmsTheoretical), and
// the "spms" entry of the sorter-backend registry (core/backend.cpp) runs
// it with kSpmsPractical.

#include <cstddef>

#include "obl/elem.hpp"
#include "sim/tracked.hpp"

namespace dopar::core {

/// Tuning knobs of the SPMS recursion. A fanout below 2 is raised to 2
/// (fanout 1 would make the "recursive" chunk the whole array).
struct SpmsTuning {
  size_t fanout;         ///< max runs merged at once (power of two)
  size_t serial_cutoff;  ///< at or below: serial insertion sort
  size_t bucket_target;  ///< partition aims for buckets <= this
};

/// Fanout 16 and a serial cutoff big enough that native runs are not
/// fork-bound, small enough that buckets stay in cache: the "spms"
/// backend's tuning.
inline constexpr SpmsTuning kSpmsPractical{16, 128, 512};

/// Wide fanout (the paper's sqrt-flavoured two-level recursion, clamped)
/// and a small serial cutoff: the recursion structure dominates, which is
/// what the analytic span/work rows of Table 1 model.
inline constexpr SpmsTuning kSpmsTheoretical{32, 32, 256};

namespace detail {

/// SPMS comparison sort of `a` by (key, extra) — see LessKeyExtra. Meant
/// for randomly permuted arrays (Elem::extra = bit-reversed permuted
/// position): the paper proves the access pattern of a comparison sort on
/// a randomly permuted input is simulatable, and the position tie-break
/// gives the strict total order the bucket-balance bound needs.
/// Deterministic: no internal randomness, any input length, sorts in
/// place.
void spms_sort(const slice<obl::Elem>& a, const SpmsTuning& tuning);

}  // namespace detail

}  // namespace dopar::core
