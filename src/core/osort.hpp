#pragma once
// Data-oblivious sorting in the cache-agnostic binary fork-join model —
// the paper's headline result (Theorem 3.2) and its practical variant
// (Section 3.4 / E).
//
// Pipeline: oblivious random permutation (REC-ORBA + per-bin shuffle), then
// any comparison-based sort of the permuted array. osort's `spms` argument
// picks that comparison phase:
//   * empty (the default) — the paper's self-contained variant: pivot
//     selection + REC-SORT, whose base cases bitonic-sort gathered bins.
//     Work O(n log n loglog n), span O(log^2 n loglog n), optimal cache —
//     with small constants.
//     Runtime::sort, sort_records and the "osort" backend run this.
//   * an SpmsTuning — SPMS (Sample-Partition-Merge Sort, core/spms.hpp).
//     Work O(n log n), cache O((n/B) log_M n), span polylog. The "spms"
//     backend runs it with kSpmsPractical; Table 1's theoretical rows
//     with kSpmsTheoretical.
//
// Obliviousness: the permutation phase has input-independent access
// patterns; the comparison phase's pattern depends only on the *random
// ranks* of the input, which are uniform, hence simulatable (paper §C.4).
//
// Input of any length is accepted (power-of-two padding is internal).
// Elem::extra is clobbered (it holds the bit-reversed permuted position
// used for tie-breaking). Keys equal to the filler sentinel 2^64 - 1 and
// filler-flagged records ARE accepted, at every n: ORP routes input
// fillers like any record (real elements first, fillers trailing), and
// the comparison phase orders by (key, bit-reversed permuted position),
// so sentinel-keyed records sort after every smaller key with arbitrary
// relative order among themselves. ORP's fillers and the padding REC-SORT
// adds of its own are core::last_filler(), which orders after them. The composite primitives' sink
// conventions (send-receive re-keys absorbed records to the sentinel;
// scratch arrays carry filler padding) rely on exactly this, so it is
// contract, not accident.
//
// The full sort is itself available as the "osort" and "spms" entries of
// the sorter-backend registry (core/backend.cpp), which is how the
// composite primitives realize their Table 2 sorting-bound rows.

#include <cstdint>
#include <optional>

#include "core/backend.hpp"
#include "core/orp.hpp"
#include "core/params.hpp"
#include "core/recsort.hpp"
#include "core/spms.hpp"
#include "obl/elem.hpp"
#include "obl/kernel/kernel.hpp"
#include "sim/tracked.hpp"
#include "util/bits.hpp"

namespace dopar::core {

namespace detail {

/// Engine behind Runtime::sort and the full-sort backends: obliviously
/// sort `a` by key, ascending. See header comment for the contract.
/// `seed` drives all internal randomness (the Runtime derives it from its
/// master seed). `spms` picks the comparison phase: empty runs REC-SORT,
/// a tuning runs SPMS. `sorter` realizes the pipeline's internal
/// bin-placement sorts.
inline void osort(const slice<obl::Elem>& a, uint64_t seed,
                  std::optional<SpmsTuning> spms = {}, SortParams params = {},
                  const SorterBackend& sorter = default_backend()) {
  using obl::Elem;
  using obl::kernel::Tick;
  const size_t n = a.size();
  if (n <= 1) return;
  const size_t padded = util::pow2_ceil(n);
  if (params.Z == 0) params = SortParams::auto_for(padded);

  for (int attempt = 0;; ++attempt) {
    // ORP pads to `padded` itself and writes the n permuted slots; the
    // tail stays filler, which is exactly what the padding would hold.
    vec<Elem> permv(padded, Elem::filler());
    const slice<Elem> perm = permv.s();
    detail::orp(a, perm.first(n), util::hash_rand(seed, 31 + attempt), params,
                sorter);

    // Bit-reversed permuted position -> Elem::extra: the tie-break that
    // makes (key, extra) a strict total order on the real records, with
    // uniform ranks for equal keys, which both comparison phases rely on.
    // Reversing the bits spreads each run of consecutive positions (one
    // REC-SORT phase-1 partition) over the whole tie-break range, so a
    // partition's copies of one key split across the coarse pivot ranges
    // instead of all landing in one bin. Fillers (ORP's revealed suffix)
    // become last_filler(), ordering after every record keyed 2^64 - 1.
    const unsigned bits = util::log2_exact(padded);
    obl::kernel::transform_range(
        perm, 0, padded, Tick::PerElem, [bits](Elem& e, size_t i) {
          e.extra = e.is_filler()
                        ? last_filler().extra
                        : static_cast<uint32_t>(util::reverse_bits(i, bits));
        });

    try {
      if (spms) {
        // ORP emits real elements first, fillers trailing: the first n
        // slots are exactly the input records. SPMS draws no randomness
        // and cannot fail, so it never retries.
        spms_sort(perm.first(n), *spms);
      } else {
        rec_sort(perm, util::hash_rand(seed, 77'000 + attempt), params);
      }
    } catch (const RecsortOverflow&) {
      if (attempt + 1 >= params.max_retries) throw;
      continue;  // permutation-randomness event: re-permute
    } catch (const PivotFailure&) {
      if (attempt + 1 >= params.max_retries) throw;
      continue;
    }

    obl::kernel::copy_range(a, 0, perm, 0, n, Tick::PerElem);
    return;
  }
}

}  // namespace detail

}  // namespace dopar::core
