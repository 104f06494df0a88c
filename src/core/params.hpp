#pragma once
// Parameter selection for the ORBA / ORP / oblivious-sort pipeline.
//
// The paper's asymptotic choices (Section 3.1): bin capacity Z = Theta(log^2
// n), butterfly branching factor gamma = Theta(log n), bin count beta = 2n/Z
// — all powers of two. REC-SORT uses larger bins of Theta(log^3 n). At the
// problem sizes a unit test or laptop bench runs, the asymptotic formulas
// are floored so that the concentration bounds (overflow probability
// exp(-Omega(Z))) still have teeth.
//
// These are the permutation's parameters only. Which comparison sort runs
// after it is not one of them: core::detail::osort takes the phase as its
// own argument (core/osort.hpp), and the "osort"/"spms" backends fix it.

#include <cstddef>

#include "util/bits.hpp"

namespace dopar::core {

struct SortParams {
  size_t Z = 0;        ///< ORBA bin capacity (power of two); 0 = auto
  size_t gamma = 0;    ///< butterfly branching factor (power of two); 0 = auto
  size_t rec_bin = 0;  ///< REC-SORT target bin size; 0 = auto
  int max_retries = 16;  ///< re-randomization attempts on bin overflow

  /// Fill in the auto fields for input size n (n a power of two).
  static SortParams auto_for(size_t n) {
    SortParams p;
    const size_t lg = n <= 2 ? 1 : util::log2_floor(n);
    p.Z = util::pow2_ceil(lg * lg < 64 ? 64 : lg * lg);
    // Degenerate tiny inputs: a bin must hold at least one input slot
    // (capacity Z, of which Z/2 are input), so Z >= 2.
    if (p.Z > n) p.Z = n < 2 ? 2 : n;
    p.gamma = util::pow2_ceil(lg < 4 ? 4 : lg);
    const size_t want = lg * lg * lg;
    p.rec_bin = util::pow2_ceil(want < 256 ? 256 : want);
    if (p.rec_bin > n) p.rec_bin = n;
    return p;
  }

  size_t beta_for(size_t n) const { return 2 * n / Z; }
};

}  // namespace dopar::core
