#pragma once
// REC-ORBA: recursive, cache-agnostic, binary fork-join oblivious random
// bin assignment (paper Sections 3.1–3.2, C.2, D.1). The core of the
// paper's sorting result.
//
// Each real input element draws a uniform random destination among beta =
// 2n/Z bins; the elements are routed to their bins through a gamma-way
// butterfly network realized recursively:
//   * base case (<= gamma bins): one oblivious bin placement consuming the
//     next log2(#bins) label bits,
//   * recursive case: split the beta bins into beta1 partitions of beta2
//     consecutive bins; recursively distribute each partition on the high
//     log2(beta2) bits; transpose the beta1 x beta2 matrix of bins so bins
//     with equal high bits meet; recursively distribute each row on the
//     remaining log2(beta1) bits.
// The recursion runs on two buffers of beta*Z records that ping-pong:
// every phase writes the other buffer, so no node allocates scratch or
// copies its result back (rec_orba's `src` is clobbered).
// Costs (Lemma 3.1): O(n log n) work, O(log n loglog n) span, and
// cache-agnostic O((n/B) log_M n) misses.
//
// The access pattern is a fixed function of (n, Z, gamma): labels influence
// only record *contents* inspected through branchless selects inside bin
// placement. Bin overflow (negligible probability, independent of input
// data) surfaces as obl::BinOverflow; callers re-randomize.

#include <cassert>
#include <cstdint>
#include <utility>

#include "core/backend.hpp"
#include "core/params.hpp"
#include "core/routed.hpp"
#include "forkjoin/api.hpp"
#include "obl/binplace.hpp"
#include "obl/elem.hpp"
#include "sim/tracked.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"
#include "util/transpose.hpp"

namespace dopar::core {

namespace detail {

/// Distribute `src` (= nbins bins of Z records) into nbins bins of `dst`
/// according to label bits [bit_lo, bit_lo + log2 nbins) counted from the
/// most significant of `total_bits`. The two buffers ping-pong: phase 1
/// writes src -> dst, the transpose dst -> src, phase 2 src -> dst, so no
/// recursion node allocates scratch or copies back. `src` is clobbered.
inline void rec_orba(const slice<Routed>& src, const slice<Routed>& dst,
                     size_t nbins, size_t Z, size_t gamma, unsigned bit_lo,
                     unsigned total_bits, const SorterBackend& sorter) {
  const unsigned bits_here = util::log2_exact(nbins);
  if (nbins <= gamma) {
    const unsigned drop = total_bits - bit_lo - bits_here;
    const uint64_t mask = nbins - 1;
    obl::bin_placement<Routed>(
        src, dst, nbins, Z,
        [drop, mask](const Routed& r) { return (r.label >> drop) & mask; },
        sorter);
    return;
  }

  const size_t beta1 = size_t{1} << ((bits_here + 1) / 2);
  const size_t beta2 = nbins / beta1;
  const unsigned bits2 = util::log2_exact(beta2);

  // Phase 1: each of the beta1 partitions (beta2 consecutive bins)
  // distributes on the high log2(beta2) bits.
  fj::for_range(0, beta1, 1, [&](size_t j) {
    rec_orba(src.sub(j * beta2 * Z, beta2 * Z),
             dst.sub(j * beta2 * Z, beta2 * Z), beta2, Z, gamma, bit_lo,
             total_bits, sorter);
  });

  // Transpose the beta1 x beta2 matrix of bins: bins with equal high bits
  // become consecutive.
  util::transpose_blocks(dst, src, beta1, beta2, Z);

  // Phase 2: each row of beta1 bins distributes on the low log2(beta1)
  // bits; the concatenation of rows is the final bin order.
  fj::for_range(0, beta2, 1, [&](size_t i) {
    rec_orba(src.sub(i * beta1 * Z, beta1 * Z),
             dst.sub(i * beta1 * Z, beta1 * Z), beta1, Z, gamma,
             bit_lo + bits2, total_bits, sorter);
  });
}

}  // namespace detail

/// Result of an ORBA run: beta bins of Z records each, concatenated.
struct OrbaOutput {
  vec<Routed> bins;  ///< beta * Z records
  size_t beta = 0;
  size_t Z = 0;
};

namespace detail {

/// Engine behind Runtime::bin_assign: obliviously assign each element of
/// `in` (|in| = n, a power of two, n >= Z) to a uniformly random bin among
/// beta = 2n/Z bins padded to capacity Z. `seed` drives the label choice;
/// fresh seeds give fresh assignments. Throws obl::BinOverflow with
/// negligible, input-independent probability.
inline OrbaOutput orba(const slice<obl::Elem>& in, uint64_t seed,
                       const SortParams& params,
                       const SorterBackend& sorter = default_backend()) {
  const size_t n = in.size();
  assert(util::is_pow2(n));
  const size_t Z = params.Z;
  const size_t beta = params.beta_for(n);
  assert(util::is_pow2(Z) && util::is_pow2(beta) && beta >= 1);
  const unsigned label_bits = beta == 1 ? 1 : util::log2_exact(beta);

  // Initial layout: bin b holds the Z/2 inputs in[b*Z/2 .. (b+1)*Z/2) plus
  // Z/2 fillers; every real element draws a uniform label.
  vec<Routed> initv(beta * Z);
  const slice<Routed> init = initv.s();
  fj::for_range(0, beta * Z, fj::kDefaultGrain, [&](size_t i) {
    sim::tick(1);
    const size_t b = i / Z;
    const size_t k = i % Z;
    Routed r;
    if (k < Z / 2) {
      const size_t src = b * (Z / 2) + k;
      r.e = in[src];
      r.label = util::hash_rand(seed, src) & ((uint64_t{1} << label_bits) - 1);
      if (beta == 1) r.label = 0;
    } else {
      r = Routed::filler();
    }
    init[i] = r;
  });

  OrbaOutput out;
  out.beta = beta;
  out.Z = Z;
  if (beta == 1) {
    out.bins = std::move(initv);
  } else {
    out.bins = vec<Routed>(beta * Z);
    rec_orba(init, out.bins.s(), beta, Z, params.gamma, 0, label_bits,
             sorter);
  }
  return out;
}

}  // namespace detail

}  // namespace dopar::core
