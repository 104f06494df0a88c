#pragma once
// Oblivious random permutation (paper Section C.3, D.2).
//
// ORBA followed by: (1) assigning each slot a fresh 64-bit random label,
// (2) obliviously sorting *within each bin* by that label (fillers get the
// max label and sink to the end of their bin), and (3) removing fillers
// with a non-oblivious prefix-sum compaction: one exclusive prefix sum
// over the bins' live flags gives every real element its output slot, and
// one scatter writes it straight into the caller's buffer. Asharov et al.
// / Chan et al. prove the final bin loads are simulatable from |I| alone,
// so the reveal in step (3) is safe; steps (1)–(2) have fixed access
// patterns.
//
// Label collisions would bias the permutation; with 64-bit labels inside
// bins of Z <= 2^20 the collision probability is <= Z^2/2^64 per bin —
// negligible (the paper uses log n loglog n-bit labels for the same
// reason). A collision is *detected* and re-randomized anyway, keeping the
// output distribution exactly uniform over the no-collision event.
//
// On bin overflow inside ORBA (negligible, input-independent probability)
// the whole pipeline retries with a fresh seed, which preserves both
// obliviousness and the output distribution.

#include <cassert>
#include <stdexcept>

#include "core/backend.hpp"
#include "core/orba.hpp"
#include "core/params.hpp"
#include "forkjoin/api.hpp"
#include "obl/bitonic_ca.hpp"
#include "obl/kernel/kernel.hpp"
#include "obl/scan.hpp"
#include "sim/tracked.hpp"
#include "util/rng.hpp"

namespace dopar::core {

struct PermuteFailure : std::runtime_error {
  PermuteFailure()
      : std::runtime_error(
            "oblivious random permutation: retries exhausted (negligible-"
            "probability event; check parameterization)") {}
};

namespace detail {

struct ByLabel {
  bool operator()(const Routed& a, const Routed& b) const {
    return a.label < b.label;
  }
};

/// One ORP attempt over the power-of-two padded `in`: writes the first
/// |out| permuted records (real elements first, fillers after) straight
/// into `out`, which must hold every real element of `in` and be no
/// longer than `in`. Throws obl::BinOverflow on bin overflow; retries are
/// orchestrated by orp() below.
inline void orp_attempt(const slice<obl::Elem>& in,
                        const slice<obl::Elem>& out, uint64_t seed,
                        const SortParams& params,
                        const SorterBackend& sorter = default_backend()) {
  OrbaOutput bins = detail::orba(in, seed, params, sorter);
  const slice<Routed> w = bins.bins.s();
  const size_t total = bins.beta * bins.Z;

  // Fresh per-slot labels; fillers get the max label.
  const uint64_t seed2 = util::hash_rand(seed, 0x0b5e55ed);
  fj::for_range(0, total, fj::kDefaultGrain, [&](size_t i) {
    sim::tick(1);
    Routed r = w[i];
    const uint64_t fresh = util::hash_rand(seed2, i) >> 1;  // keep < 2^63
    r.label = obl::oselect<uint64_t>(r.e.is_filler(), ~uint64_t{0}, fresh);
    w[i] = r;
  });

  // Sort each bin by label (fixed pattern per bin).
  fj::for_range(0, bins.beta, 1, [&](size_t b) {
    obl::bitonic_sort_ca(w.sub(b * bins.Z, bins.Z), /*up=*/true,
                         detail::ByLabel{});
  });

  // Detect label collisions between adjacent slots of a bin (negligible;
  // re-randomized by the caller to keep the permutation exactly uniform).
  vec<uint64_t> coll(total);
  const slice<uint64_t> cl = coll.s();
  fj::for_range(0, total, fj::kDefaultGrain, [&](size_t i) {
    const bool same_bin = (i % bins.Z) != 0;
    const Routed cur = w[i];
    const Routed prev = w[i == 0 ? 0 : i - 1];
    cl[i] = (same_bin && !cur.e.is_filler() && cur.label == prev.label) ? 1u
                                                                        : 0u;
  });
  if (obl::reduce_sum(cl) != 0) throw obl::BinOverflow{};

  // Reveal loads: scatter the real elements, in bin order, to the front of
  // `out` at their prefix-sum positions. Input fillers (power-of-two
  // padding) were dropped by ORBA and are re-materialized as the suffix.
  size_t real_inputs = 0;
  for (size_t i = 0; i < in.size(); ++i) real_inputs += !in.raw(i).is_filler();
  assert(real_inputs <= out.size() && out.size() <= in.size());
  vec<uint64_t> posv(total);
  const slice<uint64_t> pos = posv.s();
  const uint64_t live = obl::prefix_sum_exclusive(
      w, pos, [](const Routed& r) { return r.e.is_filler() ? 0u : 1u; });
  if (live != real_inputs) throw obl::BinOverflow{};  // impossible post-ORBA
  fj::for_range(0, total, fj::kDefaultGrain, [&](size_t i) {
    const Routed r = w[i];
    if (!r.e.is_filler()) out[pos[i]] = r.e;  // data-dependent: allowed here
  });
  obl::kernel::fill_range(out, live, out.size() - live, obl::Elem::filler(),
                          obl::kernel::Tick::None);
}

/// Engine behind Runtime::permute: obliviously permute `in` into `out`
/// uniformly at random (|out| = |in|, any length — power-of-two padding is
/// internal; real elements come out first, input fillers trail).
inline void orp(const slice<obl::Elem>& in, const slice<obl::Elem>& out,
                uint64_t seed, SortParams params = {},
                const SorterBackend& sorter = default_backend()) {
  using obl::Elem;
  const size_t n = in.size();
  assert(out.size() == n);
  const size_t padded = util::pow2_ceil(n < 2 ? 2 : n);
  if (params.Z == 0) params = SortParams::auto_for(padded);

  vec<Elem> pin(padded, Elem::filler());
  const slice<Elem> pi = pin.s();
  fj::for_range(0, n, fj::kDefaultGrain, [&](size_t i) { pi[i] = in[i]; });

  for (int attempt = 0; attempt < params.max_retries; ++attempt) {
    try {
      orp_attempt(pi, out, util::hash_rand(seed, 7'000 + attempt), params,
                  sorter);
      return;
    } catch (const obl::BinOverflow&) {
      continue;  // input-independent event; fresh randomness
    }
  }
  throw PermuteFailure{};
}

}  // namespace detail

}  // namespace dopar::core
