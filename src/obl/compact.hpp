#pragma once
// Compaction: separating live elements from fillers.
//
// Two flavors, matching the two situations in the paper:
//  * compact_oblivious — stable, data-oblivious: realized with one
//    oblivious sort on (is_filler, rank). Used wherever the number/positions
//    of fillers must stay hidden.
//  * compact_reveal — NON-oblivious prefix-sum compaction, O(n) work and
//    O(log n) span, that reveals which slots were fillers. The paper uses
//    this exact step at the end of ORP (Section C.3): the final bin loads
//    are proven simulatable from |I| alone, so revealing them is safe.

#include <cstdint>

#include "core/backend.hpp"
#include "forkjoin/api.hpp"
#include "obl/elem.hpp"
#include "obl/kernel/kernel.hpp"
#include "obl/scan.hpp"
#include "sim/tracked.hpp"

namespace dopar::obl {

/// Stable oblivious compaction: live elements (in their current order) to
/// the front, fillers to the back. Uses Elem::extra as the stability rank
/// scratch field (clobbered).
inline void compact_oblivious(const slice<Elem>& a,
                              const SorterBackend& sorter = default_backend()) {
  const size_t n = a.size();
  kernel::transform_range(
      a, 0, n, kernel::Tick::None,
      [](Elem& e, size_t i) { e.extra = static_cast<uint32_t>(i); });
  struct Less {
    bool operator()(const Elem& x, const Elem& y) const {
      const uint64_t kx =
          (static_cast<uint64_t>(x.is_filler()) << 32) | x.extra;
      const uint64_t ky =
          (static_cast<uint64_t>(y.is_filler()) << 32) | y.extra;
      return kx < ky;
    }
  };
  sorter.sort(a, erase_less<Elem>(Less{}));
}

/// Non-oblivious stable compaction; returns the live count. Output: first
/// `live` slots hold the live elements in order, the rest are fillers.
inline size_t compact_reveal(const slice<Elem>& a) {
  const size_t n = a.size();
  if (n == 0) return 0;
  vec<uint64_t> pos(n);
  const uint64_t live = prefix_sum_exclusive(
      a, pos.s(), [](const Elem& e) { return e.is_filler() ? 0u : 1u; });
  vec<Elem> out(n, Elem::filler());
  const slice<Elem> o = out.s();
  const slice<uint64_t> p = pos.s();
  fj::for_range(0, n, fj::kDefaultGrain, [&](size_t i) {
    const Elem e = a[i];
    if (!e.is_filler()) o[p[i]] = e;  // data-dependent: allowed here
  });
  kernel::copy_range(a, 0, o, 0, n, kernel::Tick::None);
  return static_cast<size_t>(live);
}

}  // namespace dopar::obl
