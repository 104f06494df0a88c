#pragma once
// Compaction: separating live elements from fillers.
//
// compact_oblivious is the stable, data-oblivious flavor, realized with
// one oblivious sort on (is_filler, rank). It is used wherever the
// number/positions of fillers must stay hidden. The paper's other flavor,
// the non-oblivious prefix-sum compaction that ends ORP (Section C.3),
// lives inside core::detail::orp_attempt, which scatters the live records
// straight into its output.

#include <cstdint>

#include "core/backend.hpp"
#include "obl/elem.hpp"
#include "obl/kernel/kernel.hpp"
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

}  // namespace dopar::obl
