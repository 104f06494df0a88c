#pragma once
// Oblivious aggregation in a sorted array (paper Section F, Table 2).
//
// Input: an Elem array sorted so equal keys are consecutive. Every element
// learns the fold (under a commutative+associative op on payloads) of the
// elements of its group at or after its own position — the "sum of all
// elements belonging to its group, and appearing to its right". Realized as
// a segmented inclusive suffix scan: O(n) work, O(log n) span, O(n/B)
// cache, fixed access pattern. An exclusive variant is derived with one
// extra fixed-pattern pass.

#include <cstdint>

#include "forkjoin/api.hpp"
#include "obl/elem.hpp"
#include "obl/kernel/kernel.hpp"
#include "obl/scan.hpp"
#include "sim/tracked.hpp"

namespace dopar::obl {

namespace detail {

struct AggSeg {
  uint64_t value = 0;
  uint64_t tail = 0;  // 1 iff this position ends a key-group
};

template <class Op>
struct AggCombine {
  Op op;
  // comb(earlier, later): if the earlier element closes a group, values
  // from the right must not flow into it.
  AggSeg operator()(const AggSeg& x, const AggSeg& y) const {
    AggSeg out = x;
    const uint64_t folded = op(x.value, y.value);
    oassign(x.tail == 0, out.value, folded);
    out.tail = x.tail | y.tail;
    return out;
  }
};

}  // namespace detail

/// Inclusive suffix aggregation: payload[i] <- op-fold of payload[j] for
/// j >= i in i's key-group.
template <class Op>
void aggregate_suffix(const slice<Elem>& a, const Op& op) {
  const size_t n = a.size();
  if (n <= 1) return;
  vec<detail::AggSeg> segs(n);
  const slice<detail::AggSeg> sg = segs.s();
  kernel::generate_range(
      sg, 0, n, kernel::Tick::PerElem, [&](detail::AggSeg& v, size_t i) {
        const Elem e = a[i];
        // Short-circuit preserved: the last position never touches a[n].
        const bool tail = (i + 1 == n) || (a[i + 1].key != e.key);
        v = detail::AggSeg{e.payload, tail ? 1u : 0u};
      });
  scan_inclusive_reverse(sg, detail::AggCombine<Op>{op});
  kernel::transform_range(
      a, 0, n, kernel::Tick::PerElem,
      [&](Elem& e, size_t i) { e.payload = sg[i].value; });
}

}  // namespace dopar::obl
