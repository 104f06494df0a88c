#pragma once
// Oblivious bin placement (Chan–Shi; paper Section C.1).
//
// Given an input array whose real elements each carry a destination bin
// g in [beta), place every real element into its bin and pad each bin with
// fillers to capacity Z, revealing nothing about the bin choices. It is
// *promised* that no bin receives more than Z elements (overflow is
// detected and reported so callers can re-randomize; see core/orba.hpp).
//
// Realized with one oblivious sort, one segmented scan and one monotone
// distribution:
//   1. key every input by its bin (fillers get the sink key) and sort the
//      pow2_ceil(|in|) items, so the reals form a prefix grouped by bin,
//   2. the segmented head scan gives each real its offset within its bin;
//      any offset >= Z is an overflow,
//   3. target = bin*Z + offset — strictly increasing along the prefix and
//      never below the source position (earlier bins hold <= Z reals each),
//   4. obl::distribute_monotone routes every real to its target; slots
//      that receive no real become fillers.
// All data-dependent decisions go through branchless selects; the access
// pattern is a fixed function of (|input|, beta, Z).
//
// The routine is generic over the record type R through a Traits policy so
// REC-ORBA can route (label, element) pairs; RecordTraits<obl::Elem>
// (obl/binitem.hpp) is the default for plain Elem arrays. The sort goes
// through the type-erased SorterBackend, so R is limited to the record set
// the backend interface names (Elem and core::Routed).

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>

#include "core/backend.hpp"
#include "obl/binitem.hpp"
#include "obl/elem.hpp"
#include "obl/kernel/kernel.hpp"
#include "obl/oswap.hpp"
#include "obl/route.hpp"
#include "obl/scan.hpp"
#include "sim/tracked.hpp"
#include "util/bits.hpp"

namespace dopar::obl {

/// Thrown when the bin-capacity promise is violated (probability negligible
/// for the parameter choices of Section C.2; callers retry with fresh
/// randomness — the event is independent of the input data).
struct BinOverflow : std::runtime_error {
  BinOverflow() : std::runtime_error("oblivious bin placement: bin overflow") {}
};

namespace detail {

struct HeadSeg {
  uint64_t head_index = 0;
  uint64_t head = 0;
};
struct HeadCombine {
  HeadSeg operator()(const HeadSeg& x, const HeadSeg& y) const {
    HeadSeg out = y;
    oassign(y.head == 0, out.head_index, x.head_index);
    out.head = x.head | y.head;
    return out;
  }
};

}  // namespace detail

/// Place the real elements of `in` into `out` (|out| = beta*Z; bin b is
/// out[b*Z, (b+1)*Z)). `group(r)` gives the destination bin of a non-filler
/// record. Throws BinOverflow if some bin attracts more than Z reals.
template <class R, class Traits = RecordTraits<R>, class GroupFn>
void bin_placement(const slice<R>& in, const slice<R>& out, size_t beta,
                   size_t Z, const GroupFn& group,
                   const SorterBackend& sorter = default_backend()) {
  using Item = BinItem<R>;
  assert(out.size() == beta * Z);
  const size_t total = beta * Z;
  if (total == 0) return;
  // Sorted prefix, and the routing width (a power of two covering it and
  // every bin slot).
  const size_t ns = in.empty() ? 0 : util::pow2_ceil(in.size());
  const size_t m = std::max<size_t>(ns, util::pow2_ceil(total));

  vec<Item> workv(m);
  const slice<Item> w = workv.s();

  // 1. Key by bin; fillers and padding sink to the back of the sort.
  kernel::generate_range(
      w, 0, m, kernel::Tick::PerElem, [&](Item& it, size_t i) {
        if (i < in.size()) {
          it.r = in[i];
          const bool fill = Traits::is_filler(it.r);
          const uint64_t g = fill ? 0 : group(it.r);
          it.skey = oselect<uint64_t>(fill, Item::kSinkKey, g);
        } else {
          it.r = Traits::filler();
          it.skey = Item::kSinkKey;
        }
      });
  if (ns > 1) sorter.sort(w.sub(0, ns));  // by skey (BinBySkey)

  // 2. Offset within bin via segmented scan of head positions.
  vec<detail::HeadSeg> segv(ns);
  const slice<detail::HeadSeg> sg = segv.s();
  kernel::generate_range(
      sg, 0, ns, kernel::Tick::PerElem, [&](detail::HeadSeg& v, size_t i) {
        const uint64_t g = w[i].skey;
        const uint64_t gp = w[i == 0 ? 0 : i - 1].skey;
        const bool head = (i == 0) || (g != gp);
        v = detail::HeadSeg{i, head ? 1u : 0u};
      });
  scan_inclusive(sg, detail::HeadCombine{});

  // 3. Re-key reals by target slot. A bin overflows iff some real has
  // offset >= Z; the flags are summed over a fixed, public pattern.
  vec<uint64_t> overflow_flags(ns);
  const slice<uint64_t> of = overflow_flags.s();
  kernel::transform_range(
      w, 0, ns, kernel::Tick::PerElem, [&](Item& it, size_t i) {
        const uint64_t offset = i - sg[i].head_index;
        const bool real = it.skey != Item::kSinkKey;
        of[i] = (real && offset >= Z) ? 1u : 0u;
        it.skey = oselect<uint64_t>(real, it.skey * Z + offset,
                                    Item::kSinkKey);
      });
  if (reduce_sum(of) != 0) throw BinOverflow{};

  // 4. Route every real to its slot; the rest become fillers.
  Item filler;
  filler.r = Traits::filler();
  filler.skey = Item::kSinkKey;
  distribute_monotone(
      w, [](const Item& it) { return it.skey != Item::kSinkKey; },
      [](const Item& it) { return it.skey; }, filler);

  kernel::generate_range(out, 0, total, kernel::Tick::None,
                         [&](R& v, size_t i) { v = w[i].r; });
}

}  // namespace dopar::obl
