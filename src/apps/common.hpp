#pragma once
// Shared oblivious building blocks for the Section 5 applications.
//
// The applications all follow the same batch-parallel discipline: a table
// (array indexed by vertex/node id) is read with oblivious *gathers* and
// updated with conflict-resolved oblivious *scatters* — one table-sized
// routing instance per operation, exactly the per-step machinery of the
// space-bounded PRAM simulation (Thm 4.1). A gather is one send-receive
// (two sorts of |table| + |addrs| records); a scatter is one sort, one
// segmented min-scan and one sort over the same count. Both are O(1)
// canonical Elem-key sorts, so callers that read or write one table at
// several address arrays fuse them into one call over the concatenation.

#include <cassert>
#include <cstdint>

#include "core/backend.hpp"
#include "forkjoin/api.hpp"
#include "obl/elem.hpp"
#include "obl/kernel/kernel.hpp"
#include "obl/oswap.hpp"
#include "obl/scan.hpp"
#include "obl/sendrecv.hpp"
#include "sim/tracked.hpp"
#include "util/bits.hpp"

namespace dopar::apps {

/// results[i] = table[addrs[i]]; table is a plain value array indexed by
/// address. Fixed access pattern: one send-receive on (|table|, |addrs|).
/// Out-of-range addresses (notably the apps' ~0 "no node" sentinel) are
/// legal and read as 0: they are branchlessly clamped to the maximum
/// send-receive key, which no table cell announces, so the lookup misses.
inline void gather(const slice<uint64_t>& table, const slice<uint64_t>& addrs,
                   const slice<uint64_t>& out,
                   const SorterBackend& sorter = default_backend()) {
  using obl::Elem;
  const size_t s = table.size();
  const size_t q = addrs.size();
  assert(out.size() == q);
  vec<Elem> src(s), dst(q), res(q);
  const slice<Elem> sv = src.s(), dv = dst.s(), rv = res.s();
  fj::for_range(0, s, fj::kDefaultGrain, [&](size_t i) {
    sim::tick(1);
    Elem e;
    e.key = i;
    e.payload = table[i];
    sv[i] = e;
  });
  fj::for_range(0, q, fj::kDefaultGrain, [&](size_t i) {
    sim::tick(1);
    Elem e;
    const uint64_t a = addrs[i];
    constexpr uint64_t kMaxKey = (uint64_t{1} << 63) - 1;
    e.key = obl::oselect<uint64_t>((a >> 63) != 0, kMaxKey, a);
    dv[i] = e;
  });
  obl::detail::send_receive(sv, dv, rv, sorter);
  fj::for_range(0, q, fj::kDefaultGrain, [&](size_t i) {
    sim::tick(1);
    out[i] = rv[i].payload;
  });
}

namespace detail {

/// Segmented min-scan state of scatter_min: the smallest proposal seen in
/// the current address group so far (`has` = at least one proposal).
struct MinSeg {
  uint64_t val = 0;
  uint64_t has = 0;
  uint64_t head = 0;  // first record of its address group
};
struct MinCombine {
  MinSeg operator()(const MinSeg& x, const MinSeg& y) const {
    MinSeg out = y;
    const bool fold = y.head == 0;
    const bool x_wins = (x.has != 0) & ((y.has == 0) | (x.val < y.val));
    obl::oassign(fold & x_wins, out.val, x.val);
    out.has = obl::oselect<uint64_t>(fold, x.has | y.has, y.has);
    out.head = x.head | y.head;
    return out;
  }
};

}  // namespace detail

/// Scatter with Priority/combine semantics: for each i with live[i],
/// proposes table[addrs[i]] = values[i]; conflicting proposals to one
/// address are resolved by keeping the *minimum* value — the CRCW flavor
/// the Section 5 graph algorithms need (min-hooking). When `combine_min`
/// is true the delivered value additionally combines with the cell's old
/// content by min (monotone tables, e.g. hooking labels); when false it
/// replaces it. Dead proposals and addresses >= |table| (including the
/// apps' ~0 "no node" sentinel) never land.
///
/// One pass over pow2_ceil(|addrs| + |table|) records, all sorted
/// canonically by Elem key (so the full-sort backends run them as sorts):
///   1. a live in-range proposal is keyed addr << 1, table cell i is keyed
///      (i << 1) | 1 and flagged kDest, everything else is a filler; one
///      sort puts each cell right after its address group's proposals;
///   2. one segmented min-scan hands each cell its group's minimum;
///   3. cells re-key to their index, everything else sinks, and one more
///      sort returns the cells to index order for the final write.
inline void scatter_min(const slice<uint64_t>& table,
                        const slice<uint64_t>& addrs,
                        const slice<uint64_t>& values,
                        const slice<uint64_t>& live,
                        const SorterBackend& sorter = default_backend(),
                        bool combine_min = false) {
  using obl::Elem;
  const size_t s = table.size();
  const size_t q = addrs.size();
  if (q == 0 || s == 0) return;
  const size_t n = util::pow2_ceil(q + s);
  vec<Elem> workv(n);
  const slice<Elem> w = workv.s();
  obl::kernel::generate_range(
      w, 0, n, obl::kernel::Tick::PerElem, [&](Elem& e, size_t i) {
        e = Elem::filler();
        if (i < q) {
          const uint64_t a = addrs[i];
          Elem cand;
          cand.key = a << 1;
          cand.payload = values[i];
          obl::oassign((live[i] != 0) & (a < s), e, cand);
        } else if (i < q + s) {
          e.key = ((i - q) << 1) | 1u;
          e.flags = Elem::kDest;
        }
      });
  sorter.sort(w);

  vec<detail::MinSeg> segv(n);
  const slice<detail::MinSeg> sg = segv.s();
  obl::kernel::generate_range(
      sg, 0, n, obl::kernel::Tick::PerElem, [&](detail::MinSeg& v, size_t i) {
        const Elem e = w[i];
        const uint64_t pkey = w[i == 0 ? 0 : i - 1].key;
        const bool prop = (e.flags & (Elem::kFiller | Elem::kDest)) == 0;
        v.val = e.payload;
        v.has = prop ? 1u : 0u;
        v.head = ((i == 0) | ((e.key >> 1) != (pkey >> 1))) ? 1u : 0u;
      });
  obl::scan_inclusive(sg, detail::MinCombine{});

  // Cells carry their group's minimum (aux = found) back to index order.
  obl::kernel::transform_range(
      w, 0, n, obl::kernel::Tick::PerElem, [&](Elem& e, size_t i) {
        const bool is_cell = (e.flags & Elem::kDest) != 0;
        Elem r;
        r.key = e.key >> 1;
        r.payload = sg[i].val;
        r.aux = sg[i].has;
        e = obl::oselect(is_cell, r, Elem::filler());
      });
  sorter.sort(w);

  fj::for_range(0, s, fj::kDefaultGrain, [&](size_t i) {
    sim::tick(1);
    const uint64_t v = table[i];
    const Elem u = w[i];
    const uint64_t incoming =
        combine_min ? obl::oselect(u.payload > v, v, u.payload) : u.payload;
    table[i] = obl::oselect(u.aux != 0, incoming, v);
  });
}

}  // namespace dopar::apps
