#pragma once
// Shared oblivious building blocks for the Section 5 applications.
//
// The applications all follow the same batch-parallel discipline: a table
// (array indexed by vertex/node id) is read with oblivious *gathers* and
// updated with conflict-resolved oblivious *scatters* — one table-sized
// routing instance per operation, exactly the per-step machinery of the
// space-bounded PRAM simulation (Thm 4.1).
//
// Both run on 16-byte (key, value) records, and neither sorts the table:
// its cells are already in index order. Only the q requests (or
// proposals) are sorted, with the bitonic_ca network; one recorded
// bitonic merge of pow2_ceil(q + |table|) records interleaves them with
// the cells, one pass hands each value across, and the merge's tape
// replay puts every record back. A gather then sorts its q answers back
// to request order. The request sort depends on the address array only,
// so an AddrPlan sorts it once and serves every table read at those
// addresses. Schedules are fixed functions of (q, |table|).

#include <cassert>
#include <cstdint>
#include <vector>

#include "forkjoin/api.hpp"
#include "obl/bitonic_ca.hpp"
#include "obl/kernel/kernel.hpp"
#include "obl/oswap.hpp"
#include "obl/route.hpp"
#include "obl/scan.hpp"
#include "sim/tracked.hpp"
#include "util/bits.hpp"

namespace dopar::apps {

/// The record gathers and scatters sort and merge.
struct KeyVal {
  uint64_t key = 0;
  uint64_t val = 0;
};
static_assert(sizeof(KeyVal) == 16);

namespace detail {

/// Sorts after every real record; the filler of the pow2 request sorts.
inline constexpr KeyVal kFillerKV{~uint64_t{0}, 0};

/// Out-of-range addresses clamp here (tables are far smaller), so
/// 2 * a + 2 never overflows.
inline constexpr uint64_t kNoAddr = uint64_t{1} << 62;

struct ByKeyKV {
  bool operator()(const KeyVal& a, const KeyVal& b) const {
    return a.key < b.key;
  }
};

/// (key ascending, value descending): the last proposal of an address
/// group is its minimum.
struct ByKeyValDesc {
  bool operator()(const KeyVal& a, const KeyVal& b) const {
    return (a.key < b.key) | ((a.key == b.key) & (b.val < a.val));
  }
};

/// Gather scan: every position takes the last table cell (odd key) at or
/// before it.
struct LastCell {
  KeyVal operator()(const KeyVal& a, const KeyVal& b) const {
    return obl::oselect((b.key & 1) != 0, b, a);
  }
};

/// Lay out [sorted records | table cells, highest index first | key-0
/// pads] in m: ascending, then descending, then 0, which is bitonic.
/// Cell c is keyed 2c + cell_bit.
inline void lay_out_cells(const slice<KeyVal>& m, size_t q,
                          const slice<uint64_t>& table, uint64_t cell_bit) {
  const size_t s = table.size();
  obl::kernel::generate_range(
      m, q, m.size(), obl::kernel::Tick::PerElem, [&](KeyVal& r, size_t i) {
        if (i < q + s) {
          const size_t c = q + s - 1 - i;
          r.key = 2 * c + cell_bit;
          r.val = table[c];
        } else {
          r = KeyVal{};
        }
      });
}

}  // namespace detail

/// One address array's gather routing, reusable across tables: the
/// requests as (2 * min(addr, kNoAddr) + 2, request index) records,
/// sorted by key with the bitonic_ca network (pow2_ceil(q) records, the
/// tail fillers). Every table read through the plan skips that sort.
class AddrPlan {
 public:
  explicit AddrPlan(const slice<uint64_t>& addrs) : q_(addrs.size()) {
    if (q_ == 0) return;
    const size_t pq = util::pow2_ceil(q_);
    sorted_ = vec<KeyVal>(pq);
    const slice<KeyVal> r = sorted_.s();
    obl::kernel::generate_range(
        r, 0, pq, obl::kernel::Tick::PerElem, [&](KeyVal& e, size_t i) {
          if (i < q_) {
            const uint64_t a = addrs[i];
            const uint64_t clamped =
                obl::oselect(a > detail::kNoAddr, detail::kNoAddr, a);
            e.key = 2 * clamped + 2;
            e.val = i;
          } else {
            e = detail::kFillerKV;
          }
        });
    obl::bitonic_sort_ca(r, true, detail::ByKeyKV{});
  }

  size_t size() const { return q_; }
  slice<const KeyVal> sorted() const { return sorted_.cs(); }

 private:
  size_t q_;
  vec<KeyVal> sorted_;
};

/// out[i] = table[addr i of the plan]; addresses >= |table| (notably the
/// apps' ~0 "no node" sentinel) read as 0. Fixed access pattern: one
/// recorded merge, one scan and one replay over pow2_ceil(q + |table|)
/// records, then one bitonic_ca sort of pow2_ceil(q).
inline void gather(const AddrPlan& plan, const slice<uint64_t>& table,
                   const slice<uint64_t>& out) {
  const size_t s = table.size();
  const size_t q = plan.size();
  assert(out.size() == q);
  if (q == 0) return;
  if (s == 0) {
    obl::kernel::fill_range(out, 0, q, uint64_t{0},
                            obl::kernel::Tick::PerElem);
    return;
  }
  const slice<const KeyVal> req = plan.sorted();
  const size_t pq = req.size();
  const size_t pm = util::pow2_ceil(q + s);
  vec<KeyVal> mv(pm);
  const slice<KeyVal> m = mv.s();
  obl::kernel::copy_range(m, 0, req, 0, q, obl::kernel::Tick::PerElem);
  // Cell c (key 2c + 1) sorts right before the requests for c (2c + 2).
  detail::lay_out_cells(m, q, table, 1);
  std::vector<uint8_t> tape;
  obl::bitonic_merge_record(m, tape, detail::ByKeyKV{});
  obl::scan_inclusive(m, detail::LastCell{});
  obl::bitonic_merge_unreplay(m, tape);

  // The requests are back at [0, q) in plan order, each holding the last
  // cell before it, which is its own iff its address is in range.
  const uint64_t hit_below = 2 * uint64_t{s} + 2;
  obl::kernel::transform_range(
      m, 0, pq, obl::kernel::Tick::PerElem, [&](KeyVal& r, size_t p) {
        if (p < q) {
          const KeyVal e = req[p];
          r.key = e.val;
          r.val = obl::oselect<uint64_t>(e.key < hit_below, r.val, 0);
        } else {
          r = detail::kFillerKV;
        }
      });
  const slice<KeyVal> back = m.first(pq);
  obl::bitonic_sort_ca(back, true, detail::ByKeyKV{});
  fj::for_range(0, q, fj::kDefaultGrain, [&](size_t i) {
    sim::tick(1);
    out[i] = back[i].val;
  });
}

/// results[i] = table[addrs[i]]: one AddrPlan, read once. Out-of-range
/// addresses read as 0.
inline void gather(const slice<uint64_t>& table, const slice<uint64_t>& addrs,
                   const slice<uint64_t>& out) {
  AddrPlan plan(addrs);
  gather(plan, table, out);
}

/// Scatter with Priority/combine semantics: for each i with live[i],
/// proposes table[addrs[i]] = values[i]; conflicting proposals to one
/// address are resolved by keeping the *minimum* value — the CRCW flavor
/// the Section 5 graph algorithms need (min-hooking). When `combine_min`
/// is true the delivered value additionally combines with the cell's old
/// content by min (monotone tables, e.g. hooking labels); when false it
/// replaces it. Dead proposals and addresses >= |table| (including the
/// apps' ~0 "no node" sentinel) never land.
///
///   1. a live in-range proposal is keyed 2 * addr + 1, anything else
///      sorts last; one bitonic_ca sort of pow2_ceil(q) proposals orders
///      them by (key, value descending);
///   2. one recorded merge of pow2_ceil(q + |table|) records puts table
///      cell c (key 2c + 2) right after its address group, whose last
///      record is the group's minimum: each cell reads its left neighbour;
///   3. the merge's replay returns the cells to their slots.
inline void scatter_min(const slice<uint64_t>& table,
                        const slice<uint64_t>& addrs,
                        const slice<uint64_t>& values,
                        const slice<uint64_t>& live,
                        bool combine_min = false) {
  const size_t s = table.size();
  const size_t q = addrs.size();
  if (q == 0 || s == 0) return;
  const size_t pq = util::pow2_ceil(q);
  const size_t pm = util::pow2_ceil(q + s);
  vec<KeyVal> mv(pm);
  const slice<KeyVal> m = mv.s();
  obl::kernel::generate_range(
      m, 0, pq, obl::kernel::Tick::PerElem, [&](KeyVal& r, size_t i) {
        r = detail::kFillerKV;
        if (i < q) {
          const uint64_t a = addrs[i];
          const KeyVal cand{2 * a + 1, values[i]};
          obl::oassign((live[i] != 0) & (a < s), r, cand);
        }
      });
  // Every record at [q, pq) sorts last (key ~0), so the cells overwrite
  // only dead ones.
  obl::bitonic_sort_ca(m.first(pq), true, detail::ByKeyValDesc{});
  detail::lay_out_cells(m, q, table, 2);
  std::vector<uint8_t> tape;
  obl::bitonic_merge_record(m, tape, detail::ByKeyValDesc{});

  // A cell's left neighbour keyed one below it is its group's minimum.
  // Read into a side array, then written back, so no position reads a
  // record another one is writing.
  vec<uint64_t> nv(pm);
  const slice<uint64_t> next = nv.s();
  obl::kernel::generate_range(
      next, 0, pm, obl::kernel::Tick::PerElem, [&](uint64_t& v, size_t p) {
        const KeyVal cur = m[p];
        const KeyVal prev = m[p == 0 ? 0 : p - 1];
        const uint64_t in =
            combine_min ? obl::oselect(prev.val < cur.val, prev.val, cur.val)
                        : prev.val;
        v = obl::oselect(prev.key + 1 == cur.key, in, cur.val);
      });
  obl::kernel::transform_range(m, 0, pm, obl::kernel::Tick::None,
                               [&](KeyVal& r, size_t p) { r.val = next[p]; });
  obl::bitonic_merge_unreplay(m, tape);
  fj::for_range(0, s, fj::kDefaultGrain, [&](size_t c) {
    sim::tick(1);
    table[c] = m[q + s - 1 - c].val;
  });
}

}  // namespace dopar::apps
