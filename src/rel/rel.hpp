#pragma once
// dopar::rel — oblivious relational operators over the sort core.
//
// The paper's primitives (oblivious sort, compaction, propagation,
// aggregation, send-receive) are exactly the toolkit the oblivious-database
// literature composes into relational operators (Krastnikov et al.,
// "Efficient Oblivious Database Joins", PVLDB 2020). This layer builds
// three of them:
//
//   * equi-join      — L ⋈ R on key equality,
//   * band join      — L ⋈ R on |l.key - r.key| <= band,
//   * group-by       — per-key Sum / Count / Min / Max aggregation,
//
// all as compositions of the existing engines, so the shared fork-join
// arena and the SIMD kernel layer apply automatically (group-by also runs on
// every registered sorter backend). The public entry points are the
// Runtime methods (core/runtime.hpp):
//
//   auto res = rt.equi_join(std::span(orders), key_of_order,
//                           std::span(items), key_of_item,
//                           {.output_bound = 4096});
//   for (auto& [o, it] : res.rows) ...
//
// Every operator has ONE engine, which runs a batch of independent
// requests ("slots"); a solo Runtime call is the one-slot batch, so solo
// and coalesced runs agree by construction.
//
// Join recipe (the equi-join is the band = 0 case of the same plan; equi
// and band slots share one batch). Each slot runs it on its own tables,
// concurrently across slots, sorting only with recorded bitonic networks
// (obl/route.hpp), so joins never read the Runtime's sorter backend:
//   1. MULTIPLICITY: rank the right table by (key, input index); every
//      left row issues a lo-query (key - band) and a hi-query (key +
//      band). One recorded sort of the queries and one recorded bitonic
//      merge with the ranked right table interleave them; the right rows
//      merged ahead of a query are its rank, and replaying the tapes
//      backwards returns the queries to input order. count = r_hi - r_lo
//      matching right rows, the first at rank r_lo.
//   2. DISTRIBUTE-EXPAND: an exclusive scan turns counts into output
//      offsets; each left row with matches is routed to its first output
//      slot by tight compaction plus monotone distribution, and a scan
//      spreads it over its run. Every output slot now holds its left row
//      and the rank of the right row it must pair with.
//   3. ALIGN-CONCAT: the requests record-sort by rank, one recorded merge
//      places each after its rank's right row, a scan copies the right
//      row's id over, and tape replays restore output order.
//
// Group-by recipe: sort by key, fold group sizes and values with
// segmented suffix aggregations, flag group heads and compact them to the
// front; the first `bound` records are the groups in ascending key order.
//
// Obliviousness contract: for fixed table sizes and a fixed public output
// bound, the sequence of scratch-array sizes, sorts, scans and routing
// steps — and hence the comparator/access schedule — does not depend on
// table contents. A join's schedule is always a fixed function of the
// sizes (trace digests are bit-identical across differing contents of
// the same shape), and so is a group-by's on a comparator-network
// backend; on the randomized full-sort backends ("osort", "spms") a
// group-by's schedule additionally depends on their per-call seeds and is
// oblivious in distribution (paper §C.4), replaying bit-for-bit under the
// per-call seed-stream contract. The *returned* (declassified) rows
// reveal the true match count — the same reveal the paper proves safe for
// ORP's final compaction; everything computed inside the measured
// pipeline is padded to the public bound.
//
// Size contract: keys <= max_key(S) for an S-slot call — below 2^62 with
// one slot (every solo Runtime call), <= 2^48 - 1 with two or more;
// per-table row count and the output bound < 2^32.

#include <cstdint>
#include <utility>
#include <vector>

#include "core/backend.hpp"
#include "obl/elem.hpp"
#include "sim/tracked.hpp"

namespace dopar::rel {

/// Largest legal join/group key (exclusive): band arithmetic saturates at
/// this bound, and every scratch sentinel lives above it.
inline constexpr uint64_t kKeyLimit = uint64_t{1} << 62;

/// Sentinel "no row" id carried by padding slots inside the engines.
inline constexpr uint64_t kNoRow = ~uint64_t{0};

// ---- batches of slots ---------------------------------------------------
//
// Each request in a batch is a *slot*. A group-by batch tags every key
// with the slot id in the top bits of each shared sort key ((slot <<
// kBatchKeyBits) | key), and every pass runs once over the concatenated
// rows. Because slots occupy disjoint composite-key ranges, the per-slot
// order inside every shared sort equals the one-slot order. A join batch
// runs each slot's plan on the slot's own tables. Either way each slot's
// output is bit-identical to a one-slot run of the same request, the
// shared output frame's public bound is the SUM of the per-slot bounds,
// split back per slot at public offsets, and the schedule is a pure
// function of the slot shape vector. Both kinds share one key ceiling
// (max_key) so the serving layer coalesces them under one rule. With one
// slot the tag is zero, so keys may use the full kKeyLimit range.

/// Bits of a batched composite key carrying the row's own key; the slot id
/// rides above them. Mirrors the serving layer's sort-coalescing layout.
inline constexpr unsigned kBatchKeyBits = 48;
/// Largest row key that may ride in a batch of two or more slots
/// (inclusive): composite keys must stay below kKeyLimit.
inline constexpr uint64_t kMaxBatchKey =
    (uint64_t{1} << kBatchKeyBits) - 1;
/// Slots per relational batch: 2^62 composite-key space over 48-bit row
/// keys leaves 14 slot bits.
inline constexpr size_t kMaxRelBatchSlots = size_t{1} << 14;

/// Largest row key (inclusive) an engine call with `slots` slots accepts:
/// a one-slot call carries no slot tag and takes any key below kKeyLimit.
constexpr uint64_t max_key(size_t slots) {
  return slots == 1 ? kKeyLimit - 1 : kMaxBatchKey;
}

/// Public shape of one slot (one request) in a join batch.
struct JoinSlot {
  size_t nl = 0;       ///< left-table rows
  size_t nr = 0;       ///< right-table rows
  size_t bound = 0;    ///< public output bound (this slot's frame share)
  bool banded = false; ///< band join (equi when false)
  uint64_t band = 0;   ///< band half-width (ignored unless banded)
};

/// Public shape of one slot in a group-by batch.
struct GroupSlot {
  size_t n = 0;      ///< input rows
  size_t bound = 0;  ///< public group bound (this slot's frame share)
};

/// Aggregation operators for group_by_aggregate. Sum wraps mod 2^64.
enum class Agg { Sum, Count, Min, Max };

/// Per-call options for the join operators.
struct JoinOptions {
  /// Public bound on the number of output pairs: the engine's schedule is
  /// a function of (|L|, |R|, output_bound) only, and the result is
  /// truncated to this many pairs if more match. 0 means |L|·|R| — the
  /// trivially safe bound, at the cost of an output frame that large.
  size_t output_bound = 0;
  /// Ignored: joins sort only with recorded comparator networks and never
  /// read a sorter backend. Kept so existing designated initializers
  /// still compile.
  SortOptions sort{};
};

/// Per-call options for group_by_aggregate.
struct GroupByOptions {
  /// Public bound on the number of distinct groups (0 = row count, the
  /// trivially safe bound). Groups beyond it — in ascending key order —
  /// are truncated.
  size_t group_bound = 0;
  /// Ignored: group-bys sort on the Runtime's backend
  /// (Runtime::Builder::backend). Kept so existing designated
  /// initializers still compile.
  SortOptions sort{};
};

/// Result of a join: the matching pairs, grouped by left row in input
/// order, each group's right rows ascending by (key, input index). `rows`
/// holds min(matched, output_bound) pairs.
template <class RecL, class RecR>
struct JoinResult {
  std::vector<std::pair<RecL, RecR>> rows;
  /// True total number of matching pairs (revealed by the declassified
  /// output, like the output length itself).
  uint64_t matched = 0;
  bool truncated() const { return matched > rows.size(); }
};

/// One output group of group_by_aggregate.
struct GroupRow {
  uint64_t key = 0;    ///< group key
  uint64_t value = 0;  ///< aggregated value (== count for Agg::Count)
  uint64_t count = 0;  ///< group size
};

/// Result of a group-by: groups ascending by key, truncated to the bound.
struct GroupByResult {
  std::vector<GroupRow> groups;
  uint64_t groups_total = 0;  ///< true number of distinct groups
  bool truncated() const { return groups_total > groups.size(); }
};

namespace detail {

// The engines operate on canonical Elem tables prepared by the Runtime
// wrappers: the slot-concatenated tables (slot s's rows at the public
// offsets implied by `slots`), row key in .key and the caller's
// slot-local row id in .payload. They run entirely inside the Runtime's
// execution environment (tracked buffers, fork-join pool, measurement
// session). Contract: 1 <= slots.size() <= kMaxRelBatchSlots and every
// key <= max_key(slots.size()).

/// Join engine, shared by equi and band slots. `out` has size
/// sum(slots[s].bound); slot s's share receives its aligned pairs in
/// output order: .payload = left row id, .aux = right row id, .key = the
/// slot-local output position, padding flagged kFiller. Returns the
/// per-slot true match counts. Per-slot bound < 2^33. Every slot runs the
/// one recorded-network plan of the join recipe above, concurrently
/// across slots; no sorter backend is involved.
std::vector<uint64_t> join_engine(const slice<obl::Elem>& left,
                                  const slice<obl::Elem>& right,
                                  const std::vector<JoinSlot>& slots,
                                  const slice<obl::Elem>& out);

/// Group-by engine: `in` rows carry the key in .key and the value in
/// .payload. `out` has size sum(slots[s].bound); slot s's share holds its
/// groups ascending by key (key = group key, payload = aggregate, aux =
/// group size, padding kFiller). Returns the per-slot distinct-group
/// counts. Per-slot rows < 2^32. One batch runs ONE aggregation operator
/// — the serving layer only coalesces same-agg requests.
std::vector<uint64_t> group_by_engine(const slice<obl::Elem>& in, Agg agg,
                                      const std::vector<GroupSlot>& slots,
                                      const slice<obl::Elem>& out,
                                      const SorterBackend& sorter);

}  // namespace detail

}  // namespace dopar::rel
