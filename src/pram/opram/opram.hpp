#pragma once
// Batched recursive tree ORAM — the large-space OPRAM substrate of
// Theorem 4.2 (paper Section 4.2), modeled on Chan–Chung–Shi [CCS17].
//
// Structure (matching the paper's description):
//   * O(log s) recursion levels; level k stores the position labels for
//     level k+1 (two labels per block, so level k has 2^k addresses);
//     the data lives at the deepest level A = log2(s).
//   * each level is a complete binary tree of W-slot buckets stored in
//     van Emde Boas layout (the paper's first cache-complexity
//     modification), plus a bounded stash.
//   * a batch of p requests is sorted by (address, priority); the head of
//     every address group performs the real path fetch while followers
//     fetch uniformly random dummy paths, and fetched labels/values are
//     shared within groups by segmented scans — the paper's oblivious
//     propagation/aggregation, specialized to the sorted request array.
//   * eviction is deterministic reverse-lexicographic, 2 paths per
//     request (a simplification: this replaces CCS17's pool/subtree
//     machinery; work shape O(p log^2 s) per batch and obliviousness
//     are preserved, the span loses a log factor).
//
// Obliviousness: every path index the adversary sees is uniformly random
// (real positions are one-time, dummies are fresh), eviction order is
// public, and all in-path/in-stash processing uses fixed-size scans with
// branchless selects. Blocks are created lazily on first touch; absent
// addresses read as 0.

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "forkjoin/api.hpp"
#include "obl/elem.hpp"
#include "obl/oswap.hpp"
#include "obl/scan.hpp"
#include "obl/sorter.hpp"
#include "sim/session.hpp"
#include "sim/tracked.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"
#include "util/veb.hpp"

namespace dopar::pram::opram {

struct OpramOverflow : std::runtime_error {
  OpramOverflow() : std::runtime_error("opram: stash overflow") {}
};

struct Block {
  static constexpr uint64_t kInvalid = ~uint64_t{0};
  uint64_t addr = kInvalid;  ///< level-local address
  uint64_t pos = 0;          ///< leaf this block is pathed to
  uint64_t lab0 = 0;         ///< child-0 label, or the value at data level
  uint64_t lab1 = 0;         ///< child-1 label (unused at data level)

  bool valid() const { return addr != kInvalid; }
};

/// One ORAM tree: complete binary tree of buckets (vEB layout) + stash.
class Level {
 public:
  static constexpr size_t kW = 4;  ///< bucket capacity

  Level(unsigned tree_depth, size_t stash_cap)
      : depth_(tree_depth),
        leaves_(size_t{1} << tree_depth),
        layout_(tree_depth + 1),
        buckets_(layout_.node_count() * kW),
        stash_(stash_cap),
        stash_cap_(stash_cap) {}

  size_t leaves() const { return leaves_; }
  unsigned depth() const { return depth_; }

  /// Read the path to `leaf`, search it and the stash for `addr`, and
  /// *remove* the block if found (fixed-pattern scan). Returns the block
  /// (invalid addr if absent). Pass addr = Block::kInvalid for a dummy
  /// fetch that searches but never matches.
  Block fetch_and_remove(uint64_t leaf, uint64_t addr) {
    Block found;  // invalid
    const slice<Block> b = buckets_.s();
    uint64_t node = 1;
    for (unsigned d = 0; d <= depth_; ++d) {
      const size_t base = size_t{layout_.offset(node)} * kW;
      for (size_t s = 0; s < kW; ++s) {
        sim::tick(1);
        Block blk = b[base + s];
        const bool hit = blk.valid() && blk.addr == addr;
        obl::oassign(hit, found, blk);
        obl::oassign(hit, blk, Block{});  // remove
        b[base + s] = blk;
      }
      if (d < depth_) node = node * 2 + ((leaf >> (depth_ - 1 - d)) & 1u);
    }
    const slice<Block> st = stash_.s();
    for (size_t i = 0; i < stash_cap_; ++i) {
      sim::tick(1);
      Block blk = st[i];
      const bool hit = blk.valid() && blk.addr == addr;
      obl::oassign(hit, found, blk);
      obl::oassign(hit, blk, Block{});
      st[i] = blk;
    }
    return found;
  }

  /// Append a block (possibly invalid = dummy) to the stash. Fixed-pattern:
  /// scans the whole stash, placing the block in the first free slot.
  void stash_put(const Block& blk) {
    const slice<Block> st = stash_.s();
    bool placed = !blk.valid();  // dummies are "placed" nowhere
    bool saw_free = false;
    for (size_t i = 0; i < stash_cap_; ++i) {
      sim::tick(1);
      Block cur = st[i];
      const bool free_slot = !cur.valid();
      const bool take = !placed && free_slot;
      obl::oassign(take, cur, blk);
      st[i] = cur;
      placed = placed || take;
      saw_free = saw_free || free_slot;
    }
    if (!placed) throw OpramOverflow{};
    (void)saw_free;
  }

  /// Deterministic reverse-lexicographic eviction: evict the next path in
  /// the public order. Reads the path into the stash, then greedily
  /// refills buckets from the leaf upward with eligible stash blocks.
  void evict_next() {
    const uint64_t leaf =
        util::reverse_bits(evict_counter_++ % leaves_,
                           depth_ == 0 ? 1 : depth_);
    evict_path(leaf % leaves_);
  }

  void evict_path(uint64_t leaf) {
    const slice<Block> b = buckets_.s();
    // Pull the whole path into the stash.
    uint64_t node = 1;
    std::vector<uint64_t> path_nodes(depth_ + 1);
    for (unsigned d = 0; d <= depth_; ++d) {
      path_nodes[d] = node;
      const size_t base = size_t{layout_.offset(node)} * kW;
      for (size_t s = 0; s < kW; ++s) {
        sim::tick(1);
        Block blk = b[base + s];
        b[base + s] = Block{};
        stash_put(blk);  // dummy-put when invalid: fixed pattern
      }
      if (d < depth_) node = node * 2 + ((leaf >> (depth_ - 1 - d)) & 1u);
    }
    // Refill from the deepest bucket upward.
    const slice<Block> st = stash_.s();
    for (unsigned d = depth_ + 1; d-- > 0;) {
      const size_t base = size_t{layout_.offset(path_nodes[d])} * kW;
      for (size_t s = 0; s < kW; ++s) {
        // Select one eligible stash block (branchless full scan).
        Block chosen;
        for (size_t i = 0; i < stash_cap_; ++i) {
          sim::tick(1);
          Block cur = st[i];
          const bool eligible =
              cur.valid() && !chosen.valid() &&
              (d == 0 ||
               (cur.pos >> (depth_ - d)) == (leaf >> (depth_ - d)));
          obl::oassign(eligible, chosen, cur);
          obl::oassign(eligible, cur, Block{});
          st[i] = cur;
        }
        b[base + s] = chosen;
      }
    }
  }

  /// Diagnostics (non-oblivious; tests only): locate a block by address,
  /// in the buckets or the stash.
  struct FindResult {
    bool found = false;
    Block blk;
  };
  FindResult debug_find(uint64_t addr) const {
    for (const Block& b : buckets_.underlying()) {
      if (b.valid() && b.addr == addr) return FindResult{true, b};
    }
    for (const Block& b : stash_.underlying()) {
      if (b.valid() && b.addr == addr) return FindResult{true, b};
    }
    return {};
  }

  /// Number of valid blocks currently in the stash (harness/diagnostics).
  size_t stash_load() const {
    size_t n = 0;
    for (size_t i = 0; i < stash_cap_; ++i) {
      n += stash_.underlying()[i].valid();
    }
    return n;
  }

 private:
  unsigned depth_;
  size_t leaves_;
  util::VebLayout layout_;
  vec<Block> buckets_;
  vec<Block> stash_;
  size_t stash_cap_;
  uint64_t evict_counter_ = 0;
};

/// One logical request inside a batch.
struct BatchOp {
  uint64_t addr = 0;
  bool is_write = false;
  uint64_t value = 0;  ///< write value
};

class Opram {
 public:
  /// @param space   addressable words (rounded up to a power of two >= 8)
  /// @param batch   maximum batch size p
  /// @param seed    randomness for position labels
  Opram(size_t space, size_t batch, uint64_t seed)
      : addr_bits_(util::log2_ceil(space < 8 ? 8 : space)),
        batch_(batch < 1 ? 1 : batch),
        seed_(seed),
        root_table_(size_t{1} << kRootBits, 0) {
    const size_t stash_cap =
        4 * batch_ + 2 * Level::kW * (addr_bits_ + 2) + 64;
    for (unsigned k = kRootBits; k <= addr_bits_; ++k) {
      levels_.emplace_back(k, stash_cap);
    }
    // Random initial positions for the root-table entries.
    for (size_t a = 0; a < root_table_.size(); ++a) {
      root_table_[a] = util::hash_rand(seed_, 0xbeef0000 + a) %
                       levels_.front().leaves();
    }
  }

  size_t space() const { return size_t{1} << addr_bits_; }

  /// Execute a batch of at most `batch` operations with CRCW-Priority
  /// semantics (element order = priority; reads see the pre-batch state
  /// unless the same batch writes the address at higher priority — callers
  /// wanting strict read-then-write PRAM steps issue two batches).
  /// Returns the value each op observed (for writes: the written value).
  std::vector<uint64_t> batch_access(const std::vector<BatchOp>& ops) {
    const size_t q = ops.size();
    assert(q <= batch_ && q > 0);

    // Sort by (addr, priority); the head of each address group acts.
    struct Slot {
      uint64_t addr;
      uint64_t origin;
      uint64_t wvalue;
      uint64_t is_write;
      uint64_t pos = 0;    // current position of the level-k block
      uint64_t npos = 0;   // fresh position for the level-k block
      uint64_t result = 0;
      uint64_t head = 0;
    };
    std::vector<Slot> slots(q);
    for (size_t i = 0; i < q; ++i) {
      slots[i] = Slot{ops[i].addr, i, ops[i].value,
                      ops[i].is_write ? 1u : 0u};
      assert(ops[i].addr < space());
    }
    // q is small (<= batch); a simple oblivious-enough sort: bitonic over
    // padded Elems would do, but the sorted order itself is secret only in
    // its *content*; we sort via the Elem machinery for pattern fixity.
    {
      const size_t padded = util::pow2_ceil(q);
      vec<obl::Elem> keyv(padded, obl::Elem::filler());
      const slice<obl::Elem> ks = keyv.s();
      for (size_t i = 0; i < q; ++i) {
        obl::Elem e;
        e.key = (slots[i].addr << 20) | i;  // priority tiebreak
        e.payload = i;
        ks[i] = e;
      }
      obl::bitonic_sort_ca(ks, true, obl::ByKey{});
      std::vector<Slot> sorted(q);
      for (size_t i = 0; i < q; ++i) sorted[i] = slots[ks[i].payload];
      slots.swap(sorted);
    }

    uint64_t rnd = util::hash_rand(seed_, ++batch_counter_);
    auto draw = [&rnd](uint64_t mod) {
      rnd = util::hash_rand(rnd, 0x5eed);
      return rnd % (mod == 0 ? 1 : mod);
    };

    // ---- Level rounds ---------------------------------------------------
    for (unsigned k = kRootBits; k <= addr_bits_; ++k) {
      Level& lvl = levels_[k - kRootBits];
      const unsigned shift = addr_bits_ - k;

      // Heads of the level-k address groups (sorted order => contiguous).
      for (size_t i = 0; i < q; ++i) {
        const uint64_t ak = slots[i].addr >> shift;
        const uint64_t prev = slots[i == 0 ? 0 : i - 1].addr >> shift;
        slots[i].head = (i == 0 || ak != prev) ? 1u : 0u;
      }

      // Positions for this level.
      if (k == kRootBits) {
        // Oblivious scan of the small root table.
        for (size_t i = 0; i < q; ++i) {
          const uint64_t ak = slots[i].addr >> shift;
          uint64_t pos = 0;
          for (size_t a = 0; a < root_table_.size(); ++a) {
            sim::tick(1);
            obl::oassign(a == ak, pos, root_table_[a]);
          }
          slots[i].pos = pos;
        }
      }
      // Fresh positions. At the root level heads draw them here; at deeper
      // levels npos was already fixed by the previous round (it is the
      // label the parent block now stores — overwriting it would desync
      // the position-label chain).
      if (k == kRootBits) {
        for (size_t i = 0; i < q; ++i) {
          const uint64_t fresh = draw(lvl.leaves());
          if (slots[i].head) {
            slots[i].npos = fresh;
          } else {
            slots[i].npos = slots[i - 1].npos;  // group-contiguous
          }
        }
      }
      if (k == kRootBits) {
        // Update the root table obliviously (heads write; idempotent for
        // followers since npos is shared).
        for (size_t i = 0; i < q; ++i) {
          const uint64_t ak = slots[i].addr >> shift;
          for (size_t a = 0; a < root_table_.size(); ++a) {
            sim::tick(1);
            obl::oassign(a == ak, root_table_[a], slots[i].npos);
          }
        }
      }

      // Fetch: heads fetch their block's path; followers fetch a random
      // dummy path (every path index the adversary sees is uniform).
      std::vector<Block> fetched(q);
      for (size_t i = 0; i < q; ++i) {
        const uint64_t ak = slots[i].addr >> shift;
        const bool head = slots[i].head != 0;
        const uint64_t leaf =
            head ? (slots[i].pos % lvl.leaves()) : draw(lvl.leaves());
        const uint64_t want = head ? ak : Block::kInvalid;
        fetched[i] = lvl.fetch_and_remove(leaf, want);
      }

      if (k < addr_bits_) {
        // Interior level: blocks carry the two child labels. Lazily
        // create missing blocks; share labels within groups; splice in the
        // next level's fresh positions before writing back.
        const unsigned cshift = shift - 1;
        // Compute next-level fresh positions first (heads of a_{k+1}
        // groups draw; groups are contiguous inside a_k groups).
        std::vector<uint64_t> child_np(q);
        Level& nxt = levels_[k + 1 - kRootBits];
        for (size_t i = 0; i < q; ++i) {
          const uint64_t ac = slots[i].addr >> cshift;
          const uint64_t pv = slots[i == 0 ? 0 : i - 1].addr >> cshift;
          const uint64_t fresh = draw(nxt.leaves());
          child_np[i] = (i == 0 || ac != pv) ? fresh : child_np[i - 1];
        }
        // Heads: materialize the block, propagate labels down the group.
        std::vector<uint64_t> lab0(q), lab1(q);
        for (size_t i = 0; i < q; ++i) {
          if (slots[i].head) {
            Block blk = fetched[i];
            const bool absent = !blk.valid();
            // Lazily created blocks get throwaway child labels; the child
            // round will lazily create those blocks too.
            obl::oassign(absent, blk.lab0, draw(nxt.leaves()));
            obl::oassign(absent, blk.lab1, draw(nxt.leaves()));
            lab0[i] = blk.lab0;
            lab1[i] = blk.lab1;
          } else {
            lab0[i] = lab0[i - 1];
            lab1[i] = lab1[i - 1];
          }
        }
        // Each request learns its child's current position, and the a_k
        // head learns the updated labels (children that are accessed get
        // their fresh positions spliced in).
        std::vector<uint64_t> up0(q), up1(q);
        for (size_t i = 0; i < q; ++i) {
          const uint64_t bit = (slots[i].addr >> cshift) & 1u;
          slots[i].pos = bit ? lab1[i] : lab0[i];
          up0[i] = bit == 0 ? child_np[i] + 1 : 0;  // +1: reserve 0 = none
          up1[i] = bit == 1 ? child_np[i] + 1 : 0;
        }
        // Suffix-fold the updates to the group head (max works: updates
        // within a child-group are equal, absent = 0).
        for (size_t i = q; i-- > 0;) {
          const uint64_t ak = slots[i].addr >> shift;
          const uint64_t nx = slots[i + 1 == q ? i : i + 1].addr >> shift;
          if (i + 1 < q && ak == nx) {
            up0[i] = up0[i] > up0[i + 1] ? up0[i] : up0[i + 1];
            up1[i] = up1[i] > up1[i + 1] ? up1[i] : up1[i + 1];
          }
        }
        // Write back: every request stash-puts exactly one block (heads a
        // real one, followers a dummy) — fixed pattern.
        for (size_t i = 0; i < q; ++i) {
          Block out;  // dummy by default
          if (slots[i].head) {
            out.addr = slots[i].addr >> shift;
            out.pos = slots[i].npos % lvl.leaves();
            out.lab0 = up0[i] ? up0[i] - 1 : lab0[i];
            out.lab1 = up1[i] ? up1[i] - 1 : lab1[i];
          }
          lvl.stash_put(out);
        }
        // Propagate child fresh positions into npos for the next round.
        for (size_t i = 0; i < q; ++i) slots[i].npos = child_np[i];
      } else {
        // Data level: resolve the value, apply the head's write (the head
        // is the Priority winner), share the result within the group.
        for (size_t i = 0; i < q; ++i) {
          if (slots[i].head) {
            Block blk = fetched[i];
            const bool absent = !blk.valid();
            uint64_t value = absent ? 0 : blk.lab0;
            obl::oassign(slots[i].is_write != 0, value, slots[i].wvalue);
            slots[i].result = value;
            Block out;
            out.addr = slots[i].addr;
            out.pos = slots[i].npos % lvl.leaves();
            out.lab0 = value;
            lvl.stash_put(out);
          } else {
            slots[i].result = slots[i - 1].result;
            lvl.stash_put(Block{});
          }
        }
      }

      // Maintenance: two deterministic evictions per request.
      for (size_t i = 0; i < 2 * q; ++i) lvl.evict_next();
    }

    // Route results back to the original order.
    std::vector<uint64_t> results(q);
    for (size_t i = 0; i < q; ++i) results[slots[i].origin] = slots[i].result;
    return results;
  }

  /// Diagnostics: total stash occupancy across levels.
  size_t stash_load() const {
    size_t n = 0;
    for (const Level& l : levels_) n += l.stash_load();
    return n;
  }

  static constexpr unsigned kRootBits = 3;  ///< 8 root-table entries

  /// Diagnostics: the data-level position of `addr` (tests only; used to
  /// verify the one-time-pad property — positions must be refreshed on
  /// every access).
  uint64_t debug_data_pos(uint64_t addr) const {
    const auto r = levels_.back().debug_find(addr);
    return r.found ? r.blk.pos : ~uint64_t{0};
  }

 private:
  unsigned addr_bits_;
  size_t batch_;
  uint64_t seed_;
  uint64_t batch_counter_ = 0;
  std::vector<uint64_t> root_table_;
  std::vector<Level> levels_;
};

}  // namespace dopar::pram::opram
