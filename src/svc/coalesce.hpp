#pragma once
// svc coalescing helpers — composite keys and output normalization.
//
// The serving layer batches many small sort requests into ONE oblivious
// sort by tagging each request's keys with a per-batch slot id in the top
// bits: sorting the tagged rows by the single 64-bit composite key yields
// every request's rows contiguous (grouped by slot) and key-sorted within
// the group, so one network pass serves the whole batch. A tag needs the
// request keys below 2^48 — a request with larger keys (or too many rows)
// is dispatched as a one-slot batch of the same sort, whose slot 0 leaves
// every key untouched (composite_key(0, k) == k).
//
// The group-by request kind coalesces by the same slot-tagging idea, but
// its composite keys live in the RELATIONAL key space (< rel::kKeyLimit =
// 2^62, leaving 14 slot bits over 48 key bits — see
// rel::kMaxRelBatchSlots) and the shared plan is a full grouping pipeline
// rather than one sort; a join batch runs one plan per slot (rel/rel.hpp,
// "batches of slots"). The key-size coalescibility rule is shared: a request
// rides a batch iff every key fits in kTenantKeyBits (== rel::
// kBatchKeyBits) bits; relational results need no tie normalization —
// their output contract fixes a total row order.
//
// Determinism contract (the serving layer's core promise): a request's
// output is a pure function of (tenant, keys, service seed) — independent
// of batch composition, slot assignment, dispatch timing, and of the
// backend that sorted it. The sorted key sequence is already independent
// of all of these (it is the input multiset); the only visible freedom is
// the order of equal keys, which a comparator network fixes by the rows'
// positions and so by the request's slot. normalize_ties() removes it:
// within every equal-key run, original indices are re-ordered by a
// per-request seed stream derived from the request's CONTENT
// (request_digest), not from its arrival ticket — so the same request
// replays the same tie order whether it ran alone or inside any batch.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace dopar::svc {

/// Bits of a composite key carrying the request's own sort key; the top
/// 64 - kTenantKeyBits bits carry the batch slot.
inline constexpr unsigned kTenantKeyBits = 48;
/// Largest request key that can ride in a coalesced batch.
inline constexpr uint64_t kMaxCoalescibleKey =
    (uint64_t{1} << kTenantKeyBits) - 1;
/// Distinct slot tags a single batch can carry (2^16 requests).
inline constexpr size_t kMaxBatchSlots = size_t{1}
                                         << (64 - kTenantKeyBits);

constexpr bool coalescible_key(uint64_t key) {
  return key <= kMaxCoalescibleKey;
}
constexpr uint64_t composite_key(uint64_t slot, uint64_t key) {
  return (slot << kTenantKeyBits) | key;
}

/// Content digest of a request: a deterministic hash of (tenant, keys).
/// Feeding this — not the arrival ticket — into the request's seed stream
/// is what makes outputs batch-position-independent.
inline uint64_t request_digest(uint64_t tenant, const std::vector<uint64_t>& keys) {
  uint64_t h = util::hash_rand(0x5e4c'd19e'5717ULL, tenant);
  for (size_t i = 0; i < keys.size(); ++i) {
    h = util::hash_rand(h ^ keys[i], i + 1);
  }
  return util::hash_rand(h, keys.size());
}

/// Domain-separation tag for request streams (keeps them disjoint from
/// the Runtime's synchronous and per-job streams).
inline constexpr uint64_t kRequestStreamTag = 0x5e4c'57ea'a15eedULL;

/// Per-request seed stream: hash of (service seed, content digest).
inline uint64_t request_stream(uint64_t service_seed, uint64_t digest) {
  return util::hash_rand(service_seed, digest ^ kRequestStreamTag);
}

/// Canonicalize the tie order of a key-sorted result. `keys` is the
/// request's sorted key sequence; `order[i]` is the original index of the
/// row now at position i (the engine's arbitrary tie order). Within each
/// equal-key run, indices are re-sorted by (hash_rand(stream, idx), idx),
/// so the final (keys, order) pair depends only on the request and its
/// stream — never on the engine that sorted it.
inline void normalize_ties(const std::vector<uint64_t>& keys,
                           std::vector<uint32_t>& order, uint64_t stream) {
  size_t i = 0;
  while (i < keys.size()) {
    size_t j = i + 1;
    while (j < keys.size() && keys[j] == keys[i]) ++j;
    if (j - i > 1) {
      std::sort(order.begin() + static_cast<ptrdiff_t>(i),
                order.begin() + static_cast<ptrdiff_t>(j),
                [&](uint32_t a, uint32_t b) {
                  const uint64_t ra = util::hash_rand(stream, a);
                  const uint64_t rb = util::hash_rand(stream, b);
                  return ra != rb ? ra < rb : a < b;
                });
    }
    i = j;
  }
}

}  // namespace dopar::svc
