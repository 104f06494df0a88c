#pragma once
// Seeded input generators and the insecure oracles every output is checked
// against: std::sort for sorts, a hash join and a map group-by for the
// relational ops (the graph oracles come from insecure/graph.hpp).

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dopar.hpp"
#include "workloads.hpp"

namespace pb {

// ---- sorts -----------------------------------------------------------------

/// `out` is `in` sorted by key, and every payload (the input position)
/// names an input record with the same key exactly once.
inline bool sort_matches(const std::vector<dopar::Elem>& in,
                         const std::vector<dopar::Elem>& out) {
  if (in.size() != out.size()) return false;
  std::vector<uint64_t> want(in.size());
  for (size_t i = 0; i < in.size(); ++i) want[i] = in[i].key;
  std::sort(want.begin(), want.end());
  std::vector<char> seen(in.size(), 0);
  for (size_t i = 0; i < out.size(); ++i) {
    const uint64_t src = out[i].payload;
    if (out[i].key != want[i] || src >= in.size() || seen[src] ||
        in[src].key != out[i].key) {
      return false;
    }
    seen[src] = 1;
  }
  return true;
}

// ---- TPC-H-shaped join + group-by --------------------------------------------

struct Order {
  uint64_t key = 0;
  uint64_t id = 0;
};
struct Item {
  uint64_t key = 0;
  uint64_t price = 0;
  uint64_t idx = 0;  ///< input position (the join's tie order)
};
inline constexpr auto order_key = [](const Order& o) { return o.key; };
inline constexpr auto item_key = [](const Item& it) { return it.key; };
inline constexpr auto item_price = [](const Item& it) { return it.price; };

/// (order id, item idx) pairs in the join's output order.
using JoinPairs = std::vector<std::pair<uint64_t, uint64_t>>;

struct TpchTables {
  std::vector<Order> orders;
  std::vector<Item> items;
  JoinPairs expect_join;
  std::vector<dopar::GroupRow> expect_groups;
};

/// Orders with distinct keys in shuffled order; lineitems whose foreign
/// keys carry quadratic skew (a few hot orders own most of the rows).
inline TpchTables make_tpch(size_t n_orders, size_t n_items,
                            std::mt19937_64& rng) {
  TpchTables t;
  t.orders.resize(n_orders);
  for (size_t i = 0; i < n_orders; ++i) t.orders[i] = Order{1000 + i, i};
  std::shuffle(t.orders.begin(), t.orders.end(), rng);
  t.items.resize(n_items);
  for (size_t i = 0; i < n_items; ++i) {
    const uint64_t r = rng() % n_orders;
    t.items[i] = Item{1000 + r * r / n_orders, 1 + rng() % 500, i};
  }
  return t;
}

/// Hash join: every (order, item) with equal keys, grouped by order in
/// input order, items ascending by input position.
inline JoinPairs join_oracle(const std::vector<Order>& orders,
                             const std::vector<Item>& items) {
  std::unordered_map<uint64_t, std::vector<uint64_t>> by_key;
  for (const Item& it : items) by_key[it.key].push_back(it.idx);
  JoinPairs out;
  for (const Order& o : orders) {
    const auto f = by_key.find(o.key);
    if (f == by_key.end()) continue;
    for (uint64_t idx : f->second) out.emplace_back(o.id, idx);
  }
  return out;
}

inline std::vector<dopar::GroupRow> group_oracle(
    const std::vector<uint64_t>& keys, const std::vector<uint64_t>& values) {
  std::map<uint64_t, dopar::GroupRow> g;
  for (size_t i = 0; i < keys.size(); ++i) {
    dopar::GroupRow& r = g[keys[i]];
    r.key = keys[i];
    r.value += values[i];
    r.count += 1;
  }
  std::vector<dopar::GroupRow> out;
  for (const auto& [k, r] : g) out.push_back(r);
  return out;
}

inline std::vector<dopar::GroupRow> group_oracle(
    const std::vector<Item>& items) {
  std::vector<uint64_t> keys, values;
  for (const Item& it : items) {
    keys.push_back(it.key);
    values.push_back(it.price);
  }
  return group_oracle(keys, values);
}

inline bool join_rows_match(const dopar::JoinResult<Order, Item>& res,
                            const JoinPairs& want) {
  if (res.matched != want.size() || res.rows.size() != want.size()) {
    return false;
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (res.rows[i].first.id != want[i].first ||
        res.rows[i].second.idx != want[i].second) {
      return false;
    }
  }
  return true;
}

inline bool groups_match(const dopar::GroupByResult& res,
                         const std::vector<dopar::GroupRow>& want) {
  if (res.groups_total != want.size() || res.groups.size() != want.size()) {
    return false;
  }
  for (size_t i = 0; i < want.size(); ++i) {
    const dopar::GroupRow& a = res.groups[i];
    const dopar::GroupRow& b = want[i];
    if (a.key != b.key || a.value != b.value || a.count != b.count) {
      return false;
    }
  }
  return true;
}

// ---- Service request pool ----------------------------------------------------

struct SortReq {
  std::vector<uint64_t> keys, expect;
};
struct JoinReq {
  std::vector<uint64_t> left, right;
  uint64_t band = 0;  ///< 0 = equi-join
  size_t bound = 0;
  std::vector<std::pair<uint64_t, uint64_t>> expect;  ///< (left, right) keys
  uint64_t matched = 0;
};
struct GroupReq {
  std::vector<uint64_t> keys, values;
  std::vector<dopar::GroupRow> expect;
};
struct SvcPool {
  std::vector<SortReq> sorts;
  std::vector<JoinReq> joins;
  std::vector<GroupReq> groups;
};

/// Nested-loop band join over key tables (band 0 = equi-join): pairs
/// grouped by left row in input order, right keys ascending, truncated to
/// the bound.
inline void join_keys_oracle(JoinReq& q) {
  std::vector<uint64_t> right = q.right;
  std::sort(right.begin(), right.end());
  q.expect.clear();
  q.matched = 0;
  for (uint64_t l : q.left) {
    for (uint64_t r : right) {
      const uint64_t d = l > r ? l - r : r - l;
      if (d > q.band) continue;
      ++q.matched;
      if (q.expect.size() < q.bound) q.expect.emplace_back(l, r);
    }
  }
}

inline bool join_pairs_match(const dopar::JoinResult<uint64_t, uint64_t>& res,
                             const JoinReq& q) {
  return res.matched == q.matched && res.rows == q.expect;
}

/// The request mix of svc_mixed_open: sorts of 64-1024 keys (mostly 256),
/// equi and band (width 1) joins of n x n keys over a 4n key domain with
/// output bound 4n, and Sum group-bys of 1024 rows over 128 groups.
inline SvcPool make_svc_pool(const Params& p) {
  std::mt19937_64 rng(p.seed ^ 0x5e7c);
  const size_t per_kind = p.tiny ? 8 : 64;
  const size_t jn = p.tiny ? 64 : 256;
  const size_t gn = p.tiny ? 256 : 1024;
  SvcPool pool;
  for (size_t i = 0; i < per_kind; ++i) {
    static constexpr size_t kSizes[10] = {256, 256, 256, 256, 256,
                                          256, 256, 64,  512, 1024};
    SortReq s;
    s.keys.resize(p.tiny ? 64 : kSizes[rng() % 10]);
    for (auto& k : s.keys) k = rng() % (uint64_t{1} << 20);
    s.expect = s.keys;
    std::sort(s.expect.begin(), s.expect.end());
    pool.sorts.push_back(std::move(s));

    JoinReq j;
    j.left.resize(jn);
    j.right.resize(jn);
    for (auto& k : j.left) k = rng() % (4 * jn);
    for (auto& k : j.right) k = rng() % (4 * jn);
    j.band = i % 2;
    j.bound = 4 * jn;
    join_keys_oracle(j);
    pool.joins.push_back(std::move(j));
  }
  for (size_t i = 0; i < per_kind / 2; ++i) {
    GroupReq g;
    g.keys.resize(gn);
    g.values.resize(gn);
    for (auto& k : g.keys) k = rng() % 128;
    for (auto& v : g.values) v = rng() % 1000;
    g.expect = group_oracle(g.keys, g.values);
    pool.groups.push_back(std::move(g));
  }
  return pool;
}

// ---- graphs ----------------------------------------------------------------

/// Two communities, each a random forest over most of its vertices plus
/// extra intra-community edges; the rest stay isolated, so the graph has
/// many components.
inline std::vector<dopar::GEdge> two_communities(size_t n,
                                                 std::mt19937_64& rng) {
  std::vector<dopar::GEdge> e;
  auto add = [&](uint64_t u, uint64_t v) {
    e.push_back(dopar::GEdge{static_cast<uint32_t>(u),
                             static_cast<uint32_t>(v), 2 * e.size() + 1});
  };
  const size_t half = n / 2;
  for (size_t base : {size_t{0}, half}) {
    for (size_t v = 1; v < half; ++v) {
      if (rng() % 10 != 0) add(base + rng() % v, base + v);
    }
    for (size_t k = 0; k < half / 4; ++k) {
      const uint64_t u = rng() % half, v = rng() % half;
      if (u != v) add(base + u, base + v);
    }
  }
  return e;
}

/// A ring with random chords and distinct weights (a connected mesh).
inline std::vector<dopar::GEdge> ring_with_chords(size_t n,
                                                  std::mt19937_64& rng) {
  std::vector<dopar::GEdge> e;
  for (size_t v = 0; v < n; ++v) {
    e.push_back(dopar::GEdge{static_cast<uint32_t>(v),
                             static_cast<uint32_t>((v + 1) % n), 0});
  }
  for (size_t k = 0; k < n / 2; ++k) {
    const uint64_t u = rng() % n, v = rng() % n;
    if (u != v) {
      e.push_back(dopar::GEdge{static_cast<uint32_t>(u),
                               static_cast<uint32_t>(v), 0});
    }
  }
  std::vector<uint64_t> w(e.size());
  for (size_t i = 0; i < w.size(); ++i) w[i] = 2 * i + 1;
  std::shuffle(w.begin(), w.end(), rng);
  for (size_t i = 0; i < e.size(); ++i) e[i].w = w[i];
  return e;
}

}  // namespace pb
