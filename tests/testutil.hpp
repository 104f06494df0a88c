#pragma once
// Shared helpers for the dopar test suites.

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "core/spms.hpp"
#include "obl/elem.hpp"
#include "rel/rel.hpp"
#include "sim/tracked.hpp"
#include "util/rng.hpp"

namespace dopar::test {

/// n random elements: key uniform, payload = key, aux = index.
inline std::vector<obl::Elem> random_elems(size_t n, uint64_t seed,
                                           uint64_t key_bound = 0) {
  util::Rng rng(seed);
  std::vector<obl::Elem> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i].key = key_bound ? rng.below(key_bound) : (rng() >> 1);
    v[i].payload = v[i].key;
    v[i].aux = i;
  }
  return v;
}

/// The comparison phases core::detail::osort can run after the random
/// permutation: REC-SORT (empty) and SPMS under each of its two tunings.
inline std::vector<std::optional<core::SpmsTuning>> sort_phases() {
  return {std::nullopt, core::kSpmsPractical, core::kSpmsTheoretical};
}

inline bool sorted_by_key(const std::vector<obl::Elem>& v) {
  return std::is_sorted(v.begin(), v.end(),
                        [](const obl::Elem& a, const obl::Elem& b) {
                          return a.key < b.key;
                        });
}

/// Multiset-of-keys equality.
inline bool same_keys(std::vector<obl::Elem> a, std::vector<obl::Elem> b) {
  auto by_key = [](const obl::Elem& x, const obl::Elem& y) {
    return x.key < y.key;
  };
  std::sort(a.begin(), a.end(), by_key);
  std::sort(b.begin(), b.end(), by_key);
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].key != b[i].key) return false;
  }
  return true;
}

// ---- insecure relational oracles ----------------------------------------
//
// Independent reference implementations for the relational engines: a
// nested-loop join and a hash aggregation. Rows expose .key and .id.

/// A bare (key, id) row.
struct KeyedRow {
  uint64_t key = 0;
  uint64_t id = 0;
};

/// Zip a key column with an id column (default: the input index).
inline std::vector<KeyedRow> keyed_rows(const std::vector<uint64_t>& keys,
                                        const std::vector<uint64_t>& ids = {}) {
  std::vector<KeyedRow> rows(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    rows[i] = KeyedRow{keys[i], ids.empty() ? i : ids[i]};
  }
  return rows;
}

using IdPairs = std::vector<std::pair<uint64_t, uint64_t>>;

/// The nested-loop join oracle: (left id, right id) of every pair with
/// equal keys (|difference| <= band when banded), in the engines' output
/// order — grouped by left row in input order, each group's right rows
/// ascending by (key, input index).
template <class L, class R>
IdPairs oracle_join(const std::vector<L>& left, const std::vector<R>& right,
                    bool banded, uint64_t band) {
  std::vector<size_t> order(right.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return right[a].key < right[b].key;
  });
  IdPairs out;
  for (const L& l : left) {
    for (size_t ri : order) {
      const R& r = right[ri];
      const uint64_t diff = l.key > r.key ? l.key - r.key : r.key - l.key;
      if (banded ? diff <= band : l.key == r.key) {
        out.emplace_back(l.id, r.id);
      }
    }
  }
  return out;
}

/// The hash-aggregation oracle for group-by, folding each row's .id as
/// its value; std::map gives the engines' ascending key order.
template <class Row>
std::map<uint64_t, rel::GroupRow> oracle_group(const std::vector<Row>& rows,
                                               rel::Agg agg) {
  std::map<uint64_t, rel::GroupRow> m;
  for (const Row& r : rows) {
    const uint64_t v = r.id;
    auto [it, fresh] = m.try_emplace(r.key, rel::GroupRow{r.key, v, 1});
    if (fresh) {
      if (agg == rel::Agg::Count) it->second.value = 1;
      continue;
    }
    it->second.count += 1;
    switch (agg) {
      case rel::Agg::Sum: it->second.value += v; break;
      case rel::Agg::Count: it->second.value += 1; break;
      case rel::Agg::Min:
        it->second.value = std::min(it->second.value, v);
        break;
      case rel::Agg::Max:
        it->second.value = std::max(it->second.value, v);
        break;
    }
  }
  return m;
}

}  // namespace dopar::test
