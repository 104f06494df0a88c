#pragma once
// Insecure parallel tree contraction baseline: the same rake schedule as
// apps/contraction.hpp with direct array indexing instead of oblivious
// routing. Matches the structure of the [BGS10]-style low-depth
// contraction the paper compares against in Table 1 (span Õ(log^3 n) under
// naive per-phase forking vs the oblivious version's Õ(log^2 n) per-phase
// sort-bound span — the dagger row is about the opposite direction;
// bench_table1's TC rows measure both).

#include <cassert>
#include <cstdint>
#include <vector>

#include "apps/contraction.hpp"
#include "forkjoin/api.hpp"
#include "sim/tracked.hpp"

namespace dopar::insecure {

inline uint64_t tree_eval(const apps::ExprTree& t) {
  using apps::addmod;
  using apps::kNoNode;
  using apps::mulmod;
  const size_t n = t.size();
  std::vector<uint64_t> parent(n, kNoNode);
  std::vector<uint64_t> c0(t.c0), c1(t.c1), a(n, 1), b(n, 0), num(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (!t.is_leaf(i)) {
      parent[t.c0[i]] = i;
      parent[t.c1[i]] = i;
    }
  }
  std::vector<uint64_t> leaves;
  {
    std::vector<uint64_t> stack{t.root};
    while (!stack.empty()) {
      const uint64_t v = stack.back();
      stack.pop_back();
      if (t.is_leaf(v)) {
        num[v] = leaves.size() + 1;
        leaves.push_back(v);
      } else {
        stack.push_back(t.c1[v]);
        stack.push_back(t.c0[v]);
      }
    }
  }
  while (leaves.size() > 1) {
    for (int sub = 0; sub < 2; ++sub) {
      std::vector<uint64_t> survivors;
      std::vector<uint8_t> raked(leaves.size(), 0);
      // Parallel rake decision + application (direct indexing; the rake
      // sets are independent by the odd/left-right argument).
      vec<uint8_t> rk(leaves.size());
      fj::for_range(0, leaves.size(), fj::kDefaultGrain, [&](size_t i) {
        sim::tick(1);
        const uint64_t v = leaves[i];
        const uint64_t p = parent[v];
        if (p == kNoNode || (num[v] & 1u) == 0) {
          rk.s()[i] = 0;
          return;
        }
        const bool left = c0[p] == v;
        if (left != (sub == 0)) {
          rk.s()[i] = 0;
          return;
        }
        const uint64_t s = left ? c1[p] : c0[p];
        const uint64_t c =
            addmod(mulmod(a[v], t.value[v] % apps::kExprMod), b[v]);
        if (t.op[p] == 0) {
          const uint64_t na = mulmod(a[p], a[s]);
          const uint64_t nb = addmod(mulmod(a[p], addmod(b[s], c)), b[p]);
          a[s] = na;
          b[s] = nb;
        } else {
          const uint64_t pac = mulmod(a[p], c);
          const uint64_t na = mulmod(pac, a[s]);
          const uint64_t nb = addmod(mulmod(pac, b[s]), b[p]);
          a[s] = na;
          b[s] = nb;
        }
        const uint64_t g = parent[p];
        parent[s] = g;
        if (g != kNoNode) {
          if (c0[g] == p) {
            c0[g] = s;
          } else {
            c1[g] = s;
          }
        }
        rk.s()[i] = 1;
      });
      for (size_t i = 0; i < leaves.size(); ++i) raked[i] = rk.s()[i];
      for (size_t i = 0; i < leaves.size(); ++i) {
        if (!raked[i]) survivors.push_back(leaves[i]);
      }
      leaves.swap(survivors);
    }
    for (uint64_t v : leaves) num[v] /= 2;
  }
  const uint64_t v = leaves[0];
  return addmod(mulmod(a[v], t.value[v] % apps::kExprMod), b[v]);
}

}  // namespace dopar::insecure
