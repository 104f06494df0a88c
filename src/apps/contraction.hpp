#pragma once
// Oblivious tree contraction (paper Section 5.3, Theorem 5.2(i)).
//
// Kosaraju–Delcher-style rake on full binary expression trees: log L
// phases; in each phase every odd-numbered leaf is raked (left children
// first, then right children — the classic independence condition), with
// the usual a*x+b linear forms composed onto the surviving sibling so
// +/× expressions evaluate exactly. Arithmetic is mod p = 2^61 - 1.
//
// Every phase is realized with batch-oblivious gathers and scatters
// (fixed-pattern routing instances) over the node tables; the leaf
// work-list halves every phase — a public, data-independent schedule, so
// the whole access pattern depends only on (n, L). Each substep reads its
// tables at four address arrays (the leaves, their parents, siblings and
// grandparents) through one AddrPlan per array, so each array's requests
// are sorted once however many tables are read there.
//
// Deviation from the paper: the paper compacts *memory* geometrically to
// reach O(W_sort(n)) total work; we compact the leaf work-list but keep
// the node tables full-sized, so each of the log L phases pays a
// table-sized routing term. The span claim (the Table 1 dagger: Õ(log^2 n)
// vs insecure Õ(log^3 n)) is unaffected and is what the bench
// demonstrates.

#include <cassert>
#include <cstdint>
#include <vector>

#include "apps/common.hpp"
#include "forkjoin/api.hpp"
#include "obl/oswap.hpp"
#include "sim/tracked.hpp"
#include "util/bits.hpp"

namespace dopar::apps {

inline constexpr uint64_t kExprMod = (uint64_t{1} << 61) - 1;
inline constexpr uint64_t kNoNode = ~uint64_t{0};

inline uint64_t mulmod(uint64_t a, uint64_t b) {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(a) * b) % kExprMod);
}
inline uint64_t addmod(uint64_t a, uint64_t b) {
  const uint64_t s = a + b;  // both < 2^61: no overflow
  return s >= kExprMod ? s - kExprMod : s;
}

/// Full binary expression tree: every internal node has exactly two
/// children. op: 0 = add, 1 = mul. Leaves carry values < kExprMod.
struct ExprTree {
  std::vector<uint64_t> c0, c1;  ///< children (kNoNode for leaves)
  std::vector<uint8_t> op;
  std::vector<uint64_t> value;  ///< leaf values
  uint64_t root = 0;

  size_t size() const { return c0.size(); }
  bool is_leaf(size_t i) const { return c0[i] == kNoNode; }
};

namespace detail {

/// Engine behind Runtime::tree_eval: evaluate the tree by oblivious rake
/// contraction.
inline uint64_t tree_eval(const ExprTree& t) {
  const size_t n = t.size();
  assert(n >= 1);

  // --- Input prep (client side, like building the tree itself): parents,
  // sides, and in-order leaf numbers.
  std::vector<uint64_t> parent0(n, kNoNode), side0(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (!t.is_leaf(i)) {
      parent0[t.c0[i]] = i;
      side0[t.c0[i]] = 0;
      parent0[t.c1[i]] = i;
      side0[t.c1[i]] = 1;
    }
  }
  std::vector<uint64_t> leafnum0(n, 0);
  size_t nleaves = 0;
  {
    std::vector<uint64_t> stack{t.root};
    while (!stack.empty()) {
      const uint64_t v = stack.back();
      stack.pop_back();
      if (t.is_leaf(v)) {
        leafnum0[v] = ++nleaves;  // 1-based in-order numbering
      } else {
        stack.push_back(t.c1[v]);
        stack.push_back(t.c0[v]);
      }
    }
  }
  if (nleaves == 1) {
    for (size_t i = 0; i < n; ++i) {
      if (t.is_leaf(i)) return t.value[i] % kExprMod;
    }
  }

  // --- Oblivious state tables.
  vec<uint64_t> par(n), c0v(n), c1v(n), av(n), bv(n), num(n), one(n, 1);
  const slice<uint64_t> PAR = par.s(), C0 = c0v.s(), C1 = c1v.s();
  const slice<uint64_t> A = av.s(), B = bv.s(), NUM = num.s();
  for (size_t i = 0; i < n; ++i) {
    PAR[i] = parent0[i];
    C0[i] = t.c0[i];
    C1[i] = t.c1[i];
    A[i] = 1;
    B[i] = 0;
    NUM[i] = leafnum0[i];
  }

  // Leaf work-list (halves every phase; sizes are public).
  std::vector<uint64_t> leaves;
  leaves.reserve(nleaves);
  for (size_t i = 0; i < n; ++i) {
    if (t.is_leaf(i)) leaves.push_back(i);
  }

  uint64_t answer = 0;
  while (true) {
    if (leaves.size() == 1) {
      const uint64_t v = leaves[0];
      vec<uint64_t> q(1), ra(1), rb(1);
      q.s()[0] = v;
      const AddrPlan at_root(q.s());
      gather(at_root, A, ra.s());
      gather(at_root, B, rb.s());
      answer = addmod(mulmod(ra.s()[0], t.value[v] % kExprMod), rb.s()[0]);
      break;
    }
    for (int sub = 0; sub < 2; ++sub) {  // left children, then right
      const size_t q = leaves.size();
      vec<uint64_t> lv(q), pv(q), popv(q), pav(q), pbv(q), pparv(q),
          pc0v(q), pc1v(q), rakev(q);
      const slice<uint64_t> LV = lv.s(), PV = pv.s(), POP = popv.s();
      const slice<uint64_t> PA = pav.s(), PB = pbv.s(), PPAR = pparv.s();
      const slice<uint64_t> PC0 = pc0v.s(), PC1 = pc1v.s(),
                            RAKE = rakev.s();
      fj::for_range(0, q, fj::kDefaultGrain,
                    [&](size_t i) { LV[i] = leaves[i]; });
      // Gather per-leaf state and parent state.
      vec<uint64_t> mynum(q), mya(q), myb(q);
      const AddrPlan at_leaf(LV);
      gather(at_leaf, NUM, mynum.s());
      gather(at_leaf, PAR, PV);
      gather(at_leaf, A, mya.s());
      gather(at_leaf, B, myb.s());
      // Parent op table lives in plain memory; fetch obliviously too.
      vec<uint64_t> opt(n);
      const slice<uint64_t> OPT = opt.s();
      fj::for_range(0, n, fj::kDefaultGrain,
                    [&](size_t i) { OPT[i] = t.op[i]; });
      const AddrPlan at_parent(PV);
      gather(at_parent, C0, PC0);
      gather(at_parent, C1, PC1);
      gather(at_parent, A, PA);
      gather(at_parent, B, PB);
      gather(at_parent, PAR, PPAR);
      gather(at_parent, OPT, POP);

      // Decide rakes and compute the sibling's new linear form.
      vec<uint64_t> sib(q), na(q), nb(q), npar(q), isleft(q);
      const slice<uint64_t> SIB = sib.s(), NA = na.s(), NB = nb.s();
      const slice<uint64_t> NPAR = npar.s(), ISL = isleft.s();
      fj::for_range(0, q, fj::kDefaultGrain, [&](size_t i) {
        sim::tick(1);
        const uint64_t v = LV[i];
        const uint64_t pc0 = PC0[i], pc1 = PC1[i];
        const bool left = pc0 == v;
        const bool odd = (mynum.s()[i] & 1u) == 1u;
        const bool has_parent = PV[i] != kNoNode;
        const bool rake = has_parent & odd & (left == (sub == 0));
        const uint64_t c =
            addmod(mulmod(mya.s()[i], t.value[v] % kExprMod), myb.s()[i]);
        // New edge function of the sibling s, partial: the parent's fn
        // composed with the raked constant under the parent's operator,
        // as a_p * (a_s x + b_s + NB) + b_p with a_p folded into NA —
        //   add: f_p(f_s(x) + c):  NA = a_p,      NB = c
        //   mul: f_p(c * f_s(x)):  NA = a_p * c,  NB = 0
        // (a_p < kExprMod, so mulmod(a_p, 1) = a_p). Selected, not
        // branched, so the operator never shows in the access pattern.
        const bool add = POP[i] == 0;
        const uint64_t pa = PA[i];
        SIB[i] = obl::oselect(left, pc1, pc0);
        NA[i] = obl::oselect(add, pa, mulmod(pa, c));
        NB[i] = obl::oselect<uint64_t>(add, c, 0);
        NPAR[i] = PPAR[i];
        ISL[i] = left ? 1u : 0u;
        RAKE[i] = rake ? 1u : 0u;
      });
      // Gather the sibling's current (a, b) and finish the composition:
      //   a' = NA * a_s,  b' = NA * (b_s + NB) + b_p, i.e.
      //   add: a' = a_p * a_s,            b' = a_p * (b_s + c) + b_p
      //   mul: a' = a_p * c * a_s,        b' = a_p * c * b_s + b_p
      vec<uint64_t> sa(q), sb(q), fa(q), fb(q);
      const AddrPlan at_sibling(SIB);
      gather(at_sibling, A, sa.s());
      gather(at_sibling, B, sb.s());
      fj::for_range(0, q, fj::kDefaultGrain, [&](size_t i) {
        sim::tick(1);
        const uint64_t na = NA[i];
        fa.s()[i] = mulmod(na, sa.s()[i]);
        fb.s()[i] = addmod(mulmod(na, addmod(sb.s()[i], NB[i])), PB[i]);
      });
      // Scatter updates (targets unique per table within a substep).
      scatter_min(A, SIB, fa.s(), RAKE);
      scatter_min(B, SIB, fb.s(), RAKE);
      scatter_min(PAR, SIB, NPAR, RAKE);
      // Grandparent's child slot: p -> s. Which slot depends on p's side.
      vec<uint64_t> gl0(q), gl1(q);
      const slice<uint64_t> GL0 = gl0.s(), GL1 = gl1.s();
      vec<uint64_t> gc0(q);
      const AddrPlan at_grandparent(NPAR);
      gather(at_grandparent, C0, gc0.s());  // grandparent's left child
      fj::for_range(0, q, fj::kDefaultGrain, [&](size_t i) {
        sim::tick(1);
        const bool valid = (RAKE[i] != 0) & (NPAR[i] != kNoNode);
        const bool p_is_left = gc0.s()[i] == PV[i];
        GL0[i] = valid & p_is_left;
        GL1[i] = valid & !p_is_left;
      });
      scatter_min(C0, NPAR, SIB, GL0);
      scatter_min(C1, NPAR, SIB, GL1);
      // Drop raked leaves from the work-list (public sizes).
      std::vector<uint64_t> survivors;
      survivors.reserve(q);
      for (size_t i = 0; i < q; ++i) {
        if (RAKE[i] == 0) survivors.push_back(LV[i]);
      }
      leaves.swap(survivors);
    }
    // Renumber surviving (even-numbered) leaves: halve.
    {
      const size_t q = leaves.size();
      vec<uint64_t> lv(q), nn(q), halves(q), onesq(q, 1);
      const slice<uint64_t> LV = lv.s(), NN = nn.s();
      fj::for_range(0, q, fj::kDefaultGrain,
                    [&](size_t i) { LV[i] = leaves[i]; });
      gather(NUM, LV, NN);
      fj::for_range(0, q, fj::kDefaultGrain,
                    [&](size_t i) { halves.s()[i] = NN[i] / 2; });
      scatter_min(NUM, LV, halves.s(), onesq.s());
    }
  }
  return answer;
}

}  // namespace detail

/// Insecure recursive evaluation (oracle).
inline uint64_t tree_eval_reference(const ExprTree& t) {
  std::vector<uint64_t> val(t.size(), 0);
  // Iterative post-order.
  std::vector<std::pair<uint64_t, int>> stack{{t.root, 0}};
  while (!stack.empty()) {
    auto& [v, st] = stack.back();
    if (t.is_leaf(v)) {
      val[v] = t.value[v] % kExprMod;
      stack.pop_back();
    } else if (st == 0) {
      st = 1;
      stack.push_back({t.c0[v], 0});
    } else if (st == 1) {
      st = 2;
      stack.push_back({t.c1[v], 0});
    } else {
      val[v] = t.op[v] == 0 ? addmod(val[t.c0[v]], val[t.c1[v]])
                            : mulmod(val[t.c0[v]], val[t.c1[v]]);
      stack.pop_back();
    }
  }
  return val[t.root];
}

}  // namespace dopar::apps
