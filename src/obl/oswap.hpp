#pragma once
// Branchless oblivious swap and select.
//
// Even inside the secure processor, the paper's adversary observes which
// addresses are touched; a comparator that only conditionally *writes* would
// leak the comparison through the write set. oswap always reads and writes
// both operands, masking the exchange with an arithmetic mask so neither the
// address trace nor the executed instruction stream depends on the secret
// predicate.

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "obl/kernel/dispatch.hpp"

namespace dopar::obl {

// Records at or below kernel::kInlineBytes keep the historical word-loop
// fast path (staged through zero-padded uint64_t arrays, so non-multiple-
// of-8 sizes never read or blend stray tail bytes); larger records — Elem
// and every bin/routing record built on it — dispatch to the runtime-
// selected raw kernels (AVX2/SSE2/NEON/scalar; see kernel/dispatch.hpp),
// which operate in place on exactly sizeof(T) bytes. The same cutoff picks
// the bitonic round runner's pair path (kernel::run_pairs): records at or
// below it are compared and swapped here, one pair at a time in one pass;
// larger ones stage their masks for kernel::oswap_batch_raw, whose vector
// kernels beat this word loop at those sizes.

/// Swap a and b iff do_swap, with a data-independent access pattern.
template <class T>
inline void oswap(T& a, T& b, bool do_swap) {
  static_assert(std::is_trivially_copyable_v<T>,
                "oswap requires trivially copyable records");
  if constexpr (sizeof(T) > kernel::kInlineBytes) {
    kernel::oswap_raw(&a, &b, sizeof(T), do_swap);
  } else {
    constexpr size_t kWords = (sizeof(T) + 7) / 8;
    uint64_t wa[kWords] = {};
    uint64_t wb[kWords] = {};
    std::memcpy(wa, &a, sizeof(T));
    std::memcpy(wb, &b, sizeof(T));
    const uint64_t mask = 0 - static_cast<uint64_t>(do_swap);
    for (size_t i = 0; i < kWords; ++i) {
      const uint64_t t = (wa[i] ^ wb[i]) & mask;
      wa[i] ^= t;
      wb[i] ^= t;
    }
    std::memcpy(&a, wa, sizeof(T));
    std::memcpy(&b, wb, sizeof(T));
  }
}

/// Branchless select: returns t if cond else f.
template <class T>
inline T oselect(bool cond, const T& t, const T& f) {
  static_assert(std::is_trivially_copyable_v<T>);
  if constexpr (sizeof(T) > kernel::kInlineBytes) {
    T out;
    kernel::oselect_raw(&out, &t, &f, sizeof(T), cond);
    return out;
  } else {
    constexpr size_t kWords = (sizeof(T) + 7) / 8;
    uint64_t wt[kWords] = {};
    uint64_t wf[kWords] = {};
    std::memcpy(wt, &t, sizeof(T));
    std::memcpy(wf, &f, sizeof(T));
    const uint64_t mask = 0 - static_cast<uint64_t>(cond);
    for (size_t i = 0; i < kWords; ++i) {
      wf[i] = (wt[i] & mask) | (wf[i] & ~mask);
    }
    T out;
    std::memcpy(&out, wf, sizeof(T));
    return out;
  }
}

/// Conditionally overwrite dst with src iff cond (always writes dst).
template <class T>
inline void oassign(bool cond, T& dst, const T& src) {
  if constexpr (sizeof(T) > kernel::kInlineBytes) {
    // dst aliases the select's false operand exactly; the raw kernels
    // support that (full-width blend, no partial writes).
    kernel::oselect_raw(&dst, &src, &dst, sizeof(T), cond);
  } else {
    dst = oselect(cond, src, dst);
  }
}

}  // namespace dopar::obl
