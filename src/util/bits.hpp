#pragma once
// Bit-manipulation helpers shared across dopar.
//
// All core routines in the library work on power-of-two problem sizes (the
// paper assumes the bin count beta and branching factor gamma are powers of
// two); the helpers here centralize the rounding and log arithmetic.

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstddef>

namespace dopar::util {

/// True iff x is a power of two (0 is not).
constexpr bool is_pow2(uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

/// floor(log2(x)); x must be nonzero.
constexpr unsigned log2_floor(uint64_t x) {
  assert(x != 0);
  return 63u - static_cast<unsigned>(std::countl_zero(x));
}

/// ceil(log2(x)); x must be nonzero.
constexpr unsigned log2_ceil(uint64_t x) {
  assert(x != 0);
  return x == 1 ? 0u : log2_floor(x - 1) + 1u;
}

/// Exact log2 of a power of two.
constexpr unsigned log2_exact(uint64_t x) {
  assert(is_pow2(x));
  return log2_floor(x);
}

/// Smallest power of two >= x (x must be nonzero and representable).
constexpr uint64_t pow2_ceil(uint64_t x) {
  assert(x != 0);
  return uint64_t{1} << log2_ceil(x);
}

/// Largest power of two <= x.
constexpr uint64_t pow2_floor(uint64_t x) {
  assert(x != 0);
  return uint64_t{1} << log2_floor(x);
}

/// Integer ceil division.
constexpr uint64_t ceil_div(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

/// natural log2 of n as a double, clamped below at 1 (the paper's
/// "log n" in parameter settings like Z = log^2 n always means >= 1).
inline double log2_clamped(size_t n) {
  if (n <= 2) return 1.0;
  return static_cast<double>(log2_floor(n)) +
         // cheap fractional part; precision is irrelevant for parameter picks
         static_cast<double>(n - pow2_floor(n)) /
             static_cast<double>(pow2_floor(n));
}

/// Reverse the low `bits` bits of x (used for reverse-lexicographic
/// deterministic eviction order in the ORAM trees).
constexpr uint64_t reverse_bits(uint64_t x, unsigned bits) {
  uint64_t r = 0;
  for (unsigned i = 0; i < bits; ++i) {
    r = (r << 1) | ((x >> i) & 1u);
  }
  return r;
}

}  // namespace dopar::util
