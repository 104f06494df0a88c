// Unit tests for the branchless move primitives and the raw comparator
// kernels: every compiled-in ISA must agree bit-for-bit with the scalar
// reference on every byte count — including sizes that are not a multiple
// of any vector width — and must never read or write past the record
// (the suite runs under the ASan+UBSan CI job with exactly-sized heap
// buffers, so a one-byte tail over-read fails loudly).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "obl/elem.hpp"
#include "obl/kernel/dispatch.hpp"
#include "obl/kernel/kernel.hpp"
#include "obl/oswap.hpp"
#include "sim/tracked.hpp"
#include "util/rng.hpp"

namespace dopar {
namespace {

using obl::Elem;
using obl::kernel::Isa;

std::vector<Isa> supported_isas() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::Scalar, Isa::Sse2, Isa::Avx2, Isa::Neon}) {
    if (obl::kernel::isa_supported(isa)) out.push_back(isa);
  }
  return out;
}

/// Pin an ISA for the scope of a test, restoring the startup selection.
struct ScopedIsa {
  Isa prev;
  explicit ScopedIsa(Isa isa) : prev(obl::kernel::active_isa()) {
    EXPECT_TRUE(obl::kernel::select_isa(isa));
  }
  ~ScopedIsa() { obl::kernel::select_isa(prev); }
};

std::vector<unsigned char> random_bytes(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<unsigned char> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<unsigned char>(rng.below(256));
  }
  return v;
}

// Byte counts chosen to cross every tail boundary: below/at/above one word,
// one SSE vector, one AVX vector, plus odd stragglers.
const size_t kSizes[] = {0,  1,  5,  7,  8,  9,  12, 15, 16, 17,  24,
                         31, 32, 33, 40, 48, 63, 64, 65, 96, 100, 129};

TEST(OswapRaw, EveryIsaMatchesReferenceAtEveryByteCount) {
  for (Isa isa : supported_isas()) {
    ScopedIsa guard(isa);
    for (size_t bytes : kSizes) {
      for (bool flag : {false, true}) {
        // Exactly-sized heap buffers: any tail over-read trips ASan.
        auto a = random_bytes(bytes, 10 * bytes + flag);
        auto b = random_bytes(bytes, 20 * bytes + flag + 1);
        const auto a0 = a, b0 = b;
        obl::kernel::oswap_raw(a.data(), b.data(), bytes, flag);
        const auto& ea = flag ? b0 : a0;
        const auto& eb = flag ? a0 : b0;
        EXPECT_EQ(a, ea) << obl::kernel::isa_name(isa) << " bytes=" << bytes;
        EXPECT_EQ(b, eb) << obl::kernel::isa_name(isa) << " bytes=" << bytes;
      }
    }
  }
}

TEST(OswapRaw, EveryIsaSelectMatchesReferenceAndSupportsAliasedDst) {
  for (Isa isa : supported_isas()) {
    ScopedIsa guard(isa);
    for (size_t bytes : kSizes) {
      for (bool cond : {false, true}) {
        const auto t = random_bytes(bytes, 3 * bytes + cond);
        const auto f = random_bytes(bytes, 5 * bytes + cond + 7);
        std::vector<unsigned char> dst(bytes, 0xcd);
        obl::kernel::oselect_raw(dst.data(), t.data(), f.data(), bytes, cond);
        EXPECT_EQ(dst, cond ? t : f)
            << obl::kernel::isa_name(isa) << " bytes=" << bytes;
        // dst aliasing the false operand exactly (the oassign shape).
        auto inplace = f;
        obl::kernel::oselect_raw(inplace.data(), t.data(), inplace.data(),
                                 bytes, cond);
        EXPECT_EQ(inplace, cond ? t : f)
            << obl::kernel::isa_name(isa) << " bytes=" << bytes;
      }
    }
  }
}

TEST(OswapRaw, BatchMatchesPerRecordReferenceAcrossStrides) {
  // (bytes, stride) covers the AVX2 packed fast paths (8/8, 16/16), its
  // 32-, 40- and 48-byte paths in the round runner's contiguous batches
  // (32/32 = Elem, 40/40 = Routed and BinItem<Elem>, 48/48 =
  // BinItem<Routed>) and stride-2d batches (32/64, 40/80, 48/96), a
  // strided layout (8 within 24), and odd record sizes (33/33 tail case).
  const std::pair<size_t, size_t> shapes[] = {
      {8, 8},   {16, 16}, {32, 32}, {8, 24},  {40, 40}, {48, 48}, {32, 64},
      {40, 80}, {48, 96}, {33, 33}, {64, 64}, {5, 12}};
  for (Isa isa : supported_isas()) {
    ScopedIsa guard(isa);
    for (auto [bytes, stride] : shapes) {
      for (size_t count : {size_t{0}, size_t{1}, size_t{3}, size_t{7},
                           size_t{64}, size_t{513}}) {
        // Exact allocation: last record ends flush with the buffer.
        const size_t total = count == 0 ? 0 : (count - 1) * stride + bytes;
        auto a = random_bytes(total, bytes * 1000 + stride * 10 + count);
        auto b = random_bytes(total, bytes * 2000 + stride * 20 + count);
        std::vector<unsigned char> mask(count ? count : 1);
        util::Rng rng(count + bytes);
        for (size_t i = 0; i < count; ++i) {
          mask[i] = static_cast<unsigned char>(rng.below(2));
        }
        // Reference: per-record scalar swap on copies.
        auto ra = a, rb = b;
        for (size_t i = 0; i < count; ++i) {
          if (mask[i]) {
            for (size_t k = 0; k < bytes; ++k) {
              std::swap(ra[i * stride + k], rb[i * stride + k]);
            }
          }
        }
        obl::kernel::oswap_batch_raw(a.data(), b.data(), bytes, stride,
                                     mask.data(), count);
        EXPECT_EQ(a, ra) << obl::kernel::isa_name(isa) << " bytes=" << bytes
                         << " stride=" << stride << " count=" << count;
        EXPECT_EQ(b, rb) << obl::kernel::isa_name(isa) << " bytes=" << bytes
                         << " stride=" << stride << " count=" << count;
      }
    }
  }
}

// ---- the typed wrappers (obl::oswap / oselect / oassign) ----------------

// Odd-sized records (no internal padding, sizeof not a multiple of 8).
template <size_t N>
struct RecN {
  unsigned char b[N];
  bool operator==(const RecN&) const = default;
};

template <class T>
T from_bytes(const std::vector<unsigned char>& v) {
  T t;
  std::memcpy(&t, v.data(), sizeof(T));
  return t;
}

template <size_t N>
void check_typed_roundtrip(uint64_t seed) {
  using R = RecN<N>;
  static_assert(sizeof(R) == N);
  const auto ab = random_bytes(N, seed);
  const auto bb = random_bytes(N, seed + 1);
  R a = from_bytes<R>(ab), b = from_bytes<R>(bb);
  obl::oswap(a, b, false);
  EXPECT_EQ(a, from_bytes<R>(ab)) << N;
  EXPECT_EQ(b, from_bytes<R>(bb)) << N;
  obl::oswap(a, b, true);
  EXPECT_EQ(a, from_bytes<R>(bb)) << N;
  EXPECT_EQ(b, from_bytes<R>(ab)) << N;
  EXPECT_EQ(obl::oselect(true, a, b), a) << N;
  EXPECT_EQ(obl::oselect(false, a, b), b) << N;
  R d = a;
  obl::oassign(false, d, b);
  EXPECT_EQ(d, a) << N;
  obl::oassign(true, d, b);
  EXPECT_EQ(d, b) << N;
}

TEST(OswapTyped, OddRecordSizesRoundTripOnEveryIsa) {
  for (Isa isa : supported_isas()) {
    ScopedIsa guard(isa);
    check_typed_roundtrip<5>(1);
    check_typed_roundtrip<12>(2);
    check_typed_roundtrip<17>(3);   // first size above the inline cutoff
    check_typed_roundtrip<24>(4);
    check_typed_roundtrip<31>(5);
    check_typed_roundtrip<33>(6);
    check_typed_roundtrip<40>(7);   // BinItem<Elem> / Routed shape
    check_typed_roundtrip<64>(8);
  }
}

// A struct with interior padding: the swap must move the full byte image
// (padding included) so repeated swaps are exact inverses, and must not
// disturb adjacent memory.
struct Padded {
  uint8_t tag;
  // 7 padding bytes
  uint64_t big;
  uint16_t small;
  // 6 padding bytes
  uint64_t tail;
};
static_assert(sizeof(Padded) == 32);

TEST(OswapTyped, PaddingBytesArePreservedVerbatim) {
  for (Isa isa : supported_isas()) {
    ScopedIsa guard(isa);
    const auto ab = random_bytes(sizeof(Padded), 101);
    const auto bb = random_bytes(sizeof(Padded), 202);
    Padded a = from_bytes<Padded>(ab), b = from_bytes<Padded>(bb);
    obl::oswap(a, b, true);
    EXPECT_EQ(0, std::memcmp(&a, bb.data(), sizeof(Padded)))
        << obl::kernel::isa_name(isa);
    EXPECT_EQ(0, std::memcmp(&b, ab.data(), sizeof(Padded)))
        << obl::kernel::isa_name(isa);
    obl::oassign(true, a, b);
    EXPECT_EQ(0, std::memcmp(&a, ab.data(), sizeof(Padded)))
        << obl::kernel::isa_name(isa);
  }
}

// ---- the bitonic round runner ------------------------------------------

TEST(KernelRounds, ButterflyOutputIdenticalAcrossIsas) {
  // The native merge of every bitonic sort: one butterfly network on the
  // round runner. Below one tile (512 Elem) the runner takes every round
  // tile by tile; above it, the long rounds fork their pairs first. Each
  // ISA, in both directions, must match a scalar reference over the plain
  // pair loop.
  for (size_t n : {size_t{256}, size_t{4096}}) {
    std::vector<Elem> input(n);
    util::Rng rng(4242 + n);
    for (size_t i = 0; i < n; ++i) {
      input[i].key = rng.below(300);  // heavy duplication
      input[i].payload = i;
    }
    for (bool up : {true, false}) {
      std::vector<Elem> ref = input;
      for (size_t d = n / 2; d >= 1; d /= 2) {
        for (size_t i = 0; i < n; ++i) {
          if ((i & d) != 0) continue;
          Elem& x = ref[i];
          Elem& y = ref[i + d];
          if (up ? obl::ByKey{}(y, x) : obl::ByKey{}(x, y)) std::swap(x, y);
        }
      }
      for (Isa isa : supported_isas()) {
        ScopedIsa guard(isa);
        vec<Elem> v(input);
        obl::kernel::run_network(v.s(), obl::kernel::Network::merge(n, up),
                                 obl::ByKey{});
        ASSERT_EQ(0, std::memcmp(v.underlying().data(), ref.data(),
                                 n * sizeof(Elem)))
            << obl::kernel::isa_name(isa) << " n=" << n << " up=" << up;
      }
    }
  }
}

TEST(KernelDispatch, ReportsACoherentActiveIsa) {
  const Isa active = obl::kernel::active_isa();
  EXPECT_TRUE(obl::kernel::isa_supported(active));
  EXPECT_STRNE(obl::kernel::isa_name(active), "unknown");
  // Scalar is always selectable and always restorable.
  ScopedIsa guard(Isa::Scalar);
  EXPECT_EQ(obl::kernel::active_isa(), Isa::Scalar);
}

}  // namespace
}  // namespace dopar
