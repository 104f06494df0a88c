// Unit tests: util/ — bit helpers, RNG, vEB layout, cache-agnostic transpose.

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <vector>

#include "sim/tracked.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"
#include "util/transpose.hpp"
#include "util/veb.hpp"

namespace dopar {
namespace {

TEST(Bits, Pow2Helpers) {
  EXPECT_TRUE(util::is_pow2(1));
  EXPECT_TRUE(util::is_pow2(64));
  EXPECT_FALSE(util::is_pow2(0));
  EXPECT_FALSE(util::is_pow2(48));
  EXPECT_EQ(util::log2_floor(1), 0u);
  EXPECT_EQ(util::log2_floor(9), 3u);
  EXPECT_EQ(util::log2_ceil(9), 4u);
  EXPECT_EQ(util::log2_ceil(8), 3u);
  EXPECT_EQ(util::pow2_ceil(9), 16u);
  EXPECT_EQ(util::pow2_ceil(16), 16u);
  EXPECT_EQ(util::pow2_floor(17), 16u);
  EXPECT_EQ(util::ceil_div(7, 3), 3u);
}

TEST(Bits, ReverseBits) {
  EXPECT_EQ(util::reverse_bits(0b001, 3), 0b100u);
  EXPECT_EQ(util::reverse_bits(0b110, 3), 0b011u);
  EXPECT_EQ(util::reverse_bits(0, 8), 0u);
}

TEST(Rng, DeterministicAndSplit) {
  util::Rng a(42), b(42), c(43);
  EXPECT_EQ(a(), b());
  EXPECT_NE(a(), c());
  util::Rng child = a.split();
  // The child stream should diverge from the parent.
  bool differs = false;
  for (int i = 0; i < 8; ++i) differs |= (child() != a());
  EXPECT_TRUE(differs);
}

TEST(Rng, BelowIsInRangeAndRoughlyUniform) {
  util::Rng rng(7);
  constexpr uint64_t kBound = 10;
  std::vector<int> hist(kBound, 0);
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const uint64_t v = rng.below(kBound);
    ASSERT_LT(v, kBound);
    ++hist[v];
  }
  for (uint64_t k = 0; k < kBound; ++k) {
    EXPECT_NEAR(hist[k], kDraws / kBound, kDraws / kBound * 0.2);
  }
}

TEST(Veb, IsAPermutationForAllSmallSizes) {
  for (unsigned levels = 1; levels <= 12; ++levels) {
    util::VebLayout layout(levels);
    std::set<uint32_t> seen;
    for (uint64_t h = 1; h <= layout.node_count(); ++h) {
      seen.insert(layout.offset(h));
    }
    EXPECT_EQ(seen.size(), layout.node_count());
    EXPECT_EQ(*seen.rbegin(), layout.node_count() - 1);
  }
}

TEST(Veb, RootFirstAndPathLocality) {
  util::VebLayout layout(8);
  EXPECT_EQ(layout.offset(1), 0u);
  // A root-to-leaf path in a vEB layout must touch few distinct "sqrt
  // blocks": check that path offsets cluster (max gap count is small
  // compared with path length for a random leaf path).
  uint64_t node = 1;
  std::vector<uint32_t> offs;
  for (unsigned d = 0; d < 8; ++d) {
    offs.push_back(layout.offset(node));
    node = node * 2 + (d % 2);
  }
  // Weak sanity: offsets stay within the array.
  for (uint32_t o : offs) EXPECT_LT(o, layout.node_count());
}

TEST(Transpose, SquareAndRectangular) {
  for (auto [rows, cols] : std::vector<std::pair<size_t, size_t>>{
           {1, 1}, {2, 8}, {8, 2}, {16, 16}, {32, 8}, {64, 64}}) {
    vec<int> src(rows * cols);
    vec<int> dst(rows * cols, -1);
    for (size_t i = 0; i < rows * cols; ++i) src.underlying()[i] = int(i);
    util::transpose_blocks(src.s(), dst.s(), rows, cols);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) {
        EXPECT_EQ(dst.underlying()[c * rows + r], int(r * cols + c));
      }
    }
  }
}

TEST(Transpose, BlockedMovesWholeBins) {
  constexpr size_t rows = 4, cols = 8, block = 16;
  vec<int> src(rows * cols * block);
  vec<int> dst(rows * cols * block, -1);
  for (size_t i = 0; i < src.size(); ++i) src.underlying()[i] = int(i);
  util::transpose_blocks(src.s(), dst.s(), rows, cols, block);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      for (size_t k = 0; k < block; ++k) {
        EXPECT_EQ(dst.underlying()[(c * rows + r) * block + k],
                  int((r * cols + c) * block + k));
      }
    }
  }
}

TEST(Transpose, InvolutionRestoresInput) {
  constexpr size_t rows = 8, cols = 32;
  vec<int> src(rows * cols);
  vec<int> mid(rows * cols);
  vec<int> back(rows * cols);
  for (size_t i = 0; i < src.size(); ++i) src.underlying()[i] = int(i * 7);
  util::transpose_blocks(src.s(), mid.s(), rows, cols);
  util::transpose_blocks(mid.s(), back.s(), cols, rows);
  EXPECT_EQ(src.underlying(), back.underlying());
}

}  // namespace
}  // namespace dopar
