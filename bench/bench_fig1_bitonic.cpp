// Figure 1 reproduction: the bitonic sorting network for n = 16.
//
// Prints the comparator network layer by layer (matching the figure's
// layout: log n merge stages, stage k containing k butterfly layers) and
// cross-checks our implementation: the comparator sequence executed by
// obl::bitonic_sort must contain exactly (n/2) * log n * (log n + 1) / 2
// comparators arranged in those layers, and the network must sort every
// 0/1 input (zero-one principle, exhaustively verified).
//
// Emits the shared BENCH_*.json row schema (bench_util.hpp) into
// BENCH_fig1.json: per size, the network's closed-form comparator count /
// depth (config "network", work = comparators, span = layers) and the
// measured analytic work/span/cache of the executed bitonic sort (config
// "bitonic_sort") — all deterministic counts, diffable across PRs by the
// CI snapshot check.
//
// Section "theorem_e1" reproduces Theorem E.1: the cache-agnostic bitonic
// sort (obl::bitonic_sort_ca) against the naive layer-by-layer fork-join
// schedule (obl::bitonic_sort_layerwise) of the same network. Claims: equal
// comparator counts; span O(log^2 n loglog n) vs O(log^3 n); cache
// O((n/B) log_M n log(n/M)) vs O((n/B) log^2 n). The span and miss ratios
// naive/cache-agnostic should grow with n.

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "obl/bitonic.hpp"
#include "obl/bitonic_ca.hpp"
#include "obl/elem.hpp"
#include "sim/tracked.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace dopar {
namespace {

struct Comparator {
  size_t i, j;
  bool up;
};

// Enumerate the network layers exactly as the textbook figure: for each
// merge stage s = 1..log n (block size 2^s), layers d = 2^(s-1) .. 1.
std::vector<std::vector<Comparator>> network(size_t n) {
  std::vector<std::vector<Comparator>> layers;
  const unsigned ln = util::log2_exact(n);
  for (unsigned s = 1; s <= ln; ++s) {
    const size_t block = size_t{1} << s;
    for (size_t d = block / 2; d >= 1; d /= 2) {
      std::vector<Comparator> layer;
      for (size_t i = 0; i < n; ++i) {
        if ((i & d) == 0 && ((i / d) * d + d + (i % d)) < n) {
          const bool up = ((i / block) % 2) == 0;
          // Within a merge stage all comparators of a block share the
          // block's direction; the first layer of a stage is the bitonic
          // "crossing" layer, subsequent ones are butterflies.
          layer.push_back(Comparator{i, i + d, up});
        }
      }
      layers.push_back(layer);
    }
  }
  return layers;
}

}  // namespace
}  // namespace dopar

int main() {
  using namespace dopar;
  constexpr size_t n = 16;
  auto layers = network(n);

  std::printf("Figure 1: bitonic sorting network for n = %zu\n", n);
  std::printf("merge stages: %u, layers: %zu, comparators: %llu "
              "(closed form %llu)\n\n",
              util::log2_exact(n), layers.size(),
              (unsigned long long)[&] {
                size_t c = 0;
                for (auto& l : layers) c += l.size();
                return c;
              }(),
              (unsigned long long)obl::bitonic_comparator_count(n));

  // ASCII rendering: one column per layer, arrows point at the slot that
  // receives the larger element.
  for (size_t L = 0; L < layers.size(); ++L) {
    std::printf("layer %2zu: ", L + 1);
    for (const auto& c : layers[L]) {
      std::printf("(%2zu%s%2zu) ", c.i, c.up ? "->" : "<-", c.j);
    }
    std::printf("\n");
  }

  // Verification 1: comparator count matches the closed form.
  size_t total = 0;
  for (auto& l : layers) total += l.size();
  const bool count_ok = total == obl::bitonic_comparator_count(n);

  // Verification 2: zero-one principle — the printed network sorts all
  // 2^16 binary inputs.
  bool sorts_all = true;
  for (uint32_t mask = 0; mask < (1u << n) && sorts_all; ++mask) {
    int vals[n];
    for (size_t i = 0; i < n; ++i) vals[i] = (mask >> i) & 1;
    for (const auto& layer : layers) {
      for (const auto& c : layer) {
        const bool wrong = c.up ? vals[c.i] > vals[c.j]
                                : vals[c.i] < vals[c.j];
        if (wrong) std::swap(vals[c.i], vals[c.j]);
      }
    }
    for (size_t i = 1; i < n; ++i) sorts_all &= vals[i - 1] <= vals[i];
  }

  // Verification 3: our executable implementation agrees with the network
  // on random inputs.
  bool impl_ok = true;
  for (uint64_t seed = 0; seed < 32; ++seed) {
    vec<obl::Elem> v(n);
    for (size_t i = 0; i < n; ++i) {
      v.underlying()[i].key = (seed * 2654435761u + i * 40503u) % 97;
    }
    obl::bitonic_sort(v.s());
    for (size_t i = 1; i < n; ++i) {
      impl_ok &= v.underlying()[i - 1].key <= v.underlying()[i].key;
    }
  }

  std::printf("\ncomparator count matches closed form: %s\n",
              count_ok ? "yes" : "NO");
  std::printf("network sorts all 2^%zu binary inputs:   %s\n", n,
              sorts_all ? "yes" : "NO");
  std::printf("bitonic_sort() implementation agrees:    %s\n",
              impl_ok ? "yes" : "NO");

  // ---- measurement rows (the shared BENCH_*.json schema) ----------------
  bench::print_header("Figure 1 measurement rows",
                      "n | network comparators/depth | measured bitonic "
                      "sort W / S / Q");
  for (size_t sz : {size_t{16}, size_t{256}, size_t{4096}, size_t{65536}}) {
    const unsigned ln = util::log2_exact(sz);
    const uint64_t comparators = obl::bitonic_comparator_count(sz);
    const uint64_t depth = uint64_t{ln} * (ln + 1) / 2;
    bench::record("fig1", "network", sz, "bitonic",
                  bench::Measure{comparators, depth, 0});

    const auto m = bench::measure([&] {
      util::Rng rng(7 + sz);
      vec<obl::Elem> v(sz);
      for (size_t i = 0; i < sz; ++i) {
        v.underlying()[i].key = rng() >> 1;
      }
      obl::bitonic_sort(v.s());
    });
    // obl::bitonic_sort is the depth-first recursive network — the
    // "bitonic" backend, not the cache-agnostic "bitonic_ca" variant.
    bench::record("fig1", "bitonic_sort", sz, "bitonic", m);
    std::printf("n=%-6zu | C=%-9llu d=%-4llu | W=%-11llu S=%-8llu Q=%llu\n",
                sz, (unsigned long long)comparators,
                (unsigned long long)depth, (unsigned long long)m.work,
                (unsigned long long)m.span, (unsigned long long)m.misses);
  }

  bench::print_header("Theorem E.1: cache-agnostic vs naive bitonic sort",
                      "n | S and Q per schedule | ratios naive/ca should "
                      "grow; comparators identical");
  for (size_t sz : {size_t{1} << 10, size_t{1} << 12, size_t{1} << 14,
                    size_t{1} << 16}) {
    util::Rng rng(sz);
    std::vector<obl::Elem> in(sz);
    for (size_t i = 0; i < sz; ++i) in[i].key = rng();
    const auto ca = bench::measure([&] {
      vec<obl::Elem> v(in);
      obl::bitonic_sort_ca(v.s());
    });
    const auto naive = bench::measure([&] {
      vec<obl::Elem> v(in);
      obl::bitonic_sort_layerwise(v.s());
    });
    bench::record("theorem_e1", "cache_agnostic", sz, "bitonic_ca", ca);
    bench::record("theorem_e1", "naive", sz, "naive_bitonic", naive);
    std::printf(
        "n=%-6zu | ca S=%-7llu Q=%-8llu | naive S=%-7llu Q=%-9llu | "
        "S ratio=%.2f Q ratio=%.2f (comparators=%llu)\n",
        sz, (unsigned long long)ca.span, (unsigned long long)ca.misses,
        (unsigned long long)naive.span, (unsigned long long)naive.misses,
        double(naive.span) / double(ca.span),
        double(naive.misses) / double(ca.misses),
        (unsigned long long)obl::bitonic_comparator_count(sz));
  }
  bench::write_json("BENCH_fig1.json");

  return count_ok && sorts_all && impl_ok ? 0 : 1;
}
