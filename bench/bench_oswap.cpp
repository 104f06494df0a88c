// Comparator-kernel micro-benchmark: wall-clock throughput of the
// branchless move primitives (oswap / oselect) and the batch
// compare-exchange API, for every compiled-in ISA, at the record sizes the
// engines actually move: 8 B (packed keys), 16 B (the inline cutoff), 32 B
// (obl::Elem), 40 B (core::Routed, BinItem<Elem>), 48 B
// (BinItem<Routed>), and 64 B (two Elems / a cache line).
//
// It also times the bitonic round runner natively (serial, dispatched
// ISA): bitonic_sort of 16-byte apps::KeyVal records, which the runner
// compares and swaps in one inline pass, of 32-byte obl::Elem records,
// which take the staged masks and the batched oswap (the control), and of
// 48-byte BinItem<Routed> records by skey, the sort of every ORBA bin
// placement, at n = 1024 and 4096; and one recorded bitonic merge plus its
// unreplay of 4096 KeyVal records, the shape of apps::gather and
// apps::scatter_min.
//
// Rows go to BENCH_oswap.json via the shared bench schema with the
// microseconds in the `work` column (bench::record_wall). The section
// "oswap" is listed in WALL_CLOCK_SECTIONS of
// scripts/check_bench_snapshots.py, so CI prints the drift without gating
// on it — these numbers are machine-dependent by design. The committed
// snapshot documents the scalar-vs-vector gap on the reference machine.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <type_traits>
#include <vector>

#include "apps/common.hpp"
#include "bench_util.hpp"
#include "core/routed.hpp"
#include "obl/binitem.hpp"
#include "obl/bitonic.hpp"
#include "obl/elem.hpp"
#include "obl/kernel/dispatch.hpp"
#include "obl/kernel/kernel.hpp"
#include "obl/oswap.hpp"
#include "obl/route.hpp"
#include "util/rng.hpp"

namespace dopar {
namespace {

using obl::kernel::Isa;

constexpr size_t kBufBytes = 1u << 20;  // 1 MiB per side
constexpr int kReps = 5;                // best-of

std::vector<unsigned char> random_bytes(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<unsigned char> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<unsigned char>(rng.below(256));
  }
  return v;
}

double best_of(int reps, double (*run)(size_t), size_t rec) {
  double best = -1;
  for (int r = 0; r < reps; ++r) {
    const double us = run(rec);
    if (best < 0 || us < best) best = us;
  }
  return best;
}

/// One pass of per-record oswap_raw over the whole buffer pair, alternating
/// the flag so the optimizer cannot specialize either branchless path away.
double run_oswap(size_t rec) {
  static auto a = random_bytes(kBufBytes, 1);
  static auto b = random_bytes(kBufBytes, 2);
  const size_t count = kBufBytes / rec;
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < count; ++i) {
    obl::kernel::oswap_raw(a.data() + i * rec, b.data() + i * rec, rec,
                           (i & 1) != 0);
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

/// One pass of per-record oselect_raw (dst aliases the false operand —
/// the oassign shape used by the scan combiners and routing kernels).
double run_oselect(size_t rec) {
  static auto t = random_bytes(kBufBytes, 3);
  static auto f = random_bytes(kBufBytes, 4);
  const size_t count = kBufBytes / rec;
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < count; ++i) {
    obl::kernel::oselect_raw(f.data() + i * rec, t.data() + i * rec,
                             f.data() + i * rec, rec, (i & 1) != 0);
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

/// One oswap_batch_raw call over the whole buffer pair — the shape the
/// tiled network rounds dispatch (mask per record, contiguous stride).
double run_batch(size_t rec) {
  static auto a = random_bytes(kBufBytes, 5);
  static auto b = random_bytes(kBufBytes, 6);
  static auto mask = random_bytes(kBufBytes / 8, 7);
  const size_t count = kBufBytes / rec;
  for (size_t i = 0; i < count; ++i) mask[i] &= 1;
  const auto t0 = std::chrono::steady_clock::now();
  obl::kernel::oswap_batch_raw(a.data(), b.data(), rec, rec, mask.data(),
                               count);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

constexpr int kNetReps = 50;  // best-of for the round-runner rows

/// Best-of-kNetReps microseconds of body(a) over a fresh copy of `in`.
template <class T, class F>
double best_net(const std::vector<T>& in, const F& body) {
  vec<T> v(in);
  double best = -1;
  for (int r = 0; r < kNetReps; ++r) {
    std::copy(in.begin(), in.end(), v.underlying().begin());
    const auto t0 = std::chrono::steady_clock::now();
    body(v.s());
    const auto t1 = std::chrono::steady_clock::now();
    const double us = std::chrono::duration<double, std::micro>(t1 - t0).count();
    if (best < 0 || us < best) best = us;
  }
  return best;
}

/// Duplicate-heavy keys (n / 4 distinct) with distinct payloads.
template <class T>
std::vector<T> net_input(size_t n) {
  util::Rng rng(n);
  std::vector<T> in(n);
  for (size_t i = 0; i < n; ++i) {
    in[i].key = rng.below(1 + n / 4);
    if constexpr (std::is_same_v<T, apps::KeyVal>) {
      in[i].val = i;
    } else {
      in[i].payload = i;
    }
  }
  return in;
}

/// Bin-placement sort records: duplicate-heavy bin keys (n / 4 distinct)
/// over distinct routed elements.
std::vector<obl::BinItem<core::Routed>> binitem_input(size_t n) {
  util::Rng rng(n);
  std::vector<obl::BinItem<core::Routed>> in(n);
  for (size_t i = 0; i < n; ++i) {
    in[i].skey = rng.below(1 + n / 4);
    in[i].r.label = rng();
    in[i].r.e.key = i;
  }
  return in;
}

void bench_round_runner() {
  const char* isa = obl::kernel::isa_name(obl::kernel::active_isa());
  const auto row = [&](const char* config, size_t n, double us) {
    bench::record_wall("oswap", config, n, isa, us);
    std::printf("%-8s %-22s %-6zu %12.1f\n", isa, config, n, us);
  };
  for (const size_t n : {size_t{1024}, size_t{4096}}) {
    row("bitonic_sort_rec16", n,
        best_net(net_input<apps::KeyVal>(n), [](const slice<apps::KeyVal>& a) {
          obl::bitonic_sort(a, true, apps::detail::ByKeyKV{});
        }));
    row("bitonic_sort_rec32", n,
        best_net(net_input<obl::Elem>(n), [](const slice<obl::Elem>& a) {
          obl::bitonic_sort(a, true, obl::ByKey{});
        }));
    row("bitonic_sort_rec48", n,
        best_net(binitem_input(n),
                 [](const slice<obl::BinItem<core::Routed>>& a) {
                   obl::bitonic_sort(a, true, obl::BinBySkey{});
                 }));
  }
  // A bitonic merge input: ascending half, then descending half.
  const size_t n = 4096;
  std::vector<apps::KeyVal> in = net_input<apps::KeyVal>(n);
  const apps::detail::ByKeyKV less;
  std::sort(in.begin(), in.begin() + n / 2, less);
  std::sort(in.begin() + n / 2, in.end(),
            [&](const apps::KeyVal& a, const apps::KeyVal& b) {
              return less(b, a);
            });
  std::vector<uint8_t> tape;
  row("merge_unreplay_rec16", n,
      best_net(in, [&](const slice<apps::KeyVal>& a) {
        obl::bitonic_merge_record(a, tape, less);
        obl::bitonic_merge_unreplay(a, tape);
      }));
}

}  // namespace
}  // namespace dopar

int main() {
  using namespace dopar;
  std::printf("oswap kernel micro-bench: %zu KiB per side, best of %d\n",
              kBufBytes >> 10, kReps);
  std::printf("%-8s %-10s %-6s %12s %12s\n", "isa", "op", "rec", "micros",
              "GB/s");

  const Isa startup = obl::kernel::active_isa();
  const struct {
    const char* name;
    double (*run)(size_t);
  } ops[] = {{"oswap", run_oswap}, {"oselect", run_oselect},
             {"batch", run_batch}};
  for (Isa isa : {Isa::Scalar, Isa::Sse2, Isa::Avx2, Isa::Neon}) {
    if (!obl::kernel::isa_supported(isa)) continue;
    obl::kernel::select_isa(isa);
    for (const auto& op : ops) {
      for (size_t rec : {size_t{8}, size_t{16}, size_t{32}, size_t{40},
                         size_t{48}, size_t{64}}) {
        const double us = best_of(kReps, op.run, rec);
        // Bytes moved per pass: both sides are read and written.
        const double gbs = us > 0 ? (2.0 * kBufBytes) / (us * 1e3) : 0.0;
        bench::record_wall("oswap", std::string(op.name) + "_rec" +
                                        std::to_string(rec),
                           kBufBytes / rec, obl::kernel::isa_name(isa), us);
        std::printf("%-8s %-10s %-6zu %12.1f %12.2f\n",
                    obl::kernel::isa_name(isa), op.name, rec, us, gbs);
      }
    }
  }
  obl::kernel::select_isa(startup);

  std::printf("\nbitonic round runner, serial, best of %d (micros)\n",
              kNetReps);
  bench_round_runner();

  bench::write_json("BENCH_oswap.json");
  std::printf("\nWrote BENCH_oswap.json\n");
  return 0;
}
