// Relational-operator costs over TPC-H-shaped inputs: an orders table with
// distinct keys joined against a lineitems table whose foreign keys carry
// quadratic multiplicity skew (a few hot orders own most of the rows —
// the adversarial shape for an oblivious join, which must pad every row
// to the public bound regardless).
//
// Section "join" rows are deterministic analytic model counters (work,
// span, ideal-cache misses) and are gated by the CI snapshot diff. Joins
// run on recorded comparator networks and read no sorter backend, so
// their rows carry the Runtime's default backend name; the group-by rows
// sort on it. The "*_batched" rows run kBatchSlots TPC-H-shaped requests
// as one batch through the serving hooks (Runtime::join_batched /
// group_by_batched): an all-equi batch, a batch alternating equi and band
// slots, and a group-by batch; n is the batch's total item rows. Section
// "join_wall" rows are wall-clock microseconds on a native multi-threaded
// Runtime (machine-dependent: report-only, listed in
// scripts/check_bench_snapshots.py WALL_CLOCK_SECTIONS).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dopar.hpp"

namespace {

using namespace dopar;
using Clock = std::chrono::steady_clock;
constexpr int kWallIters = 3;

struct Order {
  uint64_t key = 0;
  uint64_t id = 0;
};
struct Item {
  uint64_t key = 0;
  uint64_t price = 0;
};

constexpr auto kOrderKey = [](const Order& o) { return o.key; };
constexpr auto kItemKey = [](const Item& it) { return it.key; };
constexpr auto kItemPrice = [](const Item& it) { return it.price; };

std::vector<Order> make_orders(size_t n) {
  std::vector<Order> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = Order{1000 + i, i};
  return v;
}

std::vector<Item> make_items(size_t n, size_t orders) {
  std::vector<Item> v(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t r = util::hash_rand(0x11e1, i) % orders;
    v[i].key = 1000 + r * r / orders;  // quadratic foreign-key skew
    v[i].price = 1 + util::hash_rand(0x9c1e, i) % 500;
  }
  return v;
}

Runtime analytic_rt(const std::string& backend) {
  return Runtime::builder().seed(1).backend(backend).cache(
      bench::kM, bench::kB).build();
}

bench::Measure snap(Runtime& rt) {
  bench::Measure m;
  m.work = rt.cost().work;
  m.span = rt.cost().span;
  m.misses = rt.cache_misses();
  return m;
}

void analytic_equi(size_t nl, const std::string& backend) {
  const auto L = make_orders(nl);
  const auto R = make_items(4 * nl, nl);
  auto rt = analytic_rt(backend);
  // Each item references exactly one order, so |items| is a tight bound.
  const auto res = rt.equi_join(std::span<const Order>(L), kOrderKey,
                                std::span<const Item>(R), kItemKey,
                                JoinOptions{.output_bound = R.size(),
                                            .sort = {}});
  const bench::Measure m = snap(rt);
  bench::record("join", "equi", R.size(), backend, m);
  std::printf("%10s %8s %8zu %14llu %10llu %10llu %8llu\n", "equi",
              backend.c_str(), R.size(), (unsigned long long)m.work,
              (unsigned long long)m.span, (unsigned long long)m.misses,
              (unsigned long long)res.matched);
}

void analytic_band(size_t nl, const std::string& backend) {
  const auto L = make_orders(nl);
  const auto R = make_items(4 * nl, nl);
  auto rt = analytic_rt(backend);
  // band=2 matches up to 5 consecutive order keys per item; bound 6x.
  const auto res = rt.band_join(std::span<const Order>(L), kOrderKey,
                                std::span<const Item>(R), kItemKey, 2,
                                JoinOptions{.output_bound = 6 * L.size(),
                                            .sort = {}});
  const bench::Measure m = snap(rt);
  bench::record("join", "band", R.size(), backend, m);
  std::printf("%10s %8s %8zu %14llu %10llu %10llu %8llu\n", "band",
              backend.c_str(), R.size(), (unsigned long long)m.work,
              (unsigned long long)m.span, (unsigned long long)m.misses,
              (unsigned long long)res.matched);
}

void analytic_group(size_t nl, const std::string& backend) {
  const auto R = make_items(4 * nl, nl);
  auto rt = analytic_rt(backend);
  const auto res = rt.group_by_aggregate(
      std::span<const Item>(R), kItemKey, kItemPrice, Agg::Sum,
      GroupByOptions{.group_bound = nl, .sort = {}});
  const bench::Measure m = snap(rt);
  bench::record("join", "group_by", R.size(), backend, m);
  std::printf("%10s %8s %8zu %14llu %10llu %10llu %8llu\n", "group_by",
              backend.c_str(), R.size(), (unsigned long long)m.work,
              (unsigned long long)m.span, (unsigned long long)m.misses,
              (unsigned long long)res.groups_total);
}

constexpr size_t kBatchSlots = 16;

/// kBatchSlots join slots of nl orders x 4*nl items each (slot s's item
/// keys drawn with a per-slot offset); every odd slot is a band-2 join
/// when `mixed`, else all slots are equi.
void analytic_join_batched(size_t nl, bool mixed,
                           const std::string& backend) {
  std::vector<uint64_t> lk, rk;
  std::vector<rel::JoinSlot> slots;
  for (size_t s = 0; s < kBatchSlots; ++s) {
    const auto L = make_orders(nl);
    const auto R = make_items(4 * nl, nl);
    const bool banded = mixed && (s & 1);
    for (const Order& o : L) lk.push_back(o.key + s);
    for (const Item& it : R) rk.push_back(it.key + s);
    slots.push_back(rel::JoinSlot{L.size(), R.size(),
                                  banded ? 6 * L.size() : R.size(), banded,
                                  banded ? 2u : 0u});
  }
  auto rt = analytic_rt(backend);
  std::vector<obl::Elem> frame;
  const auto matched = rt.join_batched(lk, rk, slots, frame);
  uint64_t total = 0;
  for (uint64_t m : matched) total += m;
  const bench::Measure m = snap(rt);
  const char* config = mixed ? "mixed_batched" : "equi_batched";
  bench::record("join", config, rk.size(), backend, m);
  std::printf("%10s %8s %8zu %14llu %10llu %10llu %8llu\n", config,
              backend.c_str(), rk.size(), (unsigned long long)m.work,
              (unsigned long long)m.span, (unsigned long long)m.misses,
              (unsigned long long)total);
}

void analytic_group_batched(size_t nl, const std::string& backend) {
  std::vector<uint64_t> keys, vals;
  std::vector<rel::GroupSlot> slots;
  for (size_t s = 0; s < kBatchSlots; ++s) {
    const auto R = make_items(4 * nl, nl);
    for (const Item& it : R) {
      keys.push_back(it.key + s);
      vals.push_back(it.price);
    }
    slots.push_back(rel::GroupSlot{R.size(), nl});
  }
  auto rt = analytic_rt(backend);
  std::vector<obl::Elem> frame;
  const auto groups = rt.group_by_batched(keys, vals, slots, Agg::Sum, frame);
  uint64_t total = 0;
  for (uint64_t g : groups) total += g;
  const bench::Measure m = snap(rt);
  bench::record("join", "group_by_batched", keys.size(), backend, m);
  std::printf("%10s %8s %8zu %14llu %10llu %10llu %8llu\n", "gb_batched",
              backend.c_str(), keys.size(), (unsigned long long)m.work,
              (unsigned long long)m.span, (unsigned long long)m.misses,
              (unsigned long long)total);
}

void wall_equi(size_t nl) {
  const auto L = make_orders(nl);
  const auto R = make_items(4 * nl, nl);
  auto rt = Runtime::builder().threads(0).seed(1).build();
  double best = 1e18;
  uint64_t matched = 0;
  for (int it = 0; it < kWallIters; ++it) {
    const auto t0 = Clock::now();
    const auto res = rt.equi_join(std::span<const Order>(L), kOrderKey,
                                  std::span<const Item>(R), kItemKey,
                                  JoinOptions{.output_bound = R.size(),
                                              .sort = {}});
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    if (us < best) best = us;
    matched = res.matched;
  }
  bench::record_wall("join_wall", "equi", R.size(), "bitonic_ca", best);
  std::printf("%10s %8s %8zu %12.0fus %8llu\n", "equi", "wall", R.size(),
              best, (unsigned long long)matched);
}

}  // namespace

int main() {
  bench::print_header(
      "oblivious relational operators (TPC-H-shaped, skewed FK)",
      "        op  backend        n           work       span     misses"
      "  matched");
  for (size_t nl : {size_t{256}, size_t{1024}, size_t{4096}}) {
    analytic_equi(nl, "bitonic_ca");
  }
  analytic_band(1024, "bitonic_ca");
  for (size_t nl : {size_t{1024}, size_t{4096}}) {
    analytic_group(nl, "bitonic_ca");
  }
  analytic_join_batched(64, false, "bitonic_ca");
  analytic_join_batched(64, true, "bitonic_ca");
  analytic_group_batched(64, "bitonic_ca");
  bench::print_header("wall-clock (native, all cores; report-only)",
                      "        op            n         best");
  wall_equi(4096);
  bench::write_json("BENCH_join.json");
  return 0;
}
