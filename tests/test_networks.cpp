// Unit + property tests: sorting networks (bitonic naive, bitonic
// cache-agnostic, odd-even merge) and their obliviousness, plus the
// recorded networks and monotone compaction of obl/route.hpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "apps/common.hpp"
#include "core/routed.hpp"
#include "forkjoin/pool.hpp"
#include "obl/binitem.hpp"
#include "obl/bitonic.hpp"
#include "obl/bitonic_ca.hpp"
#include "obl/elem.hpp"
#include "obl/oddeven.hpp"
#include "obl/oswap.hpp"
#include "obl/route.hpp"
#include "sim/session.hpp"
#include "testutil.hpp"

namespace dopar {
namespace {

using obl::Elem;

enum class Net { BitonicNaive, BitonicCa, OddEven };

void run_net(Net which, const slice<Elem>& s) {
  switch (which) {
    case Net::BitonicNaive:
      obl::bitonic_sort(s);
      break;
    case Net::BitonicCa:
      obl::bitonic_sort_ca(s);
      break;
    case Net::OddEven:
      obl::odd_even_merge_sort(s);
      break;
  }
}

class NetworkSortTest : public ::testing::TestWithParam<std::tuple<Net, size_t>> {};

TEST_P(NetworkSortTest, SortsRandomInput) {
  const auto [which, n] = GetParam();
  auto data = test::random_elems(n, 1000 + n);
  vec<Elem> v(data);
  run_net(which, v.s());
  EXPECT_TRUE(test::sorted_by_key(v.underlying()));
  EXPECT_TRUE(test::same_keys(v.underlying(), data));
}

TEST_P(NetworkSortTest, SortsAdversarialPatterns) {
  const auto [which, n] = GetParam();
  // Descending, constant, and organ-pipe inputs.
  for (int pattern = 0; pattern < 3; ++pattern) {
    std::vector<Elem> data(n);
    for (size_t i = 0; i < n; ++i) {
      switch (pattern) {
        case 0: data[i].key = n - i; break;
        case 1: data[i].key = 42; break;
        default: data[i].key = std::min(i, n - 1 - i); break;
      }
    }
    vec<Elem> v(data);
    run_net(which, v.s());
    EXPECT_TRUE(test::sorted_by_key(v.underlying()));
    EXPECT_TRUE(test::same_keys(v.underlying(), data));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllNetworksAndSizes, NetworkSortTest,
    ::testing::Combine(::testing::Values(Net::BitonicNaive, Net::BitonicCa,
                                         Net::OddEven),
                       ::testing::Values(size_t{1}, size_t{2}, size_t{8},
                                         size_t{64}, size_t{128}, size_t{512},
                                         size_t{2048})));

// Zero-one principle: a comparator network sorts all inputs iff it sorts
// all 0/1 inputs. Exhaust all 2^n binary inputs for small n.
class ZeroOneTest : public ::testing::TestWithParam<Net> {};

TEST_P(ZeroOneTest, SortsAllBinaryInputs) {
  const Net which = GetParam();
  constexpr size_t n = 16;
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    vec<Elem> v(n);
    size_t ones = 0;
    for (size_t i = 0; i < n; ++i) {
      v.underlying()[i].key = (mask >> i) & 1u;
      ones += (mask >> i) & 1u;
    }
    run_net(which, v.s());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(v.underlying()[i].key, i >= n - ones ? 1u : 0u)
          << "mask=" << mask << " pos=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllNetworks, ZeroOneTest,
                         ::testing::Values(Net::BitonicNaive, Net::BitonicCa,
                                           Net::OddEven));

// Obliviousness: the address trace must be identical across different
// inputs of the same length.
class NetworkTraceTest : public ::testing::TestWithParam<Net> {};

TEST_P(NetworkTraceTest, TraceIndependentOfData) {
  const Net which = GetParam();
  auto trace_of = [&](uint64_t seed) {
    sim::Session s = sim::Session::analytic().with_trace();
    sim::ScopedSession guard(s);
    auto data = test::random_elems(256, seed);
    vec<Elem> v(data);
    run_net(which, v.s());
    return s.log()->digest();
  };
  EXPECT_EQ(trace_of(1), trace_of(2));
  EXPECT_EQ(trace_of(2), trace_of(999));
}

INSTANTIATE_TEST_SUITE_P(AllNetworks, NetworkTraceTest,
                         ::testing::Values(Net::BitonicNaive, Net::BitonicCa,
                                           Net::OddEven));

TEST(Oswap, SwapsExactlyWhenAsked) {
  Elem a, b;
  a.key = 1;
  a.payload = 10;
  b.key = 2;
  b.payload = 20;
  obl::oswap(a, b, false);
  EXPECT_EQ(a.key, 1u);
  EXPECT_EQ(b.key, 2u);
  obl::oswap(a, b, true);
  EXPECT_EQ(a.key, 2u);
  EXPECT_EQ(a.payload, 20u);
  EXPECT_EQ(b.key, 1u);
}

TEST(Oswap, SelectAndAssign) {
  EXPECT_EQ(obl::oselect(true, 7, 9), 7);
  EXPECT_EQ(obl::oselect(false, 7, 9), 9);
  int x = 3;
  obl::oassign(false, x, 5);
  EXPECT_EQ(x, 3);
  obl::oassign(true, x, 5);
  EXPECT_EQ(x, 5);
}

struct CountingLess {
  uint64_t* count;
  bool operator()(const Elem& a, const Elem& b) const {
    ++*count;
    return a.key < b.key;
  }
};

TEST(BitonicCa, ComparatorCountMatchesClosedFormAndNaive) {
  // Both variants realize the same comparator network, so their comparator
  // counts must agree with each other and with the closed form
  // (n/2) * log n * (log n + 1) / 2.
  for (size_t n : {size_t{64}, size_t{256}, size_t{1024}}) {
    uint64_t c_naive = 0, c_ca = 0;
    {
      vec<Elem> v(test::random_elems(n, 5));
      obl::bitonic_sort(v.s(), true, CountingLess{&c_naive});
    }
    {
      vec<Elem> v(test::random_elems(n, 6));
      obl::bitonic_sort_ca(v.s(), true, CountingLess{&c_ca});
    }
    EXPECT_EQ(c_naive, obl::bitonic_comparator_count(n)) << n;
    EXPECT_EQ(c_ca, obl::bitonic_comparator_count(n)) << n;
  }
}

TEST(BitonicCa, SpanGrowsLikeLogSquared) {
  auto span_of = [](size_t n) {
    sim::Session s = sim::Session::analytic();
    sim::ScopedSession guard(s);
    auto data = test::random_elems(n, 5);
    vec<Elem> v(data);
    obl::bitonic_sort_ca(v.s());
    return s.cost().span;
  };
  // Ratio span(4n)/span(n) for polylog span must be far below the factor 4
  // a linear-span algorithm would show (and below ~2.5 even with base-case
  // constants); a serial sort would give ~4.8.
  const double r = double(span_of(4096)) / double(span_of(1024));
  EXPECT_LT(r, 2.5);
  EXPECT_GT(r, 1.05);
}

// Native ≡ instrumented: the native paths (the bitonic round runner and
// the odd-even network's strided batches, run on a 4-thread pool) must
// write the same bytes as the instrumented schedules, ties included. The
// three bitonic sorters realize one network, so bitonic_sort_ca and the
// (ascending) layerwise sorter must also write bitonic_sort's bytes. Keys
// are duplicate-heavy and payloads distinct, so any change of comparator
// or direction shows.
Elem dup_rec(Elem, uint64_t key, uint64_t id) {
  Elem e;
  e.key = key;
  e.payload = id;
  e.aux = ~id;
  e.extra = static_cast<uint32_t>(id * 7);
  return e;
}

obl::BinItem<core::Routed> dup_rec(obl::BinItem<core::Routed>, uint64_t key,
                                   uint64_t id) {
  obl::BinItem<core::Routed> it;
  it.skey = key;
  it.r.label = id;
  it.r.e = dup_rec(Elem{}, key ^ id, id);
  return it;
}

apps::KeyVal dup_rec(apps::KeyVal, uint64_t key, uint64_t id) {
  return apps::KeyVal{key, id};
}

/// An 8-byte record: like apps::KeyVal, at most obl::oswap's inline
/// cutoff, so the round runner compares and swaps it in one pass.
struct Rec8 {
  uint32_t key = 0;
  uint32_t id = 0;
};
static_assert(sizeof(Rec8) == 8);

struct ByKey8 {
  bool operator()(const Rec8& a, const Rec8& b) const { return a.key < b.key; }
};

Rec8 dup_rec(Rec8, uint64_t key, uint64_t id) {
  return Rec8{static_cast<uint32_t>(key), static_cast<uint32_t>(id)};
}

enum class NativeNet { Bitonic, BitonicCa, Layerwise, OddEven };

template <class T, class Less>
void expect_native_matches_instrumented(const Less& less) {
  fj::WithPool wp(3);
  for (size_t n = 2; n <= (size_t{1} << 15); n *= 2) {
    util::Rng rng(n);
    std::vector<T> in(n);
    for (size_t i = 0; i < n; ++i) {
      in[i] = dup_rec(T{}, rng.below(1 + n / 16), i);
    }
    for (const bool up : {true, false}) {
      std::vector<T> bitonic_ref;  // bitonic_sort's output in direction up
      for (const NativeNet net : {NativeNet::Bitonic, NativeNet::BitonicCa,
                                  NativeNet::Layerwise, NativeNet::OddEven}) {
        // The layerwise and odd-even networks sort ascending only.
        const bool directed =
            net == NativeNet::Bitonic || net == NativeNet::BitonicCa;
        if (!up && !directed) continue;
        auto sort = [&](const slice<T>& a) {
          switch (net) {
            case NativeNet::Bitonic:
              obl::bitonic_sort(a, up, less);
              break;
            case NativeNet::BitonicCa:
              obl::bitonic_sort_ca(a, up, less);
              break;
            case NativeNet::Layerwise:
              obl::bitonic_sort_layerwise(a, less);
              break;
            case NativeNet::OddEven:
              obl::odd_even_merge_sort(a, less);
              break;
          }
        };
        vec<T> native(in);
        wp.run([&] { sort(native.s()); });
        std::vector<T> expect;
        {
          sim::Session s = sim::Session::analytic();
          sim::ScopedSession guard(s);
          vec<T> inst(in);
          sort(inst.s());
          expect = inst.underlying();
        }
        ASSERT_EQ(std::memcmp(native.data(), expect.data(), n * sizeof(T)), 0)
            << "n=" << n << " net=" << static_cast<int>(net) << " up=" << up;
        if (net == NativeNet::Bitonic) {
          bitonic_ref = expect;
        } else if (net != NativeNet::OddEven) {
          ASSERT_EQ(
              std::memcmp(native.data(), bitonic_ref.data(), n * sizeof(T)),
              0)
              << "n=" << n << " net=" << static_cast<int>(net) << " up=" << up
              << ": differs from bitonic_sort";
        }
      }
    }
  }
}

TEST(NativeNetwork, ElemSortsMatchInstrumented) {
  expect_native_matches_instrumented<Elem>(obl::ByKey{});
}

TEST(NativeNetwork, BinItemSortsMatchInstrumented) {
  expect_native_matches_instrumented<obl::BinItem<core::Routed>>(
      obl::BinBySkey{});
}

// Records of at most 16 bytes take the runner's one-pass path. Up to
// n = 2^15 the sweep crosses the 1024-record tile of apps::KeyVal.
TEST(NativeNetwork, KeyValSortsMatchInstrumented) {
  expect_native_matches_instrumented<apps::KeyVal>(apps::detail::ByKeyKV{});
  expect_native_matches_instrumented<apps::KeyVal>(
      apps::detail::ByKeyValDesc{});
}

TEST(NativeNetwork, EightByteSortsMatchInstrumented) {
  expect_native_matches_instrumented<Rec8>(ByKey8{});
}

// ---- recorded networks and monotone compaction (obl/route.hpp) ---------

enum class Recorded { Sort, Merge };

/// Duplicate-heavy records with distinct payloads; a merge input is made
/// bitonic (ascending half, then descending half) under `less`.
template <class T, class Less>
std::vector<T> recorded_input(Recorded which, size_t n, const Less& less) {
  util::Rng rng(n + 77);
  std::vector<T> in(n);
  for (size_t i = 0; i < n; ++i) {
    in[i] = dup_rec(T{}, rng.below(1 + n / 16), i);
  }
  if (which == Recorded::Merge) {
    std::sort(in.begin(), in.begin() + n / 2, less);
    std::sort(in.begin() + n / 2, in.end(),
              [&](const T& a, const T& b) { return less(b, a); });
  }
  return in;
}

template <class T, class Less>
void record(Recorded which, const slice<T>& a, std::vector<uint8_t>& tape,
            const Less& less) {
  if (which == Recorded::Sort) {
    obl::bitonic_sort_record(a, tape, less);
  } else {
    obl::bitonic_merge_record(a, tape, less);
  }
}

template <class T>
void unreplay(Recorded which, const slice<T>& a,
              const std::vector<uint8_t>& tape) {
  if (which == Recorded::Sort) {
    obl::bitonic_sort_unreplay(a, tape);
  } else {
    obl::bitonic_merge_unreplay(a, tape);
  }
}

/// The native runner forks rounds and runs in-tile rounds tile by tile on
/// a 4-thread pool; the instrumented runner forks 8-pair leaves. Both must
/// write the same tape and the same bytes, ties included.
template <class T, class Less>
void expect_recorded_native_matches_instrumented(const Less& less) {
  fj::WithPool wp(3);
  for (const Recorded which : {Recorded::Sort, Recorded::Merge}) {
    for (size_t n = 2; n <= (size_t{1} << 15); n *= 2) {
      const std::vector<T> in = recorded_input<T>(which, n, less);
      vec<T> native(in);
      std::vector<uint8_t> native_tape;
      wp.run([&] { record(which, native.s(), native_tape, less); });
      EXPECT_TRUE(std::is_sorted(native.underlying().begin(),
                                 native.underlying().end(), less))
          << n;
      std::vector<T> expect;
      std::vector<uint8_t> expect_tape;
      {
        sim::Session s = sim::Session::analytic();
        sim::ScopedSession guard(s);
        vec<T> inst(in);
        record(which, inst.s(), expect_tape, less);
        expect = inst.underlying();
      }
      ASSERT_EQ(native_tape.size(), expect_tape.size()) << n;
      ASSERT_EQ(std::memcmp(native_tape.data(), expect_tape.data(),
                            expect_tape.size()),
                0)
          << "tape, n=" << n << " merge=" << (which == Recorded::Merge);
      ASSERT_EQ(std::memcmp(native.data(), expect.data(), n * sizeof(T)), 0)
          << "bytes, n=" << n << " merge=" << (which == Recorded::Merge);
    }
  }
}

template <class T, class Less>
void expect_unreplay_restores_input(const Less& less) {
  fj::WithPool wp(3);
  for (const Recorded which : {Recorded::Sort, Recorded::Merge}) {
    for (const size_t n : {size_t{2}, size_t{16}, size_t{1024},
                           size_t{1} << 13}) {
      const std::vector<T> in = recorded_input<T>(which, n, less);
      for (const bool instrumented : {false, true}) {
        vec<T> v(in);
        std::vector<uint8_t> tape;
        auto run = [&] {
          record(which, v.s(), tape, less);
          unreplay(which, v.s(), tape);
        };
        if (instrumented) {
          sim::Session s = sim::Session::analytic();
          sim::ScopedSession guard(s);
          run();
        } else {
          wp.run(run);
        }
        ASSERT_EQ(std::memcmp(v.data(), in.data(), n * sizeof(T)), 0)
            << "n=" << n << " merge=" << (which == Recorded::Merge)
            << " instrumented=" << instrumented;
      }
    }
  }
}

TEST(RecordedNetwork, NativeMatchesInstrumented) {
  expect_recorded_native_matches_instrumented<Elem>(obl::ByKey{});
}

TEST(RecordedNetwork, KeyValNativeMatchesInstrumented) {
  expect_recorded_native_matches_instrumented<apps::KeyVal>(
      apps::detail::ByKeyKV{});
  expect_recorded_native_matches_instrumented<apps::KeyVal>(
      apps::detail::ByKeyValDesc{});
}

TEST(RecordedNetwork, UnreplayRestoresInput) {
  expect_unreplay_restores_input<Elem>(obl::ByKey{});
}

TEST(RecordedNetwork, KeyValUnreplayRestoresInput) {
  expect_unreplay_restores_input<apps::KeyVal>(apps::detail::ByKeyKV{});
  expect_unreplay_restores_input<apps::KeyVal>(apps::detail::ByKeyValDesc{});
}

TEST(RecordedNetwork, SpanIsPolylog) {
  // Rounds fork into constant-size leaves, so a round costs O(log m) span
  // and the sort O(log^3 m): span(4m)/span(m) stays far below the ~5.5 of
  // a runner that walks every pair of a round on one thread.
  auto span_of = [](Recorded which, size_t n) {
    const std::vector<Elem> in = recorded_input<Elem>(which, n, obl::ByKey{});
    sim::Session s = sim::Session::analytic();
    sim::ScopedSession guard(s);
    vec<Elem> v(in);
    std::vector<uint8_t> tape;
    record(which, v.s(), tape, obl::ByKey{});
    unreplay(which, v.s(), tape);
    return s.cost().span;
  };
  for (const Recorded which : {Recorded::Sort, Recorded::Merge}) {
    const double r = double(span_of(which, size_t{1} << 13)) /
                     double(span_of(which, size_t{1} << 11));
    EXPECT_LT(r, 2.0) << "merge=" << (which == Recorded::Merge);
    EXPECT_GT(r, 1.0) << "merge=" << (which == Recorded::Merge);
  }
}

/// Every third record (and a dense run in the middle) is live.
std::vector<Elem> compact_input(size_t n) {
  std::vector<Elem> in(n);
  for (size_t i = 0; i < n; ++i) {
    in[i] = dup_rec(Elem{}, i, i);
    const bool live = i % 3 == 0 || (i > n / 3 && i < n / 2);
    in[i].flags = live ? Elem::kTemp : 0;
  }
  return in;
}

TEST(CompactMonotone, StableAndNativeMatchesInstrumented) {
  fj::WithPool wp(3);
  for (size_t n = 2; n <= (size_t{1} << 13); n *= 2) {
    const std::vector<Elem> in = compact_input(n);
    std::vector<Elem> want;
    for (const Elem& e : in) {
      if (e.flags & Elem::kTemp) want.push_back(e);
    }
    vec<Elem> native(in);
    wp.run([&] { obl::compact_monotone(native.s(), Elem::kTemp); });
    std::vector<Elem> inst;
    {
      sim::Session s = sim::Session::analytic();
      sim::ScopedSession guard(s);
      vec<Elem> v(in);
      obl::compact_monotone(v.s(), Elem::kTemp);
      inst = v.underlying();
    }
    ASSERT_EQ(std::memcmp(native.data(), inst.data(), n * sizeof(Elem)), 0)
        << n;
    for (size_t i = 0; i < n; ++i) {
      const Elem& e = native.underlying()[i];
      if (i < want.size()) {
        ASSERT_EQ(std::memcmp(&e, &want[i], sizeof(Elem)), 0)
            << "n=" << n << " i=" << i;
      } else {
        ASSERT_EQ(e.flags & Elem::kTemp, 0u) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(CompactMonotone, SpanIsPolylog) {
  // log m double-buffered rounds of O(log m) span each: span(4m)/span(m)
  // stays far below the ~5.5 of shift chains walked on one thread.
  auto span_of = [](size_t n) {
    const std::vector<Elem> in = compact_input(n);
    sim::Session s = sim::Session::analytic();
    sim::ScopedSession guard(s);
    vec<Elem> v(in);
    obl::compact_monotone(v.s(), Elem::kTemp);
    return s.cost().span;
  };
  const double r =
      double(span_of(size_t{1} << 13)) / double(span_of(size_t{1} << 11));
  EXPECT_LT(r, 2.0);
  EXPECT_GT(r, 1.0);
}

}  // namespace
}  // namespace dopar
