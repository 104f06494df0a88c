// Unit tests: the named sorter-backend registry (core/backend.hpp), its
// Runtime plumbing (Builder::backend, the one selector), and the
// async submission API (Runtime::submit -> dopar::Future).
//
// Parity discipline: the *functional* outputs of the oblivious primitives
// are determined by the Runtime's seed alone — the backend only changes
// HOW the sorts are realized (the access pattern), never WHAT they
// compute. So every registered backend must produce identical sorted
// output, identical per-bin ORBA assignments and identical send-receive
// results; and per backend, identically-built Runtimes must replay
// identical trace digests.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "dopar.hpp"
#include "testutil.hpp"

namespace dopar {
namespace {

using obl::Elem;

/// The parity/determinism sweeps iterate the live registry, so every
/// registered backend — the builtins, "spms", and anything a test in this
/// binary registers later (e.g. "probe") — is covered with no test edits.
/// That is safe order-independently because the properties asserted
/// (functional parity, digest replay) are part of the SorterBackend
/// contract itself, not of any particular name.
std::vector<std::string> all_backends() { return backend_names(); }

TEST(BackendRegistry, ListsTheBuiltins) {
  const auto names = backend_names();
  const std::set<std::string> have(names.begin(), names.end());
  for (const char* want : {"bitonic", "bitonic_ca", "naive_bitonic",
                           "odd_even", "osort", "spms"}) {
    EXPECT_TRUE(have.count(want)) << want;
  }
}

// ---- functional parity across every registered backend -------------------

TEST(BackendParity, SortProducesIdenticalOutputOnEveryBackend) {
  constexpr size_t n = 700;
  // Distinct keys: the sorted sequence is fully determined (duplicate-key
  // tie order legitimately varies per backend — the ORP tie-break labels
  // are drawn per bin slot, and slot contents depend on the network).
  std::vector<Elem> in(n);
  util::Rng rng(3);
  for (size_t i = 0; i < n; ++i) {
    in[i].key = i * 3;
    in[i].payload = 1000 + i;
  }
  for (size_t i = n; i > 1; --i) std::swap(in[i - 1], in[rng.below(i)]);

  std::vector<std::pair<uint64_t, uint64_t>> golden;
  for (const std::string& name : all_backends()) {
    auto rt = Runtime::builder().seed(42).backend(name).build();
    EXPECT_EQ(rt.backend().name(), name);
    vec<Elem> v(in);
    rt.sort(v.s());
    EXPECT_TRUE(test::sorted_by_key(v.underlying())) << name;
    std::vector<std::pair<uint64_t, uint64_t>> got;
    for (const Elem& e : v.underlying()) got.emplace_back(e.key, e.payload);
    if (golden.empty()) {
      golden = got;
    } else {
      EXPECT_EQ(got, golden) << name;
    }
  }
}

TEST(BackendParity, BinAssignRoutesEveryElementToTheSameBin) {
  constexpr size_t n = 256;
  std::vector<Elem> in(n);
  for (size_t i = 0; i < n; ++i) {
    in[i].key = 10 * i;
    in[i].payload = i;
  }
  // The (element -> bin) map is a function of the Runtime seed alone.
  std::map<std::string, std::multiset<uint64_t>> golden;
  for (const std::string& name : all_backends()) {
    auto rt = Runtime::builder().seed(9).backend(name).build();
    vec<Elem> v(in);
    core::OrbaOutput out = rt.bin_assign(v.s());
    std::map<std::string, std::multiset<uint64_t>> got;
    for (size_t b = 0; b < out.beta; ++b) {
      std::multiset<uint64_t> bin;
      for (size_t k = 0; k < out.Z; ++k) {
        const core::Routed& r = out.bins.underlying()[b * out.Z + k];
        if (!r.e.is_filler()) bin.insert(r.e.key);
      }
      got["bin" + std::to_string(b)] = std::move(bin);
    }
    if (golden.empty()) {
      golden = got;
    } else {
      EXPECT_EQ(got, golden) << name;
    }
  }
}

TEST(BackendParity, SendReceiveResultsAreBackendIndependent) {
  constexpr size_t ns = 120, nd = 180;
  util::Rng rng(8);
  std::vector<Elem> sources(ns), dests(nd);
  for (size_t i = 0; i < ns; ++i) {
    sources[i].key = 3 * i;
    sources[i].payload = 5000 + i;
    sources[i].aux = i;
  }
  for (size_t i = 0; i < nd; ++i) dests[i].key = rng.below(3 * ns);

  std::vector<std::pair<uint64_t, bool>> golden;
  for (const std::string& name : all_backends()) {
    auto rt = Runtime::builder().seed(21).backend(name).build();
    vec<Elem> s(sources), d(dests), r(nd);
    rt.send_receive(s.s(), d.s(), r.s());
    std::vector<std::pair<uint64_t, bool>> got;
    for (const Elem& e : r.underlying()) {
      got.emplace_back(e.payload, (e.flags & Elem::kNotFound) != 0);
    }
    if (golden.empty()) {
      golden = got;
    } else {
      EXPECT_EQ(got, golden) << name;
    }
  }
}

// ---- per-backend seed determinism (ORP/trace digests) --------------------

TEST(BackendDeterminism, EveryBackendReplaysItsTraceDigest) {
  constexpr size_t n = 256;
  auto digests = [&](const std::string& name) {
    auto rt = Runtime::builder().seed(77).backend(name).trace().build();
    std::vector<uint64_t> out;

    auto v = rt.make_vec<Elem>(test::random_elems(n, 4));
    rt.sort(v.s());
    out.push_back(rt.trace_digest());

    auto w = rt.make_vec<Elem>(test::random_elems(n, 5));
    (void)rt.bin_assign(w.s());
    out.push_back(rt.trace_digest());

    auto s = rt.make_vec<Elem>(n);
    auto d = rt.make_vec<Elem>(n);
    auto r = rt.make_vec<Elem>(n);
    for (size_t i = 0; i < n; ++i) {
      s.underlying()[i].key = 2 * i;
      s.underlying()[i].payload = i;
      d.underlying()[i].key = 2 * ((i * 7) % n);
    }
    rt.send_receive(s.s(), d.s(), r.s());
    out.push_back(rt.trace_digest());
    return out;
  };

  std::map<std::string, std::vector<uint64_t>> seen;
  for (const std::string& name : all_backends()) {
    const auto a = digests(name);
    const auto b = digests(name);
    EXPECT_EQ(a, b) << name;  // replayable per backend
    for (uint64_t dg : a) EXPECT_NE(dg, 0u) << name;
    seen[name] = a;
  }
  // Different networks have different fixed access patterns: selecting a
  // backend by name must actually change the executed schedule.
  EXPECT_NE(seen["bitonic_ca"], seen["naive_bitonic"]);
  EXPECT_NE(seen["bitonic_ca"], seen["osort"]);
  // The SPMS comparison phase schedules differently from REC-SORT, so the
  // two full-sort backends are distinguishable end-to-end as well.
  EXPECT_NE(seen["spms"], seen["osort"]);
  EXPECT_NE(seen["spms"], seen["bitonic_ca"]);
}

// ---- SortOptions: an empty struct ----------------------------------------

TEST(SortOptions, IsEmptySoNoFieldCanBeSilentlyIgnored) {
  // Builder::backend()/params() are the only backend selector; SortOptions
  // survives only as the type of the ignored JoinOptions::sort and
  // GroupByOptions::sort fields, so setting a backend there cannot compile.
  static_assert(std::is_empty_v<SortOptions>);
}

// ---- the full-sort backends, selected on the builder ---------------------

TEST(OsortBackend, AutoSizesItsScratchSorts) {
  // Regression: Runtime-level params tuned for big arrays (large Z) must
  // not be forced onto the osort backend's much smaller internal scratch
  // sorts — beta = 2n/Z would round to 0 and the pipeline would die.
  const core::SortParams big = core::SortParams::auto_for(1 << 16);
  auto rt =
      Runtime::builder().seed(4).backend("osort").params(big).build();
  constexpr size_t n = 32;
  vec<Elem> s(n), d(n), r(n);
  for (size_t i = 0; i < n; ++i) {
    s.underlying()[i].key = 2 * i;
    s.underlying()[i].payload = 100 + i;
    d.underlying()[i].key = 2 * (n - 1 - i);
  }
  rt.send_receive(s.s(), d.s(), r.s());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(r.underlying()[i].payload, 100 + (n - 1 - i));
  }
}

TEST(OsortBackend, SortsCorrectly) {
  constexpr size_t n = 300;
  auto rt = Runtime::builder().seed(3).backend("osort").build();
  auto in = test::random_elems(n, 12);
  vec<Elem> v(in);
  rt.sort(v.s());
  EXPECT_TRUE(test::sorted_by_key(v.underlying()));
  EXPECT_TRUE(test::same_keys(v.underlying(), in));
}

// ---- registry extensibility + end-to-end selection probe -----------------

std::atomic<int>& probe_calls() {
  static std::atomic<int> c{0};
  return c;
}

/// A registered-from-outside backend (the "future SPMS is one
/// register_backend() call" property): counts canonical sorts, delegates
/// to the default network.
class ProbeBackend final : public SorterBackend {
 public:
  std::string_view name() const override { return "probe"; }
  void sort(const slice<Elem>& a) const override {
    probe_calls().fetch_add(1, std::memory_order_relaxed);
    default_backend().sort(a);
  }
  void sort(const slice<Elem>& a, LessFn<Elem> less) const override {
    probe_calls().fetch_add(1, std::memory_order_relaxed);
    default_backend().sort(a, less);
  }
  void sort(const slice<obl::BinItem<Elem>>& a) const override {
    probe_calls().fetch_add(1, std::memory_order_relaxed);
    default_backend().sort(a);
  }
  void sort(const slice<obl::BinItem<core::Routed>>& a) const override {
    probe_calls().fetch_add(1, std::memory_order_relaxed);
    default_backend().sort(a);
  }
};

TEST(BackendRegistry, RegisteredBackendIsSelectableByNameEndToEnd) {
  register_backend("probe", [](const BackendConfig&) {
    return std::make_shared<const ProbeBackend>();
  });

  probe_calls().store(0);
  auto rt = Runtime::builder().seed(2).backend("probe").build();
  vec<Elem> s(std::vector<Elem>(8)), d(std::vector<Elem>(8)), r(8);
  for (size_t i = 0; i < 8; ++i) {
    s.underlying()[i].key = i;
    s.underlying()[i].payload = i;
    d.underlying()[i].key = 7 - i;
  }
  rt.send_receive(s.s(), d.s(), r.s());
  EXPECT_GT(probe_calls().load(), 0);
}

// ---- error paths ----------------------------------------------------------

TEST(BackendErrors, UnknownNameThrowsAtBuild) {
  // ("spms" used to be the canonical not-yet-registered name here; it is
  // a real backend now, so an AKS network stands in as the hypothetical.)
  EXPECT_THROW(Runtime::builder().backend("aks").build(), UnknownBackend);

  // The message names the registered backends (operator discoverability).
  try {
    make_backend("no_such_backend");
    FAIL() << "expected UnknownBackend";
  } catch (const UnknownBackend& e) {
    EXPECT_NE(std::string(e.what()).find("bitonic_ca"), std::string::npos);
  }
}

// ---- submit(): concurrency, results, exceptions ---------------------------

TEST(Submit, TwoPipelinesOverlapAndReturnCorrectResults) {
  constexpr size_t n = 400;
  auto rt = Runtime::builder().seed(5).threads(2).build();

  // Both jobs rendezvous before doing real work: if submitted jobs were
  // serialized, the first would never see the second arrive.
  std::atomic<int> arrived{0};
  auto pipeline = [&](uint64_t) {
    arrived.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    bool saw_both = false;
    while (std::chrono::steady_clock::now() < deadline) {
      if (arrived.load() >= 2) {
        saw_both = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // Chain 0 -> 1 -> ... -> n-1; rank[i] = n-1-i.
    std::vector<uint64_t> succ(n);
    for (size_t i = 0; i < n; ++i) succ[i] = i + 1 == n ? i : i + 1;
    return std::make_pair(saw_both, rt.list_rank(succ));
  };

  auto fa = rt.submit([&] { return pipeline(1); });
  auto fb = rt.submit([&] { return pipeline(2); });
  auto [a_concurrent, a_ranks] = fa.get();
  auto [b_concurrent, b_ranks] = fb.get();
  EXPECT_TRUE(a_concurrent);
  EXPECT_TRUE(b_concurrent);
  ASSERT_EQ(a_ranks.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(a_ranks[i], n - 1 - i);
  }
  EXPECT_EQ(a_ranks, b_ranks);
}

TEST(Submit, ExceptionsPropagateThroughTheFuture) {
  auto rt = Runtime::builder().seed(1).build();
  auto boom = rt.submit([]() -> int {
    throw std::runtime_error("pipeline exploded");
  });
  EXPECT_THROW(boom.get(), std::runtime_error);

  // The runtime stays usable after a failed job.
  auto ok = rt.submit([] { return 7; });
  EXPECT_EQ(ok.get(), 7);
}

TEST(Submit, ManyJobsBeyondTheWorkerCapAllComplete) {
  auto rt = Runtime::builder().seed(6).build();
  std::vector<Future<size_t>> futs;
  for (size_t k = 0; k < 16; ++k) {
    futs.push_back(rt.submit([k] { return k * k; }));
  }
  for (size_t k = 0; k < 16; ++k) {
    EXPECT_EQ(futs[k].get(), k * k);
  }
}

TEST(Submit, VoidJobsAndQueuedDrainOnDestruction) {
  std::atomic<int> ran{0};
  {
    auto rt = Runtime::builder().seed(8).build();
    for (int k = 0; k < 8; ++k) {
      (void)rt.submit([&ran] { ran.fetch_add(1); });
    }
    // Destructor drains the queue before joining the workers.
  }
  EXPECT_EQ(ran.load(), 8);
}

}  // namespace
}  // namespace dopar
