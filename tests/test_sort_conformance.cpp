// Registry-driven sort conformance suite: differential fuzz of
// Runtime::sort / Runtime::backend_sort / Runtime::sort_records against a
// std::stable_sort reference, swept over EVERY backend the registry knows
// (dopar::backend_names()) x sizes {0, 1, 2, 7, non-power-of-two, 4096}
// x adversarial inputs. A newly registered backend is covered here with
// no test edits — this suite, not the backend author, owns the contract:
//
//   * output keys exactly match the reference's key sequence;
//   * the (key, payload) multiset is preserved bit-for-bit (nothing
//     duplicated, lost, or detached from its key);
//   * each backend's canonical sort (backend_sort: the network for the
//     network backends, ORP + REC-SORT for "osort", ORP + SPMS for
//     "spms") agrees with the reference;
//   * "spms" replays its trace digest across fresh identically-built
//     Runtimes, and its schedule differs from "osort"'s (the regression
//     gate for SPMS replay determinism).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dopar.hpp"
#include "obl/kernel/dispatch.hpp"
#include "testutil.hpp"

namespace dopar {
namespace {

using obl::Elem;

const std::vector<size_t>& sweep_sizes() {
  // 0/1/2: degenerate; 7: below every cutoff; 700: non-power-of-two
  // (exercises padding + filler routing); 4096: deep recursion.
  static const std::vector<size_t> s{0, 1, 2, 7, 700, 4096};
  return s;
}

struct AdversarialInput {
  const char* name;
  std::vector<Elem> (*make)(size_t n);
};

std::vector<Elem> make_elems(size_t n) {
  std::vector<Elem> v(n);
  for (size_t i = 0; i < n; ++i) v[i].payload = i;
  return v;
}

const std::vector<AdversarialInput>& adversarial_inputs() {
  static const std::vector<AdversarialInput> inputs{
      {"random",
       [](size_t n) {
         auto v = make_elems(n);
         util::Rng rng(n + 1);
         for (size_t i = 0; i < n; ++i) v[i].key = rng.below(3 * n + 4);
         return v;
       }},
      {"all_equal",
       [](size_t n) {
         auto v = make_elems(n);
         for (size_t i = 0; i < n; ++i) v[i].key = 42;
         return v;
       }},
      {"presorted",
       [](size_t n) {
         auto v = make_elems(n);
         for (size_t i = 0; i < n; ++i) v[i].key = 2 * i;
         return v;
       }},
      {"reverse_sorted",
       [](size_t n) {
         auto v = make_elems(n);
         for (size_t i = 0; i < n; ++i) v[i].key = 2 * (n - i);
         return v;
       }},
      {"single_distinct_among_duplicates",
       [](size_t n) {
         auto v = make_elems(n);
         for (size_t i = 0; i < n; ++i) v[i].key = 7;
         if (n > 0) v[n / 2].key = 3;  // the lone smaller key
         return v;
       }},
  };
  return inputs;
}

/// Differential check against std::stable_sort: key sequence must match
/// the reference exactly; the (key, payload) multiset must be preserved.
void expect_matches_reference(const std::vector<Elem>& got,
                              const std::vector<Elem>& input,
                              const std::string& label) {
  std::vector<std::pair<uint64_t, uint64_t>> ref(input.size());
  for (size_t i = 0; i < input.size(); ++i) {
    ref[i] = {input[i].key, input[i].payload};
  }
  std::stable_sort(ref.begin(), ref.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  ASSERT_EQ(got.size(), input.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].key, ref[i].first) << label << " at index " << i;
  }
  // Multiset equality of full (key, payload) pairs: payloads may be
  // permuted within an equal-key range (our sort is not stable — ties
  // break by the random permutation) but never detached or lost.
  std::vector<std::pair<uint64_t, uint64_t>> pairs(got.size());
  for (size_t i = 0; i < got.size(); ++i) pairs[i] = {got[i].key, got[i].payload};
  std::sort(pairs.begin(), pairs.end());
  std::sort(ref.begin(), ref.end());
  EXPECT_EQ(pairs, ref) << label;
}

TEST(SortConformance, EveryBackendMatchesStableSortOnAdversarialInputs) {
  for (const std::string& backend : backend_names()) {
    auto rt = Runtime::builder().seed(1234).backend(backend).build();
    for (size_t n : sweep_sizes()) {
      for (const AdversarialInput& adv : adversarial_inputs()) {
        const std::vector<Elem> in = adv.make(n);
        vec<Elem> v(in);
        rt.sort(v.s());
        expect_matches_reference(
            v.underlying(), in,
            backend + "/" + adv.name + "/n=" + std::to_string(n));
      }
    }
  }
}

TEST(SortConformance, BackendSortMatchesStableSortOnEveryBackend) {
  // backend_sort runs the backend's canonical sort with no pipeline around
  // it: every Service sort batch takes this path.
  for (const std::string& backend : backend_names()) {
    auto rt = Runtime::builder().seed(555).backend(backend).build();
    for (size_t n : sweep_sizes()) {
      for (const AdversarialInput& adv : adversarial_inputs()) {
        const std::vector<Elem> in = adv.make(n);
        vec<Elem> v(in);
        rt.backend_sort(v.s());
        expect_matches_reference(
            v.underlying(), in,
            backend + "/backend_sort/" + adv.name + "/n=" + std::to_string(n));
      }
    }
  }
}

// ---- sort_records: the generic-record path ------------------------------

struct Order {
  uint32_t id = 0;
  std::string note;  // non-POD payload: moves must stay glued to the key
};

TEST(RecordSortConformance, EveryBackendSortsRecordsLikeStableSort) {
  for (const std::string& backend : backend_names()) {
    auto rt = Runtime::builder().seed(77).backend(backend).build();
    for (size_t n : sweep_sizes()) {
      util::Rng rng(n + 13);
      std::vector<Order> recs(n);
      for (size_t i = 0; i < n; ++i) {
        // Small key domain: forces heavy duplication.
        recs[i].id = static_cast<uint32_t>(rng.below(n / 4 + 2));
        recs[i].note = std::to_string(recs[i].id) + ":" + std::to_string(i);
      }
      std::vector<Order> ref = recs;
      std::stable_sort(ref.begin(), ref.end(),
                       [](const Order& a, const Order& b) { return a.id < b.id; });

      rt.sort_records(std::span<Order>(recs),
                      [](const Order& o) { return o.id; });

      const std::string label = backend + "/records/n=" + std::to_string(n);
      ASSERT_EQ(recs.size(), ref.size()) << label;
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(recs[i].id, ref[i].id) << label << " at index " << i;
      }
      // Full records survive as a multiset (no note detached from its id).
      auto by_note = [](const Order& a, const Order& b) {
        return a.note < b.note;
      };
      std::sort(recs.begin(), recs.end(), by_note);
      std::sort(ref.begin(), ref.end(), by_note);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(recs[i].note, ref[i].note) << label;
      }
    }
  }
}

// ---- SPMS replay determinism (regression gate) --------------------------

/// Drive the canonical backend path (sort + send_receive, whose scratch
/// phases run the backend's full pipeline) and return the cumulative
/// trace digest.
uint64_t pipeline_digest(const char* backend) {
  constexpr size_t n = 256;
  auto rt = Runtime::builder().seed(99).backend(backend).trace().build();
  auto v = rt.make_vec<Elem>(test::random_elems(n, 3));
  rt.sort(v.s());
  auto s = rt.make_vec<Elem>(n);
  auto d = rt.make_vec<Elem>(n);
  auto r = rt.make_vec<Elem>(n);
  for (size_t i = 0; i < n; ++i) {
    s.underlying()[i].key = 2 * i;
    s.underlying()[i].payload = 7 * i;
    d.underlying()[i].key = 2 * ((i * 11) % n);
  }
  rt.send_receive(s.s(), d.s(), r.s());
  return rt.trace_digest();
}

TEST(SpmsReplay, SameSeedSameBackendGivesIdenticalDigestAcrossRuntimes) {
  // Two FRESH identically-built Runtimes: every seed the spms backend
  // consumes derives from the master seed, and SPMS itself draws no
  // randomness, so the address-trace digests must collide exactly.
  const uint64_t a = pipeline_digest("spms");
  const uint64_t b = pipeline_digest("spms");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, 0u);
}

TEST(SpmsReplay, SpmsScheduleDiffersFromOsort) {
  // Same seed, same call sequence, different full-sort backend: the SPMS
  // comparison phase must actually schedule differently from REC-SORT —
  // otherwise "spms" would be a relabeled "osort".
  EXPECT_NE(pipeline_digest("spms"), pipeline_digest("osort"));
}

// ---- SIMD dispatch conformance (the comparator-kernel gate) -------------

/// Pin a comparator-kernel ISA for a scope, restoring the startup choice.
struct ScopedIsa {
  obl::kernel::Isa prev;
  explicit ScopedIsa(obl::kernel::Isa isa) : prev(obl::kernel::active_isa()) {
    EXPECT_TRUE(obl::kernel::select_isa(isa));
  }
  ~ScopedIsa() { obl::kernel::select_isa(prev); }
};

TEST(KernelDispatchConformance, EveryBackendSortsIdenticallyUnderEveryIsa) {
  // The comparator schedule is a fixed function of n, and comparators
  // within a round are disjoint — so re-routing the data movement through
  // a different vector kernel must not change a single output byte, on any
  // backend, any size, any adversarial input.
  using obl::kernel::Isa;
  std::vector<Isa> isas;
  for (Isa isa : {Isa::Scalar, Isa::Sse2, Isa::Avx2, Isa::Neon}) {
    if (obl::kernel::isa_supported(isa)) isas.push_back(isa);
  }
  ASSERT_FALSE(isas.empty());
  for (const std::string& backend : backend_names()) {
    for (size_t n : sweep_sizes()) {
      for (const AdversarialInput& adv : adversarial_inputs()) {
        const std::vector<Elem> in = adv.make(n);
        std::vector<Elem> reference;
        for (Isa isa : isas) {
          ScopedIsa guard(isa);
          auto rt = Runtime::builder().seed(1234).backend(backend).build();
          vec<Elem> v(in);
          rt.sort(v.s());
          const std::string label = std::string(obl::kernel::isa_name(isa)) +
                                    "/" + backend + "/" + adv.name +
                                    "/n=" + std::to_string(n);
          expect_matches_reference(v.underlying(), in, label);
          if (reference.empty()) {
            reference = v.underlying();
          } else {
            ASSERT_EQ(0, std::memcmp(v.underlying().data(), reference.data(),
                                     n * sizeof(Elem)))
                << label << " diverges from " << obl::kernel::isa_name(isas[0]);
          }
        }
      }
    }
  }
}

TEST(KernelDispatchConformance, TraceDigestsIdenticalScalarVsSimd) {
  // Instrumented runs route through the historical scalar loops by
  // construction, but the selected ISA must not leak into the trace even
  // indirectly: the full pipeline digest has to replay bit-for-bit no
  // matter which kernel is dispatched.
  using obl::kernel::Isa;
  for (const std::string& backend : backend_names()) {
    uint64_t scalar_digest = 0;
    {
      ScopedIsa guard(Isa::Scalar);
      scalar_digest = pipeline_digest(backend.c_str());
    }
    for (Isa isa : {Isa::Sse2, Isa::Avx2, Isa::Neon}) {
      if (!obl::kernel::isa_supported(isa)) continue;
      ScopedIsa guard(isa);
      EXPECT_EQ(pipeline_digest(backend.c_str()), scalar_digest)
          << backend << " under " << obl::kernel::isa_name(isa);
    }
  }
}

}  // namespace
}  // namespace dopar
