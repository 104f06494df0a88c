// Sorter-backend registry implementation (see core/backend.hpp), plus the
// "osort" and "spms" backends — the backends that cannot live header-only,
// because they close a cycle: the full oblivious sorts' own bin placements
// consume a SorterBackend, and the backends consume the full sorts.

#include "core/backend.hpp"

#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <utility>

#include "core/osort.hpp"
#include "core/spms.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace dopar {

namespace {

/// Fit the configured params to a scratch-array size: composite primitives
/// hand the full-sort backends arrays of varying (often much smaller)
/// sizes than the caller's top-level ones, and the configured Z must keep
/// beta = 2n/Z >= 1 after padding. Preserves the retry budget, which is
/// size-independent.
core::SortParams fit_params(core::SortParams p, size_t padded) {
  if (p.Z == 0 || p.Z > padded) {
    const int retries = p.max_retries;
    p = core::SortParams::auto_for(padded);
    p.max_retries = retries;
  }
  return p;
}

/// Full-oblivious-sort backend (Theorem 3.2), shared by "osort" (ORP +
/// REC-SORT) and "spms" (ORP + SPMS under kSpmsPractical): canonical
/// Elem-by-key sorts run the complete core::detail::osort pipeline, with
/// the backend itself as the sorter of its internal bin placements,
/// realizing the Table 2 sorting-bound rows inside the composite
/// primitives. Non-canonical scratch orders fall back to the
/// cache-agnostic network (the paper's "O(1) AKS sorts"). A per-call
/// atomic counter freshens the seed so concurrent sorts never reuse
/// randomness while identical construction replays identical randomness
/// call-for-call (the pipeline draws no randomness beyond that seed).
class FullSortBackend final : public SorterBackend {
 public:
  FullSortBackend(const char* name, std::optional<core::SpmsTuning> spms,
                  const BackendConfig& cfg)
      : name_(name), spms_(spms), seed_(cfg.seed), params_(cfg.params) {}

  std::string_view name() const override { return name_; }

  void sort(const slice<obl::Elem>& a) const override {
    const uint64_t call = calls_.fetch_add(1, std::memory_order_relaxed) + 1;
    const core::SortParams p =
        fit_params(params_, util::pow2_ceil(a.size() < 2 ? 2 : a.size()));
    core::detail::osort(a, util::hash_rand(seed_, call), spms_, p, *this);
  }
  void sort(const slice<obl::Elem>& a,
            LessFn<obl::Elem> less) const override {
    default_backend().sort(a, less);
  }
  void sort(const slice<obl::BinItem<obl::Elem>>& a) const override {
    default_backend().sort(a);
  }
  void sort(const slice<obl::BinItem<core::Routed>>& a) const override {
    default_backend().sort(a);
  }

 private:
  const char* name_;
  std::optional<core::SpmsTuning> spms_;
  uint64_t seed_;
  core::SortParams params_;
  mutable std::atomic<uint64_t> calls_{0};
};

struct Registry {
  std::mutex m;
  std::map<std::string, BackendFactory, std::less<>> factories;
};

/// Network backends are stateless: one shared instance per name serves
/// every configuration.
template <class Net>
BackendFactory network_factory(const char* name) {
  auto instance = std::make_shared<const NetworkBackend<Net>>(name);
  return [instance](const BackendConfig&) { return instance; };
}

Registry& registry() {
  static Registry* r = [] {
    auto* reg = new Registry;
    reg->factories.emplace(
        "bitonic_ca", network_factory<obl::BitonicSorter>("bitonic_ca"));
    reg->factories.emplace(
        "bitonic", network_factory<obl::PlainBitonicSorter>("bitonic"));
    reg->factories.emplace(
        "naive_bitonic",
        network_factory<obl::NaiveBitonicSorter>("naive_bitonic"));
    reg->factories.emplace(
        "odd_even", network_factory<obl::OddEvenSorter>("odd_even"));
    reg->factories.emplace("osort", [](const BackendConfig& cfg) {
      return std::make_shared<const FullSortBackend>("osort", std::nullopt,
                                                     cfg);
    });
    reg->factories.emplace("spms", [](const BackendConfig& cfg) {
      return std::make_shared<const FullSortBackend>(
          "spms", core::kSpmsPractical, cfg);
    });
    return reg;
  }();
  return *r;
}

}  // namespace

const SorterBackend& default_backend() {
  static const NetworkBackend<obl::BitonicSorter> b("bitonic_ca");
  return b;
}

void register_backend(std::string_view name, BackendFactory factory) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.m);
  r.factories.insert_or_assign(std::string(name), std::move(factory));
}

std::shared_ptr<const SorterBackend> make_backend(std::string_view name,
                                                  const BackendConfig& config) {
  BackendFactory factory;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.m);
    auto it = r.factories.find(name);
    if (it == r.factories.end()) {
      std::string msg = "unknown sorter backend \"";
      msg += name;
      msg += "\"; registered:";
      for (const auto& [known, f] : r.factories) {
        msg += ' ';
        msg += known;
      }
      throw UnknownBackend(msg);
    }
    factory = it->second;
  }
  return factory(config);
}

std::vector<std::string> backend_names() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.m);
  std::vector<std::string> names;
  names.reserve(r.factories.size());
  for (const auto& [name, f] : r.factories) names.push_back(name);
  return names;
}

}  // namespace dopar
