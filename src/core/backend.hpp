#pragma once
// dopar::SorterBackend — the type-erased sorter layer beneath the Runtime
// façade, and its named registry.
//
// Every composite oblivious primitive (bin placement, compaction,
// send-receive, the Section 5 apps, the PRAM simulations) delegates its
// sorts to a SorterBackend instead of a compile-time template policy, so a
// Table 2 configuration is a *name*, chosen once per Runtime:
//
//   auto rt = dopar::Runtime::builder().backend("odd_even").build();
//
// Built-in names: "bitonic_ca" (default; cache-agnostic bitonic, Theorem
// E.1), "bitonic" (depth-first recursive bitonic), "naive_bitonic"
// (layer-by-layer PRAM schedule — the "prior best" columns), "odd_even"
// (Batcher network, AKS stand-in), and the two full oblivious sorts of
// Theorem 3.2 (core::detail::osort), which realize the Table 2
// sorting-bound rows: "osort" (ORP + REC-SORT) and "spms" (ORP + the
// genuine Sample-Partition-Merge Sort, core/spms.hpp, under
// kSpmsPractical — the paper's optimal configuration). The name alone
// picks the comparison phase. The three bitonic backends realize one
// network and share one native path; they differ only in their
// instrumented schedules. The registry stays open: register_backend()
// adds or replaces a named backend in one call.
//
// Interface shape: the primitives express every order as one of three.
// The canonical "Elem ascending by key" is the one a full oblivious *sort*
// such as osort or SPMS can realize directly. The other two are realizable
// by any comparison network, and a sort-only backend falls back to its
// network for them (the paper's composite primitives assume exactly "an
// O(1) number of AKS sorts" there): an Elem comparison passed as a
// stateless function pointer, so the virtual boundary stays type-safe
// without templating the interface, and bin placement's one fixed order,
// BinItem records ascending by skey, which the network inlines.

#include <cstdint>
#include <functional>
#include <type_traits>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/params.hpp"
#include "core/routed.hpp"
#include "forkjoin/api.hpp"
#include "obl/binitem.hpp"
#include "obl/elem.hpp"
#include "obl/sorter.hpp"
#include "sim/session.hpp"
#include "sim/tracked.hpp"
#include "util/bits.hpp"

namespace dopar {

/// Stateless comparator, type-erased to a plain function pointer.
template <class T>
using LessFn = bool (*)(const T&, const T&);

/// Erase a stateless comparator type to a LessFn<T>. The argument's value
/// is discarded — the lambda default-constructs Less — so comparators with
/// configured state are rejected at compile time rather than silently
/// compared with default-constructed members.
template <class T, class Less>
constexpr LessFn<T> erase_less(Less) {
  static_assert(std::is_empty_v<Less>,
                "erase_less: comparator must be stateless (its state would "
                "be dropped by the type erasure)");
  return [](const T& a, const T& b) { return Less{}(a, b); };
}

/// Type-erased oblivious sorter. Implementations must be thread-safe:
/// one backend instance may serve concurrent pipelines.
class SorterBackend {
 public:
  virtual ~SorterBackend() = default;

  /// Registry name this instance was created under.
  virtual std::string_view name() const = 0;

  /// Canonical order: Elem ascending by key — the order every composite
  /// primitive packs its scratch phases into. Sort-algorithm backends
  /// ("osort", "spms") realize it with the full oblivious sort; network
  /// backends run their comparator network. Any n is accepted.
  virtual void sort(const slice<obl::Elem>& a) const = 0;

  /// Comparison sort of Elem records under an order that is not a single
  /// Elem key. Realized by the backend's comparator network.
  virtual void sort(const slice<obl::Elem>& a,
                    LessFn<obl::Elem> less) const = 0;

  /// Bin placement's sorts (obl/binplace.hpp): BinItem records ascending
  /// by skey (obl::BinBySkey). Realized by the backend's comparator
  /// network.
  virtual void sort(const slice<obl::BinItem<obl::Elem>>& a) const = 0;
  virtual void sort(const slice<obl::BinItem<core::Routed>>& a) const = 0;
};

/// Backend built from a comparator-network policy (obl/sorter.hpp): every
/// order, including the canonical one, runs the network.
template <class Net>
class NetworkBackend final : public SorterBackend {
 public:
  explicit NetworkBackend(std::string name) : name_(std::move(name)) {}

  std::string_view name() const override { return name_; }

  /// Any n: the network needs a power-of-two array, so a non-power-of-two
  /// input is sorted through a filler-padded scratch buffer (fillers carry
  /// the maximal key and land in the dropped tail).
  void sort(const slice<obl::Elem>& a) const override {
    const size_t n = a.size();
    if (n <= 1 || util::is_pow2(n)) {
      Net{}(a, obl::ByKey{});
      return;
    }
    const size_t padded = util::pow2_ceil(n);
    vec<obl::Elem> tmp(padded);
    const slice<obl::Elem> t = tmp.s();
    fj::for_range(0, n, fj::kDefaultGrain, [&](size_t i) {
      sim::tick(1);
      t[i] = a[i];
    });
    fj::for_range(n, padded, fj::kDefaultGrain, [&](size_t i) {
      sim::tick(1);
      t[i] = obl::Elem::filler();
    });
    Net{}(t, obl::ByKey{});
    fj::for_range(0, n, fj::kDefaultGrain, [&](size_t i) {
      sim::tick(1);
      a[i] = t[i];
    });
  }
  void sort(const slice<obl::Elem>& a,
            LessFn<obl::Elem> less) const override {
    Net{}(a, less);
  }
  void sort(const slice<obl::BinItem<obl::Elem>>& a) const override {
    Net{}(a, obl::BinBySkey{});
  }
  void sort(const slice<obl::BinItem<core::Routed>>& a) const override {
    Net{}(a, obl::BinBySkey{});
  }

 private:
  std::string name_;
};

/// The backend primitives fall back to when none is supplied explicitly
/// (engine-level callers; the Runtime always passes its configured one).
/// Deliberately a fixed instance, NOT a registry lookup: the default path
/// takes no lock and cannot be broken by register_backend() replacing the
/// "bitonic_ca" entry — replacement affects *named* resolution only.
const SorterBackend& default_backend();

/// Configuration a factory receives when the registry instantiates a
/// backend: the seed feeding any internal randomness (Runtime derives it
/// from its master seed, keeping seed-determinism), and the pipeline
/// parameters for backends that run the full oblivious sort. Network
/// backends ignore all of it.
struct BackendConfig {
  uint64_t seed = 0x05027;
  core::SortParams params{};
};

using BackendFactory =
    std::function<std::shared_ptr<const SorterBackend>(const BackendConfig&)>;

/// Thrown on a backend name the registry does not know; the message lists
/// the registered names.
struct UnknownBackend : std::invalid_argument {
  explicit UnknownBackend(const std::string& what)
      : std::invalid_argument(what) {}
};

/// Register (or replace) a named backend. Thread-safe.
void register_backend(std::string_view name, BackendFactory factory);

/// Instantiate a registered backend by name. Throws UnknownBackend.
std::shared_ptr<const SorterBackend> make_backend(
    std::string_view name, const BackendConfig& config = {});

/// Names currently registered, sorted.
std::vector<std::string> backend_names();

/// The type of the ignored JoinOptions::sort and GroupByOptions::sort
/// fields (rel/rel.hpp), kept only so designated initializers that name
/// them still compile. Runtime::Builder::backend()/params() are the one
/// backend selector. The struct is empty on purpose: an initializer that
/// sets a backend or parameters here is a compile error, not a setting
/// that is silently dropped.
struct SortOptions {};

}  // namespace dopar
