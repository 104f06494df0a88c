#pragma once
// The record shapes oblivious bin placement moves through its sort, plus
// the traits a user record must provide (split out of binplace.hpp so the
// sorter-backend interface can name the closed set of sortable records
// without pulling in the placement algorithm itself).

#include <cstdint>
#include <limits>

#include "obl/elem.hpp"

namespace dopar::obl {

/// Traits a record type must provide for bin placement.
template <class R>
struct RecordTraits;

template <>
struct RecordTraits<Elem> {
  static bool is_filler(const Elem& e) { return e.is_filler(); }
  static Elem filler() { return Elem::filler(); }
};

/// Work record of bin placement: the user record plus a scratch key.
/// skey holds a real's bin id while sorting and its target slot while
/// routing; fillers carry the sink key throughout.
template <class R>
struct BinItem {
  R r;
  uint64_t skey = 0;

  static constexpr uint64_t kSinkKey = std::numeric_limits<uint64_t>::max();
};

struct BinBySkey {
  template <class R>
  bool operator()(const BinItem<R>& a, const BinItem<R>& b) const {
    return a.skey < b.skey;
  }
};

}  // namespace dopar::obl
