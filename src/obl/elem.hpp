#pragma once
// The element record oblivious routines operate on.
//
// Oblivious algorithms move fixed-size records through fixed access
// patterns; dopar standardizes on a 32-byte trivially-copyable record with
// a sort/routing key, two 64-bit user fields, and a flag word for the
// filler/scratch/receiver markers the paper's building blocks need
// (Sections C.2, F). Applications encode their data into Elem (or use the
// templated primitives directly with their own trivially-copyable type).

#include <cstdint>
#include <limits>
#include <type_traits>

namespace dopar::obl {

struct Elem {
  static constexpr uint32_t kFiller = 1u << 0;  ///< padding element (⊥)
  static constexpr uint32_t kTemp = 1u << 1;    ///< scratch live marker
  static constexpr uint32_t kDest = 1u << 3;    ///< send-receive receiver
  static constexpr uint32_t kNotFound = 1u << 4;  ///< send-receive miss (⊥)

  uint64_t key = 0;      ///< sort / routing key (bin label, group id, ...)
  uint64_t payload = 0;  ///< primary user value
  uint64_t aux = 0;      ///< secondary user value (often an original index)
  uint32_t flags = 0;
  uint32_t extra = 0;  ///< spare 32-bit field (keeps the record 32 bytes)

  bool is_filler() const { return flags & kFiller; }

  static Elem filler() {
    Elem e;
    e.key = std::numeric_limits<uint64_t>::max();
    e.flags = kFiller;
    return e;
  }
};

static_assert(sizeof(Elem) == 32);
static_assert(std::is_trivially_copyable_v<Elem>);

/// Default comparator: order by key. Keys are built so that one 64-bit
/// compare realizes the composite orders the algorithms need.
struct ByKey {
  bool operator()(const Elem& a, const Elem& b) const { return a.key < b.key; }
};

}  // namespace dopar::obl
