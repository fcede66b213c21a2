// OpenFlow match: a (value, mask) pair per participating field.
//
// Stored as fixed arrays plus a present-bitmask — O(popcount) iteration, no
// allocation, cheap equality/hash — so the control plane can shuffle entries
// around during decomposition and analysis without heap churn.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "flow/fields.hpp"
#include "proto/parse.hpp"

namespace esw::flow {

class Match {
 public:
  Match() = default;

  /// Adds (or tightens) a field constraint.  The mask defaults to exact; the
  /// value is canonicalized (value &= mask &= full field width).
  Match& set(FieldId f, uint64_t value, uint64_t mask);
  Match& set(FieldId f, uint64_t value) { return set(f, value, field_full_mask(f)); }

  /// Removes a field constraint (used by table decomposition).
  Match& clear(FieldId f);

  bool has(FieldId f) const { return (present_ & bit(f)) != 0; }
  uint64_t value(FieldId f) const { return value_[idx(f)]; }
  uint64_t mask(FieldId f) const { return mask_[idx(f)]; }
  uint32_t present_bits() const { return present_; }
  unsigned num_fields() const { return static_cast<unsigned>(__builtin_popcount(present_)); }
  bool is_catch_all() const { return present_ == 0; }

  /// Union of protocol prerequisites of all participating fields.
  uint32_t proto_required() const;

  /// True when the parsed packet satisfies every field constraint.
  bool matches_packet(const uint8_t* pkt, const proto::ParseInfo& pi) const;

  /// True when every packet matching *this* also matches `other`
  /// (other is equal or more general).
  bool subsumed_by(const Match& other) const;

  /// True when some packet could match both (field-wise intersection test;
  /// exact for mask-style matches).
  bool overlaps(const Match& other) const;

  bool operator==(const Match& other) const;
  uint64_t hash() const;

  std::string to_string() const;

 private:
  static uint32_t bit(FieldId f) { return 1u << static_cast<unsigned>(f); }
  static unsigned idx(FieldId f) { return static_cast<unsigned>(f); }

  uint32_t present_ = 0;
  std::array<uint64_t, kNumFields> value_{};
  std::array<uint64_t, kNumFields> mask_{};
};

/// Iterates the fields present in a match: for (FieldId f : MatchFields(m)) …
class MatchFields {
 public:
  explicit MatchFields(const Match& m) : bits_(m.present_bits()) {}
  class Iter {
   public:
    explicit Iter(uint32_t bits) : bits_(bits) {}
    FieldId operator*() const { return static_cast<FieldId>(__builtin_ctz(bits_)); }
    Iter& operator++() {
      bits_ &= bits_ - 1;
      return *this;
    }
    bool operator!=(const Iter& o) const { return bits_ != o.bits_; }

   private:
    uint32_t bits_;
  };
  Iter begin() const { return Iter(bits_); }
  Iter end() const { return Iter(0); }

 private:
  uint32_t bits_;
};

}  // namespace esw::flow
