// The exact-match key of one mask signature — the shared key format of the
// compound-hash template (§3.1: "every field is matched by exactly the same
// mask in each entry") and of every tuple in the tuple space (§2.2, §3.2).
//
// A shape is the present-field set, the per-field masks and the protocol
// prerequisite of the signature.  A key is 8 masked bytes per present field,
// in field-id order; the catch-all signature (no fields) keys to one
// sentinel byte, so its single entry still has an index slot.  The index
// behind both users is cls::CuckooTable.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>

#include "flow/match.hpp"

namespace esw::cls {

class KeyShape {
 public:
  /// Longest key any shape builds: every field present.
  static constexpr uint32_t kMaxKeyBytes = 8 * flow::kNumFields;

  KeyShape() = default;
  /// The mask signature of `m`; its values are ignored.
  explicit KeyShape(const flow::Match& m)
      : present_(m.present_bits()), proto_required_(m.proto_required()) {
    for (flow::FieldId f : flow::MatchFields(m)) masks_[idx(f)] = m.mask(f);
  }

  /// Same field set and the same mask on every field.
  bool fits(const flow::Match& m) const {
    if (m.present_bits() != present_) return false;
    for (flow::FieldId f : flow::MatchFields(m))
      if (m.mask(f) != masks_[idx(f)]) return false;
    return true;
  }

  /// The packet carries every protocol layer the shape's fields live in;
  /// a packet without them matches no entry of this shape.
  bool applies(const proto::ParseInfo& pi) const {
    return (pi.proto_mask & proto_required_) == proto_required_;
  }

  uint32_t key_len() const {
    return present_ == 0 ? 1 : 8 * static_cast<uint32_t>(__builtin_popcount(present_));
  }

  /// The key of a match that fits this shape.  Returns key_len().
  uint32_t key(const flow::Match& m, uint8_t* out) const {
    uint32_t n = 0;
    for (uint32_t bits = present_; bits != 0; bits &= bits - 1) {
      const unsigned i = static_cast<unsigned>(__builtin_ctz(bits));
      const uint64_t v = m.value(static_cast<flow::FieldId>(i)) & masks_[i];
      std::memcpy(out + n, &v, 8);
      n += 8;
    }
    if (n == 0) out[n++] = 0;
    return n;
  }

  /// The key of a parsed packet the shape applies() to.  Returns key_len().
  uint32_t key(const uint8_t* pkt, const proto::ParseInfo& pi, uint8_t* out) const {
    uint32_t n = 0;
    for (uint32_t bits = present_; bits != 0; bits &= bits - 1) {
      const unsigned i = static_cast<unsigned>(__builtin_ctz(bits));
      const uint64_t v =
          flow::extract_field(static_cast<flow::FieldId>(i), pkt, pi) & masks_[i];
      std::memcpy(out + n, &v, 8);
      n += 8;
    }
    if (n == 0) out[n++] = 0;
    return n;
  }

  uint32_t present_bits() const { return present_; }
  uint64_t mask(flow::FieldId f) const { return masks_[idx(f)]; }

 private:
  static unsigned idx(flow::FieldId f) { return static_cast<unsigned>(f); }

  uint32_t present_ = 0;
  uint32_t proto_required_ = 0;
  std::array<uint64_t, flow::kNumFields> masks_{};
};

}  // namespace esw::cls
