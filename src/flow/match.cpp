#include "flow/match.hpp"

#include <sstream>

#include "common/bits.hpp"
#include "common/check.hpp"

namespace esw::flow {

Match& Match::set(FieldId f, uint64_t value, uint64_t mask) {
  ESW_CHECK(f < FieldId::kCount);
  const uint64_t full = field_full_mask(f);
  mask &= full;
  ESW_CHECK_MSG(mask != 0, "empty mask would match nothing of the field");
  present_ |= bit(f);
  mask_[idx(f)] = mask;
  value_[idx(f)] = value & mask;
  return *this;
}

Match& Match::clear(FieldId f) {
  present_ &= ~bit(f);
  mask_[idx(f)] = 0;
  value_[idx(f)] = 0;
  return *this;
}

uint32_t Match::proto_required() const {
  uint32_t req = 0;
  for (FieldId f : MatchFields(*this)) req |= field_info(f).proto_required;
  return req;
}

bool Match::matches_packet(const uint8_t* pkt, const proto::ParseInfo& pi) const {
  const uint32_t req = proto_required();
  if ((pi.proto_mask & req) != req) return false;
  for (FieldId f : MatchFields(*this)) {
    const unsigned i = idx(f);
    if ((extract_field(f, pkt, pi) & mask_[i]) != value_[i]) return false;
  }
  return true;
}

bool Match::subsumed_by(const Match& other) const {
  // Every field other constrains must be constrained here at least as
  // tightly, with agreeing values.
  if ((other.present_ & ~present_) != 0) return false;
  for (FieldId f : MatchFields(other)) {
    const unsigned i = idx(f);
    if ((other.mask_[i] & ~mask_[i]) != 0) return false;       // other tighter bits
    if ((value_[i] & other.mask_[i]) != other.value_[i]) return false;
  }
  return true;
}

bool Match::overlaps(const Match& other) const {
  const uint32_t common = present_ & other.present_;
  for (uint32_t bits = common; bits != 0; bits &= bits - 1) {
    const unsigned i = static_cast<unsigned>(__builtin_ctz(bits));
    const uint64_t m = mask_[i] & other.mask_[i];
    if ((value_[i] & m) != (other.value_[i] & m)) return false;
  }
  return true;
}

bool Match::operator==(const Match& other) const {
  if (present_ != other.present_) return false;
  for (FieldId f : MatchFields(*this)) {
    const unsigned i = idx(f);
    if (value_[i] != other.value_[i] || mask_[i] != other.mask_[i]) return false;
  }
  return true;
}

uint64_t Match::hash() const {
  uint64_t h = mix64(present_);
  for (FieldId f : MatchFields(*this)) {
    const unsigned i = idx(f);
    h = mix64(h ^ value_[i]);
    h = mix64(h ^ mask_[i] ^ (uint64_t{i} << 56));
  }
  return h;
}

std::string Match::to_string() const {
  if (is_catch_all()) return "*";
  std::ostringstream os;
  bool first = true;
  for (FieldId f : MatchFields(*this)) {
    if (!first) os << ',';
    first = false;
    const unsigned i = idx(f);
    os << field_info(f).name << "=0x" << std::hex << value_[i];
    if (mask_[i] != field_full_mask(f)) os << "/0x" << mask_[i];
    os << std::dec;
  }
  return os.str();
}

}  // namespace esw::flow
