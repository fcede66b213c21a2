#include "core/lowering.hpp"

#include "common/bits.hpp"

namespace esw::core {

using flow::FieldBase;
using flow::FieldId;
using flow::FieldInfo;

jit::FieldTest lower_field_test(FieldId f, uint64_t value, uint64_t mask) {
  const FieldInfo& fi = flow::field_info(f);
  jit::FieldTest t;
  t.rel_off = fi.offset;

  if (fi.base == FieldBase::kMeta) {
    // ParseInfo fields live in host byte order; compare directly.
    t.base = jit::LoadBase::kParseInfo;
    t.load_width = fi.load_width;
    t.cmp_const = value & mask;
    t.cmp_mask = mask;
    return t;
  }

  switch (fi.base) {
    case FieldBase::kL2:
      t.base = jit::LoadBase::kL2;
      break;
    case FieldBase::kL3:
      t.base = jit::LoadBase::kL3;
      break;
    case FieldBase::kL4:
      t.base = jit::LoadBase::kL4;
      break;
    default:
      break;
  }

  // Position the value within its wire chunk (sub-byte fields like vlan_pcp),
  // then swizzle to the constant a little-endian load would produce.
  const uint64_t wire_value = (value & mask) << fi.shift;
  const uint64_t wire_mask = (mask & low_bits(fi.width_bits)) << fi.shift;
  // 6-byte fields (MACs) load 8 bytes; the mask's two zero upper bytes
  // neutralize the over-read.
  t.load_width = fi.load_width == 6 ? 8 : fi.load_width;
  t.cmp_const = host_to_wire_le(wire_value, fi.load_width);
  t.cmp_mask = host_to_wire_le(wire_mask, fi.load_width);
  return t;
}

void lower_match(const flow::Match& m, jit::LoweredEntry& out) {
  out.proto_required = m.proto_required();
  for (FieldId f : flow::MatchFields(m))
    out.tests.push_back(lower_field_test(f, m.value(f), m.mask(f)));
}

}  // namespace esw::core
