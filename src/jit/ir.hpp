// The lowered matcher IR — the meeting point of the paper's *matcher
// templates* and *template specialization* (§3.1, §3.3).
//
// A FieldTest is one specialized matcher: a raw little-endian load of 1/2/4/8
// bytes at a layer-relative offset, xor'ed against an inlined key constant and
// masked ("actual flow keys will be patched into the templates in the template
// specialization step").  A LoweredEntry is one flow entry: a protocol-bitmask
// guard plus a chain of matchers plus a packed result.
//
// Two executors share this IR byte-for-byte: the x86-64 fused program
// (fusion.hpp), which renders every direct-code stage of the plan, and the
// portable interpreter below — which is the fallback when the JIT is off or
// the exec mapping is refused, and the differential-testing oracle for the
// JIT.
#pragma once

#include <cstdint>
#include <vector>

#include "proto/parse.hpp"

namespace esw::jit {

/// Which parsed offset anchors a load (the paper's r12/r13/r14 registers),
/// or the ParseInfo block itself for pipeline metadata (in_port, metadata).
enum class LoadBase : uint8_t { kL2, kL3, kL4, kParseInfo };

struct FieldTest {
  LoadBase base = LoadBase::kL2;
  int8_t rel_off = 0;      // byte offset relative to the base (may be negative)
  uint8_t load_width = 1;  // 1, 2, 4 or 8 bytes, loaded little-endian
  uint64_t cmp_const = 0;  // pre-swizzled key (constant-folded into the code)
  uint64_t cmp_mask = 0;   // pre-swizzled mask
};

struct LoweredEntry {
  uint32_t proto_required = 0;  // all bits must be present in pi.proto_mask
  std::vector<FieldTest> tests;
  uint64_t result = 0;  // pack_result(action_set, next_table)
};

/// Result packing: 0 is the table-miss sentinel.  Bit 63 marks a valid hit
/// (so a hit with neither actions nor goto — a legal OpenFlow entry meaning
/// "drop via empty action set" — stays distinguishable from a miss); both
/// halves are stored off-by-one so that "-1 = none" is representable.
inline constexpr uint64_t kMissResult = 0;
inline constexpr uint64_t kHitBit = uint64_t{1} << 63;

inline uint64_t pack_result(int32_t action_set, int32_t next_table) {
  return kHitBit |
         (static_cast<uint64_t>(static_cast<uint32_t>(action_set + 1)) << 32) |
         static_cast<uint32_t>(next_table + 1);
}

inline void unpack_result(uint64_t packed, int32_t& action_set, int32_t& next_table) {
  action_set = static_cast<int32_t>((packed >> 32) & 0x7FFFFFFF) - 1;
  next_table = static_cast<int32_t>(packed & 0xFFFFFFFF) - 1;
}

/// Portable executor over the lowered IR; bit-identical to the JIT output.
uint64_t interpret(const LoweredEntry* entries, size_t count, const uint8_t* pkt,
                   const proto::ParseInfo& pi);

}  // namespace esw::jit
