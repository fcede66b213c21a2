#include "flow/fields.hpp"

#include <array>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "proto/checksum.hpp"
#include "proto/headers.hpp"

namespace esw::flow {

using proto::ParseInfo;

namespace {

using enum proto::ProtoBit;

constexpr std::array<FieldInfo, kNumFields> kCatalog = {{
    // name        bits  base              off  load shift  prerequisites
    {"in_port", 32, FieldBase::kMeta, 12, 4, 0, 0},
    {"metadata", 64, FieldBase::kMeta, 16, 8, 0, 0},
    {"eth_dst", 48, FieldBase::kL2, 0, 6, 0, kProtoEth},
    {"eth_src", 48, FieldBase::kL2, 6, 6, 0, kProtoEth},
    // EthType sits 2 bytes before the L3 offset in both the tagged and the
    // untagged case (the parser skips the 802.1Q tag).
    {"eth_type", 16, FieldBase::kL3, -2, 2, 0, kProtoEth},
    // VLAN TCI is 4 bytes before L3 when a tag is present.
    {"vlan_vid", 12, FieldBase::kL3, -4, 2, 0, kProtoVlan},
    {"vlan_pcp", 3, FieldBase::kL3, -4, 2, 13, kProtoVlan},
    {"ip_src", 32, FieldBase::kL3, 12, 4, 0, kProtoIpv4},
    {"ip_dst", 32, FieldBase::kL3, 16, 4, 0, kProtoIpv4},
    {"ip_proto", 8, FieldBase::kL3, 9, 1, 0, kProtoIpv4},
    {"ip_dscp", 6, FieldBase::kL3, 1, 1, 2, kProtoIpv4},
    {"ip_ttl", 8, FieldBase::kL3, 8, 1, 0, kProtoIpv4},
    {"tcp_src", 16, FieldBase::kL4, 0, 2, 0, kProtoIpv4 | kProtoTcp},
    {"tcp_dst", 16, FieldBase::kL4, 2, 2, 0, kProtoIpv4 | kProtoTcp},
    {"udp_src", 16, FieldBase::kL4, 0, 2, 0, kProtoIpv4 | kProtoUdp},
    {"udp_dst", 16, FieldBase::kL4, 2, 2, 0, kProtoIpv4 | kProtoUdp},
    {"icmp_type", 8, FieldBase::kL4, 0, 1, 0, kProtoIpv4 | kProtoIcmp},
    {"icmp_code", 8, FieldBase::kL4, 1, 1, 0, kProtoIpv4 | kProtoIcmp},
    {"arp_op", 16, FieldBase::kL3, 6, 2, 0, kProtoArp},
    // Conntrack state bits stamped by the datapath pre-stage (state/conntrack.hpp);
    // matchable like any metadata field, read-only from actions.
    {"ct_state", 32, FieldBase::kMeta, 24, 4, 0, 0},
}};

uint32_t base_offset(FieldBase base, const ParseInfo& pi) {
  switch (base) {
    case FieldBase::kL2:
      return pi.l2_off;
    case FieldBase::kL3:
      return pi.l3_off;
    case FieldBase::kL4:
      return pi.l4_off;
    case FieldBase::kMeta:
      return 0;
  }
  return 0;
}

}  // namespace

const FieldInfo& field_info(FieldId f) {
  ESW_DCHECK(f < FieldId::kCount);
  return kCatalog[static_cast<unsigned>(f)];
}

FieldId field_from_name(std::string_view name) {
  for (unsigned i = 0; i < kNumFields; ++i)
    if (kCatalog[i].name == name) return static_cast<FieldId>(i);
  return FieldId::kCount;
}

uint64_t field_full_mask(FieldId f) { return low_bits(field_info(f).width_bits); }

uint64_t extract_field(FieldId f, const uint8_t* pkt, const ParseInfo& pi) {
  const FieldInfo& fi = field_info(f);
  if (fi.base == FieldBase::kMeta) {
    if (f == FieldId::kInPort) return pi.in_port;
    if (f == FieldId::kCtState) return pi.ct_state;
    return pi.metadata;
  }
  const uint32_t off = base_offset(fi.base, pi) + fi.offset;
  const uint64_t raw = load_be(pkt + off, fi.load_width);
  return (raw >> fi.shift) & low_bits(fi.width_bits);
}

namespace {

// Incrementally fixes the IPv4 header checksum after one 16-bit word of the
// IP header changed from `old_word` to `new_word`.
void fix_ip_csum16(uint8_t* ip, uint16_t old_word, uint16_t new_word) {
  const uint16_t old_csum = load_be16(ip + proto::kIpv4ChecksumOff);
  store_be16(ip + proto::kIpv4ChecksumOff,
             proto::checksum_update16(old_csum, old_word, new_word));
}

// Fixes the TCP/UDP checksum after a 32-bit change anywhere covered by it
// (addresses via the pseudo header, or ports).  UDP checksum 0 = disabled.
void fix_l4_csum32(uint8_t* pkt, const ParseInfo& pi, uint32_t old_w, uint32_t new_w) {
  uint8_t* l4 = pkt + pi.l4_off;
  if (pi.has(proto::kProtoTcp)) {
    const uint16_t old_c = load_be16(l4 + proto::kTcpChecksumOff);
    store_be16(l4 + proto::kTcpChecksumOff, proto::checksum_update32(old_c, old_w, new_w));
  } else if (pi.has(proto::kProtoUdp)) {
    const uint16_t old_c = load_be16(l4 + proto::kUdpChecksumOff);
    if (old_c == 0) return;  // checksum disabled
    uint16_t c = proto::checksum_update32(old_c, old_w, new_w);
    if (c == 0) c = 0xFFFF;
    store_be16(l4 + proto::kUdpChecksumOff, c);
  }
}

}  // namespace

bool store_field(FieldId f, uint64_t value, uint8_t* pkt, ParseInfo& pi) {
  if (!field_present(f, pi)) return false;
  const FieldInfo& fi = field_info(f);
  value &= low_bits(fi.width_bits);

  switch (f) {
    case FieldId::kInPort:
    case FieldId::kCtState:
      return false;  // read-only
    case FieldId::kMetadata:
      pi.metadata = value;
      return true;
    default:
      break;
  }

  const uint32_t off = base_offset(fi.base, pi) + fi.offset;
  uint8_t* ip = pkt + pi.l3_off;

  switch (f) {
    case FieldId::kIpSrc:
    case FieldId::kIpDst: {
      const uint32_t old_v = static_cast<uint32_t>(load_be32(pkt + off));
      const uint32_t new_v = static_cast<uint32_t>(value);
      if (old_v == new_v) return true;
      store_be32(pkt + off, new_v);
      const uint16_t old_c = load_be16(ip + proto::kIpv4ChecksumOff);
      store_be16(ip + proto::kIpv4ChecksumOff,
                 proto::checksum_update32(old_c, old_v, new_v));
      fix_l4_csum32(pkt, pi, old_v, new_v);  // pseudo-header contribution
      return true;
    }
    case FieldId::kIpTtl:
    case FieldId::kIpProto: {
      // TTL and protocol share the 16-bit word at IP offset 8.
      const uint16_t old_word = load_be16(ip + proto::kIpv4TtlOff);
      pkt[off] = static_cast<uint8_t>(value);
      const uint16_t new_word = load_be16(ip + proto::kIpv4TtlOff);
      if (old_word != new_word) fix_ip_csum16(ip, old_word, new_word);
      return true;
    }
    case FieldId::kIpDscp: {
      const uint16_t old_word = load_be16(ip);  // version/ihl + dscp/ecn word
      pkt[off] = static_cast<uint8_t>((pkt[off] & 0x03) | (value << 2));
      const uint16_t new_word = load_be16(ip);
      if (old_word != new_word) fix_ip_csum16(ip, old_word, new_word);
      return true;
    }
    case FieldId::kTcpSrc:
    case FieldId::kTcpDst:
    case FieldId::kUdpSrc:
    case FieldId::kUdpDst: {
      const uint16_t old_v = load_be16(pkt + off);
      const uint16_t new_v = static_cast<uint16_t>(value);
      if (old_v == new_v) return true;
      store_be16(pkt + off, new_v);
      fix_l4_csum32(pkt, pi, old_v, new_v);
      return true;
    }
    case FieldId::kVlanVid:
    case FieldId::kVlanPcp: {
      // Read-modify-write the TCI under the field's shifted mask.
      const uint16_t tci = load_be16(pkt + off);
      const uint16_t m = static_cast<uint16_t>(low_bits(fi.width_bits) << fi.shift);
      store_be16(pkt + off,
                 static_cast<uint16_t>((tci & ~m) | ((value << fi.shift) & m)));
      return true;
    }
    case FieldId::kIcmpType:
    case FieldId::kIcmpCode: {
      uint8_t* l4 = pkt + pi.l4_off;
      const uint16_t old_word = load_be16(l4 + proto::kIcmpTypeOff);
      pkt[off] = static_cast<uint8_t>(value);
      const uint16_t new_word = load_be16(l4 + proto::kIcmpTypeOff);
      if (old_word != new_word) {
        const uint16_t old_c = load_be16(l4 + proto::kIcmpChecksumOff);
        store_be16(l4 + proto::kIcmpChecksumOff,
                   proto::checksum_update16(old_c, old_word, new_word));
      }
      return true;
    }
    default: {
      // Plain big-endian store for the remaining fields (MACs, ethertype,
      // arp_op); none are covered by a checksum.
      const uint64_t raw = load_be(pkt + off, fi.load_width);
      const uint64_t m = low_bits(fi.width_bits) << fi.shift;
      store_be(pkt + off, (raw & ~m) | ((value << fi.shift) & m), fi.load_width);
      return true;
    }
  }
}

}  // namespace esw::flow
