#include "testing/pipeline_gen.hpp"

#include <algorithm>
#include <set>

#include "usecases/usecases.hpp"

namespace esw::testing {

using flow::Action;
using flow::ActionList;
using flow::FieldId;
using flow::FlowEntry;
using flow::FlowTable;
using flow::Match;

namespace {

/// Fields set_field may target in generated actions (writable, checksum-safe
/// through store_field, and visible in the output frame for byte comparison).
constexpr FieldId kMutableFields[] = {
    FieldId::kEthDst, FieldId::kEthSrc,  FieldId::kIpSrc,   FieldId::kIpDst,
    FieldId::kIpDscp, FieldId::kIpTtl,   FieldId::kTcpSrc,  FieldId::kTcpDst,
    FieldId::kUdpSrc, FieldId::kUdpDst,  FieldId::kVlanVid, FieldId::kVlanPcp,
    FieldId::kMetadata,
};

uint16_t prefix_mask16(unsigned len) {
  return static_cast<uint16_t>(len == 0 ? 0 : 0xFFFFu << (16 - len));
}

}  // namespace

net::FlowSpec spec_for_match(const Match& m, Rng& rng) {
  using proto::PacketKind;
  net::FlowSpec fs;
  proto::PacketSpec& s = fs.pkt;

  auto field = [&](FieldId f) {
    // Constrained bits from the match, unconstrained bits randomized.
    const uint64_t full = flow::field_full_mask(f);
    return (m.value(f) | (rng.next() & ~m.mask(f))) & full;
  };

  // Kind first: transport fields beat ip_proto beat eth_type beat "anything".
  if (m.has(FieldId::kArpOp)) {
    s.kind = PacketKind::kArp;
    s.arp_op = static_cast<uint16_t>(field(FieldId::kArpOp));
  } else if (m.has(FieldId::kTcpSrc) || m.has(FieldId::kTcpDst)) {
    s.kind = PacketKind::kTcp;
  } else if (m.has(FieldId::kUdpSrc) || m.has(FieldId::kUdpDst)) {
    s.kind = PacketKind::kUdp;
  } else if (m.has(FieldId::kIcmpType) || m.has(FieldId::kIcmpCode)) {
    s.kind = PacketKind::kIcmp;
  } else if (m.has(FieldId::kIpProto)) {
    const uint8_t p = static_cast<uint8_t>(m.value(FieldId::kIpProto));
    s.kind = p == 6    ? PacketKind::kTcp
             : p == 17 ? PacketKind::kUdp
             : p == 1  ? PacketKind::kIcmp
                       : PacketKind::kIpv4;
    if (s.kind == PacketKind::kIpv4) s.ip_proto = p;
  } else if (m.has(FieldId::kEthType)) {
    const uint16_t et = static_cast<uint16_t>(m.value(FieldId::kEthType));
    if (et == 0x0800) {
      s.kind = rng.chance(1, 2) ? PacketKind::kUdp : PacketKind::kTcp;
    } else if (et == 0x0806) {
      s.kind = PacketKind::kArp;
    } else {
      s.kind = PacketKind::kRawEth;
      s.ethertype = et;
    }
  } else if (m.has(FieldId::kIpSrc) || m.has(FieldId::kIpDst) ||
             m.has(FieldId::kIpDscp) || m.has(FieldId::kIpTtl)) {
    switch (rng.below(3)) {
      case 0: s.kind = PacketKind::kTcp; break;
      case 1: s.kind = PacketKind::kUdp; break;
      default: s.kind = PacketKind::kIcmp; break;
    }
  } else {
    switch (rng.below(5)) {
      case 0: s.kind = PacketKind::kTcp; break;
      case 1: s.kind = PacketKind::kUdp; break;
      case 2: s.kind = PacketKind::kIcmp; break;
      case 3: s.kind = PacketKind::kArp; break;
      default: s.kind = PacketKind::kRawEth; break;
    }
  }

  s.eth_dst = m.has(FieldId::kEthDst) ? field(FieldId::kEthDst)
                                      : (rng.next() & 0xFFFFFFFFFFFF) | 0x020000000000;
  s.eth_src = m.has(FieldId::kEthSrc) ? field(FieldId::kEthSrc)
                                      : (rng.next() & 0xFFFFFFFFFFFF) | 0x020000000000;
  if (m.has(FieldId::kVlanVid))
    s.vlan_vid = static_cast<uint16_t>(field(FieldId::kVlanVid));
  else if (m.has(FieldId::kVlanPcp) || rng.chance(1, 8))
    s.vlan_vid = static_cast<uint16_t>(rng.below(0x1000));
  if (m.has(FieldId::kVlanPcp))
    s.vlan_pcp = static_cast<uint8_t>(field(FieldId::kVlanPcp));

  s.ip_src = m.has(FieldId::kIpSrc) ? static_cast<uint32_t>(field(FieldId::kIpSrc))
                                    : static_cast<uint32_t>(rng.next());
  s.ip_dst = m.has(FieldId::kIpDst) ? static_cast<uint32_t>(field(FieldId::kIpDst))
                                    : static_cast<uint32_t>(rng.next());
  if (m.has(FieldId::kIpTtl)) s.ip_ttl = static_cast<uint8_t>(field(FieldId::kIpTtl));
  if (m.has(FieldId::kIpDscp)) s.ip_dscp = static_cast<uint8_t>(field(FieldId::kIpDscp));

  s.sport = static_cast<uint16_t>(rng.range(1, 0xFFFF));
  s.dport = static_cast<uint16_t>(rng.range(1, 0xFFFF));
  if (m.has(FieldId::kTcpSrc)) s.sport = static_cast<uint16_t>(field(FieldId::kTcpSrc));
  if (m.has(FieldId::kTcpDst)) s.dport = static_cast<uint16_t>(field(FieldId::kTcpDst));
  if (m.has(FieldId::kUdpSrc)) s.sport = static_cast<uint16_t>(field(FieldId::kUdpSrc));
  if (m.has(FieldId::kUdpDst)) s.dport = static_cast<uint16_t>(field(FieldId::kUdpDst));
  if (m.has(FieldId::kIcmpType))
    s.icmp_type = static_cast<uint8_t>(field(FieldId::kIcmpType));
  if (m.has(FieldId::kIcmpCode))
    s.icmp_code = static_cast<uint8_t>(field(FieldId::kIcmpCode));

  s.payload_len = static_cast<uint16_t>(rng.range(0, 64));
  fs.in_port = m.has(FieldId::kInPort)
                   ? static_cast<uint32_t>(field(FieldId::kInPort)) & 0xFF
                   : static_cast<uint32_t>(rng.range(1, 4));
  if (fs.in_port == 0) fs.in_port = 1;
  return fs;
}

PipelineGen::PipelineGen(uint64_t seed, const GenOptions& opts)
    : opts_(opts), rng_(seed) {
  // The shape generators divide this knob (range uses /2, tuple-space draws
  // range(2, /2)); floor it so tiny configurations can't produce an empty
  // Rng::range and a modulo-by-zero.
  if (opts_.max_entries_per_table < 8) opts_.max_entries_per_table = 8;
  if (opts_.max_tables < opts_.min_tables) opts_.max_tables = opts_.min_tables;
}

ActionList PipelineGen::random_actions(const std::vector<uint8_t>& later,
                                       int16_t* goto_out) {
  ActionList al;
  // Mutations first (write-action sets are order-insensitive anyway).
  if (rng_.chance(1, 4)) {
    const FieldId f = kMutableFields[rng_.below(std::size(kMutableFields))];
    al.push_back(Action::set_field(f, rng_.next() & flow::field_full_mask(f)));
  }
  if (rng_.chance(1, 8)) al.push_back(Action::dec_ttl());
  if (rng_.chance(1, 10)) {
    if (rng_.chance(1, 2))
      al.push_back(Action::push_vlan(static_cast<uint16_t>(rng_.below(0x1000))));
    else
      al.push_back(Action::pop_vlan());
  }
  // Terminal.
  switch (rng_.below(10)) {
    case 0: al.push_back(Action::drop()); break;
    case 1: al.push_back(Action::to_controller()); break;
    case 2: al.push_back(Action::flood()); break;
    case 3: break;  // no output: empty action set drops (unless a later table adds one)
    default:
      al.push_back(Action::output(static_cast<uint32_t>(rng_.range(1, 4))));
      break;
  }
  *goto_out = flow::kNoGoto;
  if (!later.empty() && rng_.chance(1, 3))
    *goto_out = static_cast<int16_t>(later[rng_.below(later.size())]);
  return al;
}

void PipelineGen::gen_exact_hash(FlowTable& t, const std::vector<uint8_t>& later) {
  // One shared mask set over a compatible field group; distinct keys.
  struct Group {
    std::vector<FieldId> fields;
  };
  static const Group kGroups[] = {
      {{FieldId::kEthDst}},
      {{FieldId::kEthSrc, FieldId::kEthDst}},
      {{FieldId::kInPort, FieldId::kEthDst}},
      {{FieldId::kIpSrc, FieldId::kIpDst}},
      {{FieldId::kIpDst, FieldId::kUdpDst}},
      {{FieldId::kIpSrc, FieldId::kIpDst, FieldId::kIpProto, FieldId::kTcpSrc,
        FieldId::kTcpDst}},
  };
  const Group& g = kGroups[rng_.below(std::size(kGroups))];
  // Identical per-field masks across entries (the hash prerequisite); mostly
  // exact, sometimes a prefix-style mask on one field.
  std::vector<uint64_t> masks;
  for (const FieldId f : g.fields) masks.push_back(flow::field_full_mask(f));
  if (rng_.chance(1, 4)) {
    const size_t i = rng_.below(g.fields.size());
    const unsigned width = flow::field_info(g.fields[i]).width_bits;
    const unsigned len = static_cast<unsigned>(rng_.range(1, width));
    masks[i] = (masks[i] >> (width - len)) << (width - len);
  }

  const size_t n = rng_.range(1, opts_.max_entries_per_table);
  std::set<std::vector<uint64_t>> seen;
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint64_t> key;
    Match m;
    for (size_t j = 0; j < g.fields.size(); ++j) {
      const uint64_t v = rng_.next() & masks[j];
      m.set(g.fields[j], v, masks[j]);
      key.push_back(v);
    }
    if (!seen.insert(key).second) continue;  // duplicate key: skip
    FlowEntry e;
    e.match = m;
    e.priority = 100;  // equal priority is safe: keys are pairwise disjoint
    e.actions = random_actions(later, &e.goto_table);
    t.add(e);
  }
  if (rng_.chance(1, 2)) {
    FlowEntry def;  // catch-all default, strictly lowest priority
    def.priority = 1;
    def.actions = random_actions(later, &def.goto_table);
    t.add(def);
  }
}

void PipelineGen::gen_lpm(FlowTable& t, const std::vector<uint8_t>& later) {
  const FieldId f = rng_.chance(1, 4) ? FieldId::kIpSrc : FieldId::kIpDst;
  const size_t n = rng_.range(1, opts_.max_entries_per_table);
  std::set<std::pair<uint32_t, unsigned>> seen;
  for (size_t i = 0; i < n; ++i) {
    const unsigned len = static_cast<unsigned>(rng_.range(1, 32));
    const uint32_t mask = static_cast<uint32_t>((0xFFFFFFFFull << (32 - len)));
    const uint32_t prefix = static_cast<uint32_t>(rng_.next()) & mask;
    if (!seen.insert({prefix, len}).second) continue;
    FlowEntry e;
    e.match.set(f, prefix, mask);
    // Priority = prefix length: more specific strictly higher, equal-length
    // prefixes are disjoint, so equal priority is unambiguous.
    e.priority = static_cast<uint16_t>(100 + len);
    e.actions = random_actions(later, &e.goto_table);
    t.add(e);
  }
  if (rng_.chance(1, 2)) {
    FlowEntry def;  // the /0 default
    def.priority = 50;
    def.actions = random_actions(later, &def.goto_table);
    t.add(def);
  }
}

void PipelineGen::gen_range(FlowTable& t, const std::vector<uint8_t>& later) {
  // Single non-IPv4 16-bit field with prefix-style masks and *random*
  // priorities — the shape LPM must reject (wrong field / inverted
  // priorities) but the range template takes.
  static const FieldId kFields[] = {FieldId::kTcpDst, FieldId::kTcpSrc,
                                    FieldId::kUdpDst, FieldId::kUdpSrc};
  const FieldId f = kFields[rng_.below(std::size(kFields))];
  const size_t n = rng_.range(1, opts_.max_entries_per_table / 2);
  std::set<std::pair<uint16_t, unsigned>> seen;
  std::vector<uint16_t> prios;
  for (uint16_t p = 10; p < 10 + n; ++p) prios.push_back(p);
  for (size_t i = prios.size(); i > 1; --i)
    std::swap(prios[i - 1], prios[rng_.below(i)]);
  for (size_t i = 0; i < n; ++i) {
    const unsigned len = static_cast<unsigned>(rng_.range(1, 16));
    const uint16_t mask = prefix_mask16(len);
    const uint16_t value = static_cast<uint16_t>(rng_.next()) & mask;
    if (!seen.insert({value, len}).second) continue;
    FlowEntry e;
    e.match.set(f, value, mask);
    e.priority = prios[i];  // distinct, deliberately not length-ordered
    e.actions = random_actions(later, &e.goto_table);
    t.add(e);
  }
  if (rng_.chance(1, 2)) {
    FlowEntry def;
    def.priority = 1;
    def.actions = random_actions(later, &def.goto_table);
    t.add(def);
  }
}

void PipelineGen::gen_direct_small(FlowTable& t, const std::vector<uint8_t>& later) {
  // Up to direct_code_max_entries arbitrary-mask entries with distinct
  // priorities: the shape the JIT inlines into straight-line code.
  const size_t n = rng_.range(1, 4);
  for (size_t i = 0; i < n; ++i) {
    FlowEntry e;
    const size_t n_fields = rng_.range(0, 3);
    for (size_t j = 0; j < n_fields; ++j) {
      const FieldId f = static_cast<FieldId>(rng_.below(flow::kNumFields));
      if (f == FieldId::kMetadata) continue;  // unreachable at ingress
      const uint64_t full = flow::field_full_mask(f);
      uint64_t mask = full;
      if (rng_.chance(1, 3)) {
        mask = rng_.next() & full;  // arbitrary sparse mask
        if (mask == 0) mask = full;
      }
      e.match.set(f, rng_.next() & full, mask);
    }
    e.priority = static_cast<uint16_t>(200 - i * 10);  // distinct
    e.actions = random_actions(later, &e.goto_table);
    t.add(e);
  }
}

void PipelineGen::gen_tuple_space(FlowTable& t, const std::vector<uint8_t>& later) {
  // Mixed mask sets, overlapping matches, distinct priorities: the
  // linked-list / tuple-space fallback shape.
  const size_t n = rng_.range(2, opts_.max_entries_per_table / 2);
  static const FieldId kPool[] = {FieldId::kInPort, FieldId::kEthDst,
                                  FieldId::kEthSrc, FieldId::kEthType,
                                  FieldId::kIpSrc,  FieldId::kIpDst,
                                  FieldId::kIpProto, FieldId::kTcpDst,
                                  FieldId::kUdpDst, FieldId::kVlanVid};
  for (size_t i = 0; i < n; ++i) {
    FlowEntry e;
    const size_t n_fields = rng_.range(0, 4);
    for (size_t j = 0; j < n_fields; ++j) {
      const FieldId f = kPool[rng_.below(std::size(kPool))];
      const uint64_t full = flow::field_full_mask(f);
      uint64_t mask = full;
      switch (rng_.below(3)) {
        case 0: break;
        case 1: {
          const unsigned width = flow::field_info(f).width_bits;
          const unsigned len = static_cast<unsigned>(rng_.range(1, width));
          mask = (full >> (width - len)) << (width - len);
          break;
        }
        default:
          mask = rng_.next() & full;
          if (mask == 0) mask = full;
          break;
      }
      e.match.set(f, rng_.next() & full, mask);
    }
    e.priority = static_cast<uint16_t>(1000 + i);  // distinct
    e.actions = random_actions(later, &e.goto_table);
    t.add(e);
  }
}

void PipelineGen::gen_acl(FlowTable& t) {
  // Snort-like 5-tuple ACLs: the decomposition trigger (Fig. 6 shapes).
  const size_t n = rng_.range(8, opts_.max_entries_per_table);
  const flow::FlowTable acls = uc::make_snort_like_acls(n, rng_.next());
  for (const FlowEntry& e : acls.entries()) t.add(e);
}

GeneratedWorkload PipelineGen::next_pipeline() {
  GeneratedWorkload wl;
  const uint32_t n_tables =
      static_cast<uint32_t>(rng_.range(opts_.min_tables, opts_.max_tables));

  wl.cfg.enable_jit = true;  // the oracle flips this knob itself
  wl.cfg.specialize_parser = rng_.chance(3, 4);
  wl.cfg.enable_decomposition = opts_.allow_decomposition && rng_.chance(1, 2);
  wl.cfg.enable_range_template = rng_.chance(7, 8);
  if (rng_.chance(1, 8)) wl.cfg.force_template = core::TableTemplate::kLinkedList;

  wl.description = "pipeline#" + std::to_string(n_generated_++) + " [";
  for (uint32_t id = 0; id < n_tables; ++id) {
    std::vector<uint8_t> later;
    for (uint32_t j = id + 1; j < n_tables; ++j)
      later.push_back(static_cast<uint8_t>(j));
    FlowTable& t = wl.pipeline.table(static_cast<uint8_t>(id));
    t.set_miss_policy(rng_.chance(1, 4) ? FlowTable::MissPolicy::kController
                                        : FlowTable::MissPolicy::kDrop);
    const char* shape = "";
    switch (rng_.below(6)) {
      case 0: gen_exact_hash(t, later); shape = "hash"; break;
      case 1: gen_lpm(t, later); shape = "lpm"; break;
      case 2: gen_range(t, later); shape = "range"; break;
      case 3: gen_direct_small(t, later); shape = "direct"; break;
      case 4: gen_tuple_space(t, later); shape = "tuple"; break;
      default: gen_acl(t); shape = "acl"; break;
    }
    wl.description += std::string(id ? "," : "") + shape + ":" +
                      std::to_string(t.size());
  }
  wl.description += "]";
  if (wl.cfg.enable_decomposition) wl.description += " decompose";
  if (!wl.cfg.specialize_parser) wl.description += " full-parser";
  if (wl.cfg.force_template.has_value()) wl.description += " force-ll";
  return wl;
}

std::vector<net::FlowSpec> PipelineGen::traffic(const GeneratedWorkload& wl,
                                                size_t n_packets, size_t n_flows) {
  // Flow pool: hit_fraction of the flows synthesized from installed entries
  // (any table — deep-table shapes exercise goto re-classification), the rest
  // random frames.  Packets then sample the pool uniformly.
  std::vector<const FlowEntry*> all_entries;
  for (const FlowTable& t : wl.pipeline.tables())
    for (const FlowEntry& e : t.entries()) all_entries.push_back(&e);

  if (n_flows == 0) n_flows = 1;
  std::vector<net::FlowSpec> pool;
  pool.reserve(n_flows);
  for (size_t i = 0; i < n_flows; ++i) {
    if (!all_entries.empty() && rng_.chance(opts_.hit_num, opts_.hit_den)) {
      const FlowEntry* e = all_entries[rng_.below(all_entries.size())];
      pool.push_back(spec_for_match(e->match, rng_));
    } else {
      pool.push_back(spec_for_match(Match{}, rng_));  // random parseable frame
    }
  }

  std::vector<net::FlowSpec> out;
  out.reserve(n_packets);
  for (size_t i = 0; i < n_packets; ++i) out.push_back(pool[rng_.below(pool.size())]);
  return out;
}

}  // namespace esw::testing
