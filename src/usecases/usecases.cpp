#include "usecases/usecases.hpp"

#include <algorithm>
#include <set>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "flow/dsl.hpp"
#include "proto/headers.hpp"
#include "state/conntrack.hpp"

namespace esw::uc {

using flow::Action;
using flow::FieldId;
using flow::FlowEntry;
using flow::FlowTable;
using flow::Match;
using flow::Pipeline;
using net::FlowSpec;

namespace {
uint64_t nth_mac(uint64_t i) { return 0x02'00'00'00'00'00ULL | (i & 0xFFFFFF); }
}  // namespace

std::vector<net::TrafficSet> traffic_shards(const UseCase& uc, size_t n_flows,
                                            uint32_t n_shards, uint64_t seed) {
  const size_t per_shard = std::max<size_t>(1, n_flows / n_shards);
  std::vector<net::TrafficSet> shards;
  for (uint32_t w = 0; w < n_shards; ++w)
    shards.push_back(net::TrafficSet::from_flows(uc.traffic(per_shard, seed + w)));
  return shards;
}

UseCase make_l2(size_t table_size, uint64_t seed) {
  UseCase uc;
  std::vector<FlowEntry> entries;
  entries.reserve(table_size);
  for (size_t i = 0; i < table_size; ++i) {
    FlowEntry e;
    e.match.set(FieldId::kEthDst, nth_mac(i));
    e.priority = 10;
    e.actions = {Action::output(static_cast<uint32_t>(1 + i % 4))};
    entries.push_back(std::move(e));
  }
  uc.pipeline.table(0).replace_all(std::move(entries));

  uc.traffic = [table_size, seed](size_t n_flows, uint64_t run_seed) {
    Rng rng(seed ^ run_seed);
    std::vector<FlowSpec> flows;
    flows.reserve(n_flows);
    for (size_t i = 0; i < n_flows; ++i) {
      FlowSpec fs;
      fs.pkt = proto::PacketSpec{};
      fs.pkt.kind = proto::PacketKind::kUdp;
      fs.pkt.eth_dst = nth_mac(i % table_size);  // aligned: no table misses
      fs.pkt.eth_src = nth_mac(0x800000 | rng.below(1 << 22));
      fs.pkt.ip_src = static_cast<uint32_t>(rng.next());
      fs.pkt.sport = static_cast<uint16_t>(rng.below(0xFFFF));
      fs.pkt.dport = static_cast<uint16_t>(rng.below(0xFFFF));
      fs.in_port = static_cast<uint32_t>(rng.below(4));
      flows.push_back(std::move(fs));
    }
    return flows;
  };
  return uc;
}

UseCase make_l3(size_t n_prefixes, uint64_t seed) {
  // Realistic-ish RIB length histogram, dominated by /24s.
  static const uint8_t kLens[] = {8,  12, 16, 16, 18, 19, 20, 21, 22, 22,
                                  23, 23, 24, 24, 24, 24, 24, 24, 24, 24};
  Rng rng(seed);
  std::vector<std::pair<uint32_t, uint8_t>> prefixes;
  prefixes.reserve(n_prefixes);
  std::set<std::pair<uint32_t, uint8_t>> seen;
  std::vector<FlowEntry> entries;
  entries.reserve(n_prefixes + 1);
  while (prefixes.size() < n_prefixes) {
    const uint8_t len = kLens[rng.below(std::size(kLens))];
    const uint32_t mask = static_cast<uint32_t>(low_bits(len) << (32 - len));
    // Stay within 1.0.0.0–223.255.255.255 for plausibility.
    const uint32_t p = (static_cast<uint32_t>(1 + rng.below(222)) << 24 |
                        static_cast<uint32_t>(rng.next() & 0xFFFFFF)) &
                       mask;
    if (!seen.insert({p, len}).second) continue;  // unique rules only
    FlowEntry e;
    e.match.set(FieldId::kIpDst, p, mask);
    e.priority = len;  // priority == specificity: LPM-compliant
    e.actions = {Action::output(static_cast<uint32_t>(1 + rng.below(8)))};
    entries.push_back(std::move(e));
    prefixes.emplace_back(p, len);
  }
  {
    FlowEntry def;  // default route (the paper's traces avoid misses)
    def.priority = 0;
    def.actions = {Action::output(1)};
    entries.push_back(std::move(def));
  }
  UseCase uc;
  uc.pipeline.table(0).replace_all(std::move(entries));

  uc.traffic = [prefixes = std::move(prefixes), seed](size_t n_flows,
                                                      uint64_t run_seed) {
    Rng rng(seed ^ (run_seed * 0x9E37));
    std::vector<FlowSpec> flows;
    flows.reserve(n_flows);
    for (size_t i = 0; i < n_flows; ++i) {
      const auto& [p, len] = prefixes[rng.below(prefixes.size())];
      FlowSpec fs;
      fs.pkt.kind = proto::PacketKind::kUdp;
      fs.pkt.ip_dst = p | static_cast<uint32_t>(rng.next() & low_bits(32 - len));
      fs.pkt.ip_src = static_cast<uint32_t>(rng.next());
      fs.pkt.sport = static_cast<uint16_t>(rng.below(0xFFFF));
      fs.pkt.dport = static_cast<uint16_t>(rng.below(0xFFFF));
      fs.in_port = 1;
      flows.push_back(std::move(fs));
    }
    return flows;
  };
  return uc;
}

UseCase make_load_balancer(size_t n_services, uint64_t seed) {
  // Fig. 7a: port 1 faces the Internet; per-service backends A_i / B_i sit on
  // ports 10+2i / 11+2i; internal ports forward out unconditionally.
  std::vector<FlowEntry> entries;
  for (size_t i = 0; i < n_services; ++i) {
    const uint32_t vip = 0x0A010000u | static_cast<uint32_t>(i);  // 10.1.x.x
    FlowEntry a;
    a.match.set(FieldId::kInPort, 1);
    a.match.set(FieldId::kIpDst, vip);
    a.match.set(FieldId::kTcpDst, 80);
    a.match.set(FieldId::kIpSrc, 0, 0x80000000);  // first src bit = 0
    a.priority = 20;
    a.actions = {Action::output(static_cast<uint32_t>(10 + 2 * i))};
    entries.push_back(a);
    FlowEntry b = a;
    b.match.set(FieldId::kIpSrc, 0x80000000, 0x80000000);  // first bit = 1
    b.actions = {Action::output(static_cast<uint32_t>(11 + 2 * i))};
    entries.push_back(b);
  }
  for (size_t i = 0; i < n_services; ++i) {
    // Reverse direction: backend ports forward to the Internet port.
    for (uint32_t off : {0u, 1u}) {
      FlowEntry r;
      r.match.set(FieldId::kInPort, 10 + 2 * i + off);
      r.priority = 10;
      r.actions = {Action::output(1)};
      entries.push_back(std::move(r));
    }
  }
  {
    FlowEntry drop;
    drop.priority = 1;
    drop.actions = {Action::drop()};
    entries.push_back(std::move(drop));
  }
  UseCase uc;
  uc.pipeline.table(0).replace_all(std::move(entries));

  uc.traffic = [n_services, seed](size_t n_flows, uint64_t run_seed) {
    Rng rng(seed ^ (run_seed * 77));
    std::vector<FlowSpec> flows;
    flows.reserve(n_flows);
    for (size_t i = 0; i < n_flows; ++i) {
      FlowSpec fs;
      fs.pkt.kind = proto::PacketKind::kTcp;
      fs.in_port = 1;
      fs.pkt.ip_src = static_cast<uint32_t>(rng.next());
      fs.pkt.sport = static_cast<uint16_t>(1024 + rng.below(60000));
      if (rng.chance(1, 2)) {
        // Half the packets go to a random web service…
        fs.pkt.ip_dst = 0x0A010000u | static_cast<uint32_t>(rng.below(n_services));
        fs.pkt.dport = 80;
      } else {
        // …and the rest of the traffic is dropped.
        fs.pkt.ip_dst = static_cast<uint32_t>(rng.next()) | 0x20000000;
        fs.pkt.dport = static_cast<uint16_t>(81 + rng.below(1000));
      }
      flows.push_back(std::move(fs));
    }
    return flows;
  };
  return uc;
}

UseCase make_gateway(size_t n_ce, size_t users_per_ce, size_t n_prefixes,
                     uint64_t seed) {
  UseCase uc;
  Pipeline& pl = uc.pipeline;

  // Table 0: separate user→network traffic per CE (VLAN tag) from
  // network→user traffic (untagged, from the net-facing port) — the latter
  // via the table default so the stage keeps a single global mask and
  // compiles into the hash template.
  {
    std::vector<FlowEntry> t0;
    for (size_t c = 0; c < n_ce; ++c) {
      FlowEntry e;
      e.match.set(FieldId::kVlanVid, 100 + c);
      e.priority = 10;
      e.goto_table = static_cast<int16_t>(1 + c);
      t0.push_back(std::move(e));
    }
    FlowEntry down;  // catch-all: untagged network→user traffic
    down.priority = 5;
    down.goto_table = kGatewayDownstreamTable;
    t0.push_back(std::move(down));
    pl.table(0).replace_all(std::move(t0));
  }

  // Per-CE tables: identify users by private source IP, NAT to the public
  // address, strip the tag and route.  Misses go to the controller, which
  // does admission control (§4.1).
  for (size_t c = 0; c < n_ce; ++c) {
    std::vector<FlowEntry> tc;
    for (size_t u = 0; u < users_per_ce; ++u) {
      FlowEntry e;
      e.match.set(FieldId::kIpSrc, 0x0A000002u + static_cast<uint32_t>(u));
      e.priority = 10;
      e.actions = {Action::pop_vlan(),
                   Action::set_field(FieldId::kIpSrc,
                                     0x64400000u | static_cast<uint32_t>(c << 8) |
                                         static_cast<uint32_t>(u))};
      e.goto_table = kGatewayRoutingTable;
      tc.push_back(std::move(e));
    }
    auto& table = pl.table(static_cast<uint8_t>(1 + c));
    table.replace_all(std::move(tc));
    table.set_miss_policy(FlowTable::MissPolicy::kController);
  }

  // Routing table (LPM over the RIB) — reuse the L3 generator's table.
  UseCase l3 = make_l3(n_prefixes, seed * 31);
  pl.table(kGatewayRoutingTable)
      .replace_all(std::vector<FlowEntry>(l3.pipeline.table(0).entries()));

  // Downstream: public IP → restore private address + CE tag, out the CE port.
  {
    std::vector<FlowEntry> td;
    for (size_t c = 0; c < n_ce; ++c) {
      for (size_t u = 0; u < users_per_ce; ++u) {
        FlowEntry e;
        e.match.set(FieldId::kIpDst, 0x64400000u | static_cast<uint32_t>(c << 8) |
                                         static_cast<uint32_t>(u));
        e.priority = 10;
        e.actions = {Action::set_field(FieldId::kIpDst,
                                       0x0A000002u + static_cast<uint32_t>(u)),
                     Action::push_vlan(static_cast<uint16_t>(100 + c)),
                     Action::output(static_cast<uint32_t>(1 + c))};
        td.push_back(std::move(e));
      }
    }
    pl.table(kGatewayDownstreamTable).replace_all(std::move(td));
  }

  uc.traffic = [n_ce, users_per_ce, seed](size_t n_flows, uint64_t run_seed) {
    Rng rng(seed ^ (run_seed * 131));
    std::vector<FlowSpec> flows;
    flows.reserve(n_flows);
    for (size_t i = 0; i < n_flows; ++i) {
      // User→network: flows spread across users by varying L4 ports.
      const uint32_t ce = static_cast<uint32_t>(i % n_ce);
      const uint32_t user = static_cast<uint32_t>((i / n_ce) % users_per_ce);
      FlowSpec fs;
      fs.pkt.kind = proto::PacketKind::kUdp;
      fs.pkt.vlan_vid = static_cast<uint16_t>(100 + ce);
      fs.pkt.ip_src = 0x0A000002u + user;
      fs.pkt.ip_dst = static_cast<uint32_t>((1 + rng.below(222)) << 24 |
                                            (rng.next() & 0xFFFFFF));
      fs.pkt.sport = static_cast<uint16_t>(1024 + rng.below(60000));
      fs.pkt.dport = static_cast<uint16_t>(rng.below(0xFFFF));
      fs.in_port = 1 + ce;
      flows.push_back(std::move(fs));
    }
    return flows;
  };
  return uc;
}

Pipeline make_firewall_fig1a() {
  Pipeline pl;
  auto& t = pl.table(0);
  t.add(flow::parse_rule("priority=30,in_port=1,actions=output:2"));
  t.add(flow::parse_rule(
      "priority=20,in_port=2,ip_dst=192.0.2.1,tcp_dst=80,actions=output:1"));
  t.add(flow::parse_rule("priority=10,actions=drop"));
  return pl;
}

Pipeline make_firewall_fig1b() {
  Pipeline pl;
  auto& t0 = pl.table(0);
  t0.add(flow::parse_rule("priority=30,in_port=1,actions=output:2"));
  t0.add(flow::parse_rule("priority=20,in_port=2,actions=,goto:1"));
  auto& t1 = pl.table(1);
  t1.add(flow::parse_rule("priority=20,ip_dst=192.0.2.1,tcp_dst=80,actions=output:1"));
  t1.add(flow::parse_rule("priority=10,actions=drop"));
  return pl;
}

namespace {
// Fig. 3's port set: 191 = 10111111, and 191 with one extra zero bit at
// positions 3..8 (MSB numbering).
constexpr uint16_t kFig3Ports[] = {190, 189, 187, 183, 175, 159, 191};

FlowSpec fig3_flow(uint16_t port) {
  FlowSpec fs;
  fs.pkt.kind = proto::PacketKind::kUdp;
  fs.pkt.dport = port;
  fs.in_port = 1;
  return fs;
}
}  // namespace

Pipeline make_fig3_pipeline() {
  // Priority-ordered rules, each keyed by one zero bit of the 8-bit port
  // value: rule k matches "bit (9-k) from MSB is zero" (suffix-style single
  // bit masks), all with the same action.
  Pipeline pl;
  std::vector<FlowEntry> entries;
  for (unsigned k = 0; k < 7; ++k) {
    const uint16_t bit = static_cast<uint16_t>(1u << k);  // LSB upward
    FlowEntry e;
    e.match.set(FieldId::kUdpDst, 0, bit);  // that bit must be 0
    e.priority = static_cast<uint16_t>(100 - k);
    e.actions = {Action::output(1)};
    entries.push_back(std::move(e));
  }
  pl.table(0).replace_all(std::move(entries));
  return pl;
}

std::vector<FlowSpec> fig3_sequence_1() {
  std::vector<FlowSpec> fs;
  for (const uint16_t p : kFig3Ports) fs.push_back(fig3_flow(p));
  return fs;
}

std::vector<FlowSpec> fig3_sequence_2() {
  std::vector<FlowSpec> fs;
  fs.push_back(fig3_flow(191));
  for (const uint16_t p : kFig3Ports)
    if (p != 191) fs.push_back(fig3_flow(p));
  return fs;
}

FlowTable make_snort_like_acls(size_t n_rules, uint64_t seed) {
  // Snort community structure: overwhelmingly TCP toward a small HOME_NET,
  // classified by a modest set of service ports, with occasional source
  // qualifiers and a few obsolete/duplicate-ish variants.
  static const uint16_t kPorts[] = {80,  21,   25,   53,   110, 143,
                                    443, 445,  1433, 3306, 139, 8080};
  Rng rng(seed);
  FlowTable t(0);
  std::vector<FlowEntry> entries;
  for (size_t i = 0; i < n_rules; ++i) {
    Match m;
    m.set(FieldId::kIpProto, rng.chance(9, 10) ? 6 : 17);
    m.set(FieldId::kIpDst,
          rng.chance(4, 5) ? 0xC0A80001u : 0xC0A80000u + static_cast<uint32_t>(rng.below(4)));
    if (rng.chance(9, 10)) m.set(FieldId::kTcpDst, kPorts[rng.below(std::size(kPorts))]);
    if (rng.chance(1, 8)) m.set(FieldId::kTcpSrc, 1024 + rng.below(8));
    if (rng.chance(1, 8)) m.set(FieldId::kIpSrc, rng.below(4), 0xFFFFFFFF);
    FlowEntry e;
    e.match = m;
    e.priority = static_cast<uint16_t>(n_rules - i);
    e.actions = {rng.chance(1, 3) ? Action::drop() : Action::output(1)};
    entries.push_back(std::move(e));
  }
  t.replace_all(std::move(entries));
  return t;
}

// --- stateful use cases ------------------------------------------------------

namespace {

/// The shared stateful shape: inside traffic commits (with `profile`) and
/// forwards out; outside traffic needs the established bit to get in.
Pipeline ct_gate_pipeline(uint32_t profile) {
  std::vector<FlowEntry> entries;
  {
    FlowEntry fwd;
    fwd.match.set(FieldId::kInPort, kCtInsidePort);
    fwd.priority = 300;
    fwd.actions = {Action::ct_commit(profile), Action::output(kCtOutsidePort)};
    entries.push_back(std::move(fwd));
  }
  {
    FlowEntry est;
    est.match.set(FieldId::kInPort, kCtOutsidePort);
    est.match.set(FieldId::kCtState, state::kCtEstablished, state::kCtEstablished);
    est.priority = 200;
    est.actions = {Action::output(kCtInsidePort)};
    entries.push_back(std::move(est));
  }
  {
    FlowEntry drop;
    drop.priority = 100;
    drop.actions = {Action::drop()};
    entries.push_back(std::move(drop));
  }
  Pipeline pl;
  pl.table(0).replace_all(std::move(entries));
  return pl;
}

/// A deterministic inside-client TCP connection: (10.0.x.x, sport) toward a
/// 203.0.113.0/24 server on port 443.
FlowSpec ct_inside_flow(Rng& rng) {
  FlowSpec fs;
  fs.pkt.kind = proto::PacketKind::kTcp;
  fs.in_port = kCtInsidePort;
  fs.pkt.ip_src = 0x0A000000u | static_cast<uint32_t>(rng.below(1 << 16));
  fs.pkt.ip_dst = 0xCB007100u | static_cast<uint32_t>(rng.below(250));
  fs.pkt.sport = static_cast<uint16_t>(1024 + rng.below(60000));
  fs.pkt.dport = 443;
  fs.pkt.tcp_flags = proto::kTcpFlagSyn;
  return fs;
}

}  // namespace

CtUseCase make_ct_firewall(uint32_t capacity, uint64_t seed) {
  CtUseCase uc;
  uc.pipeline = ct_gate_pipeline(0);
  uc.ct.enabled = true;
  uc.ct.capacity = capacity;

  uc.traffic = [seed](size_t n_flows, uint64_t run_seed) {
    Rng rng(seed ^ (run_seed * 0x5DEECE66DULL));
    std::vector<FlowSpec> flows;
    flows.reserve(n_flows);
    for (size_t i = 0; i < n_flows; ++i) {
      FlowSpec fwd = ct_inside_flow(rng);
      if (rng.chance(1, 10)) {
        // Unsolicited outside probe: no entry will ever exist, must drop.
        fwd.in_port = kCtOutsidePort;
        fwd.pkt.tcp_flags = proto::kTcpFlagAck;
        flows.push_back(std::move(fwd));
      } else if (rng.chance(1, 4)) {
        // Reply of an inside flow generated in the same batch: round-robin
        // replay commits the forward packet before this one arrives, so the
        // firewall admits it as established.
        FlowSpec rep = fwd;
        rep.in_port = kCtOutsidePort;
        std::swap(rep.pkt.ip_src, rep.pkt.ip_dst);
        std::swap(rep.pkt.sport, rep.pkt.dport);
        rep.pkt.tcp_flags =
            static_cast<uint8_t>(proto::kTcpFlagSyn | proto::kTcpFlagAck);
        flows.push_back(std::move(fwd));
        if (flows.size() < n_flows) flows.push_back(std::move(rep));
        continue;
      } else {
        flows.push_back(std::move(fwd));
      }
    }
    return flows;
  };
  return uc;
}

CtUseCase make_ct_nat(uint32_t snat_ip, uint32_t capacity, uint64_t seed) {
  CtUseCase uc;
  uc.pipeline = ct_gate_pipeline(1);
  uc.ct.enabled = true;
  uc.ct.capacity = capacity;
  uc.ct.profiles.resize(2);
  uc.ct.profiles[1].kind = state::CtProfileConfig::Kind::kSnat;
  uc.ct.profiles[1].snat_ip = snat_ip;

  // Forward direction only: a reply's wire destination is the dynamically
  // allocated (snat_ip, port), which a pregenerated trace cannot know.
  // tests/test_conntrack.cpp covers the reply path via the live table.
  uc.traffic = [seed](size_t n_flows, uint64_t run_seed) {
    Rng rng(seed ^ (run_seed * 0x2545F4914F6CDD1DULL));
    std::vector<FlowSpec> flows;
    flows.reserve(n_flows);
    for (size_t i = 0; i < n_flows; ++i) flows.push_back(ct_inside_flow(rng));
    return flows;
  };
  return uc;
}

CtUseCase make_ct_lb(size_t n_backends, uint32_t capacity, uint64_t seed) {
  CtUseCase uc;
  uc.ct.enabled = true;
  uc.ct.capacity = capacity;
  uc.ct.profiles.resize(2);
  uc.ct.profiles[1].kind = state::CtProfileConfig::Kind::kLb;
  for (size_t i = 0; i < n_backends; ++i)
    uc.ct.profiles[1].backends.emplace_back(
        kCtLbBackendBase + static_cast<uint32_t>(i), kCtLbBackendPort);

  std::vector<FlowEntry> entries;
  {
    FlowEntry vip;  // client SYNs and all later forward packets (wire dst=VIP)
    vip.match.set(FieldId::kInPort, kCtInsidePort);
    vip.match.set(FieldId::kIpDst, kCtLbVip);
    vip.match.set(FieldId::kTcpDst, kCtLbVipPort);
    vip.priority = 300;
    vip.actions = {Action::ct_commit(1), Action::output(kCtOutsidePort)};
    entries.push_back(std::move(vip));
  }
  {
    FlowEntry est;  // backend replies, un-NATed to the VIP by the post-stage
    est.match.set(FieldId::kInPort, kCtOutsidePort);
    est.match.set(FieldId::kCtState, state::kCtEstablished, state::kCtEstablished);
    est.priority = 200;
    est.actions = {Action::output(kCtInsidePort)};
    entries.push_back(std::move(est));
  }
  {
    FlowEntry drop;
    drop.priority = 100;
    drop.actions = {Action::drop()};
    entries.push_back(std::move(drop));
  }
  uc.pipeline.table(0).replace_all(std::move(entries));

  uc.traffic = [seed](size_t n_flows, uint64_t run_seed) {
    Rng rng(seed ^ (run_seed * 0x9E3779B9ULL));
    std::vector<FlowSpec> flows;
    flows.reserve(n_flows);
    for (size_t i = 0; i < n_flows; ++i) {
      FlowSpec fs;
      fs.pkt.kind = proto::PacketKind::kTcp;
      fs.in_port = kCtInsidePort;
      fs.pkt.ip_src = static_cast<uint32_t>(rng.next());
      fs.pkt.ip_dst = kCtLbVip;
      fs.pkt.sport = static_cast<uint16_t>(1024 + rng.below(60000));
      fs.pkt.dport = kCtLbVipPort;
      fs.pkt.tcp_flags = proto::kTcpFlagSyn;
      flows.push_back(std::move(fs));
    }
    return flows;
  };
  return uc;
}

}  // namespace esw::uc
