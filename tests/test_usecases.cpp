#include <gtest/gtest.h>

#include "core/eswitch.hpp"
#include "test_util.hpp"
#include "usecases/of_agent.hpp"
#include "usecases/usecases.hpp"

namespace esw {
namespace {

using namespace esw::flow;
using core::Eswitch;
using core::TableTemplate;
using test::ip;
using test::make_packet;

TEST(UseCases, L2CompilesToHashAndForwards) {
  const auto uc = uc::make_l2(100);
  Eswitch sw;
  sw.install(uc.pipeline);
  EXPECT_EQ(sw.table_template(0), TableTemplate::kCuckooHash);

  const auto flows = uc.traffic(1000, 7);
  ASSERT_EQ(flows.size(), 1000u);
  const auto ts = net::TrafficSet::from_flows(flows);
  net::Packet p;
  for (size_t i = 0; i < 1000; ++i) {
    ts.load(i, p);
    const Verdict v = sw.process(p);
    ASSERT_EQ(v.kind, Verdict::Kind::kOutput) << i;  // aligned: no misses
  }
}

TEST(UseCases, L3CompilesToLpmAndForwards) {
  const auto uc = uc::make_l3(1000);
  Eswitch sw;
  sw.install(uc.pipeline);
  EXPECT_EQ(sw.table_template(0), TableTemplate::kLpm);

  const auto ts = net::TrafficSet::from_flows(uc.traffic(500, 3));
  net::Packet p;
  for (size_t i = 0; i < 500; ++i) {
    ts.load(i, p);
    ASSERT_EQ(sw.process(p).kind, Verdict::Kind::kOutput) << i;
  }
  // ESWITCH verdicts equal the reference interpreter's.
  for (size_t i = 0; i < 200; ++i) {
    net::Packet a, b;
    ts.load(i, a);
    ts.load(i, b);
    ASSERT_EQ(sw.process(a), uc.pipeline.run(b));
  }
}

TEST(UseCases, LoadBalancerSplitsOnSourceBit) {
  const auto uc = uc::make_load_balancer(10);
  Eswitch sw;
  sw.install(uc.pipeline);

  auto low = make_packet(test::tcp_spec(0x10000001, 0x0A010003, 5, 80), 1);
  auto high = make_packet(test::tcp_spec(0x90000001, 0x0A010003, 5, 80), 1);
  auto junk = make_packet(test::tcp_spec(0x10000001, 0x0A010003, 5, 81), 1);
  auto reverse = make_packet(test::tcp_spec(0x0A010003, 0x10000001, 80, 5), 16);
  EXPECT_EQ(sw.process(low), Verdict::output(10 + 2 * 3));
  EXPECT_EQ(sw.process(high), Verdict::output(11 + 2 * 3));
  EXPECT_EQ(sw.process(junk), Verdict::drop());
  EXPECT_EQ(sw.process(reverse), Verdict::output(1));
}

TEST(UseCases, LoadBalancerDecompositionPromotesTemplates) {
  // A naive compiler would put the single-stage LB table into the linked
  // list; decomposition promotes it to direct-code/hash stages (§4.1).
  const auto uc = uc::make_load_balancer(50);
  core::CompilerConfig plain;
  Eswitch naive(plain);
  naive.install(uc.pipeline);
  EXPECT_EQ(naive.table_template(0), TableTemplate::kLinkedList);
  EXPECT_FALSE(naive.is_decomposed(0));

  core::CompilerConfig cfg;
  cfg.enable_decomposition = true;
  Eswitch sw(cfg);
  sw.install(uc.pipeline);
  EXPECT_TRUE(sw.is_decomposed(0));
  EXPECT_NE(sw.table_template(0), TableTemplate::kLinkedList);

  // Same behavior under both compilations.
  const auto ts = net::TrafficSet::from_flows(uc.traffic(300, 5));
  net::Packet a, b;
  for (size_t i = 0; i < 300; ++i) {
    ts.load(i, a);
    ts.load(i, b);
    ASSERT_EQ(sw.process(a), naive.process(b)) << i;
  }
}

TEST(UseCases, GatewayNatsAndRoutes) {
  const auto uc = uc::make_gateway(10, 20, 1000);
  Eswitch sw;
  sw.install(uc.pipeline);
  // Table 0 & per-CE & downstream tables are hash templates; the routing
  // table is LPM — the compilation the paper describes for this use case.
  EXPECT_EQ(sw.table_template(0), TableTemplate::kCuckooHash);
  EXPECT_EQ(sw.table_template(1), TableTemplate::kCuckooHash);
  EXPECT_EQ(sw.table_template(uc::kGatewayRoutingTable), TableTemplate::kLpm);
  EXPECT_EQ(sw.table_template(uc::kGatewayDownstreamTable),
            TableTemplate::kCuckooHash);

  // Upstream: user 3 behind CE 2 sends to the Internet.
  proto::PacketSpec spec = test::udp_spec(0x0A000002 + 3, ip("93.184.216.34"), 777, 53);
  spec.vlan_vid = 102;
  auto p = make_packet(spec, 3);
  const Verdict v = sw.process(p);
  EXPECT_EQ(v.kind, Verdict::Kind::kOutput);
  auto pi = test::parse_packet(p);
  EXPECT_FALSE(pi.has(proto::kProtoVlan));  // tag stripped
  EXPECT_EQ(extract_field(FieldId::kIpSrc, p.data(), pi),
            0x64400000u | (2u << 8) | 3u);  // NAT applied

  // Downstream: reply to the public address maps back.
  auto r = make_packet(
      test::udp_spec(ip("93.184.216.34"), 0x64400000u | (2u << 8) | 3u, 53, 777),
      uc::kGatewayNetPort);
  const Verdict rv = sw.process(r);
  EXPECT_EQ(rv, Verdict::output(1 + 2));
  auto rpi = test::parse_packet(r);
  EXPECT_TRUE(rpi.has(proto::kProtoVlan));
  EXPECT_EQ(extract_field(FieldId::kVlanVid, r.data(), rpi), 102u);
  EXPECT_EQ(extract_field(FieldId::kIpDst, r.data(), rpi), 0x0A000002u + 3);

  // Unknown user: admission control -> controller.
  proto::PacketSpec bad = test::udp_spec(0x0A0000FF, ip("1.1.1.1"), 7, 7);
  bad.vlan_vid = 101;
  auto pb = make_packet(bad, 2);
  EXPECT_EQ(sw.process(pb), Verdict::controller());
}

TEST(UseCases, GatewayTrafficDiversity) {
  const auto uc = uc::make_gateway(10, 20, 100);
  const auto flows = uc.traffic(1000, 1);
  ASSERT_EQ(flows.size(), 1000u);
  // Flows must cover all CEs and users.
  std::set<uint32_t> ports;
  for (const auto& f : flows) ports.insert(f.in_port);
  EXPECT_EQ(ports.size(), 10u);
}

TEST(UseCases, FirewallVariantsEquivalent) {
  Eswitch a, b;
  a.install(uc::make_firewall_fig1a());
  b.install(uc::make_firewall_fig1b());
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    auto spec = test::tcp_spec(static_cast<uint32_t>(rng.next()),
                               rng.chance(1, 2) ? ip("192.0.2.1") : ip("9.9.9.9"),
                               static_cast<uint16_t>(rng.next()),
                               rng.chance(1, 2) ? 80 : 22);
    auto p1 = make_packet(spec, 1 + rng.below(2));
    auto p2 = make_packet(spec, p1.in_port());
    ASSERT_EQ(a.process(p1), b.process(p2));
  }
}

TEST(UseCases, SnortAclsDecomposeBelowRuleCount) {
  // §3.2: "with the active 72 rules we obtained only 50 separate tables",
  // 369 -> 197.  Shape: tables < rules at both scales.
  for (const size_t n : {size_t{72}, size_t{369}}) {
    const auto acls = uc::make_snort_like_acls(n);
    const auto d = core::decompose(acls);
    EXPECT_GT(d.tables.size(), 1u) << n;
    EXPECT_LT(d.tables.size(), n) << n;
  }
}

TEST(UseCases, AgentSessionDeliversFlowMods) {
  Eswitch sw;
  sw.install(Pipeline{});
  uc::OfAgent agent(uc::make_dataplane_callbacks(sw));
  uc::OfController ctrl(agent.controller_fd());
  uc::run_handshake(agent, ctrl);

  FlowMod fm;
  fm.table_id = 0;
  fm.priority = 5;
  fm.match.set(FieldId::kUdpDst, 53);
  fm.actions = {Action::output(2)};
  ctrl.send_flow_mod(fm);
  agent.poll();
  EXPECT_EQ(agent.stats().flow_mods, 1u);
  EXPECT_GT(ctrl.bytes(), 0u);

  auto p = make_packet(test::udp_spec(1, 2, 9, 53));
  EXPECT_EQ(sw.process(p), Verdict::output(2));
}

}  // namespace
}  // namespace esw
