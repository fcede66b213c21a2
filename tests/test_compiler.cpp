#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/eswitch.hpp"
#include "test_util.hpp"

namespace esw {
namespace {

using namespace esw::core;
using namespace esw::flow;
using test::ip;
using test::make_packet;

Pipeline firewall_pipeline() {
  Pipeline pl;
  auto& t0 = pl.table(0);
  t0.add(parse_rule("priority=30,in_port=1,actions=output:2"));
  t0.add(parse_rule("priority=20,in_port=2,actions=,goto:1"));
  auto& t1 = pl.table(1);
  t1.add(parse_rule("priority=20,ip_dst=192.0.2.1,tcp_dst=80,actions=output:1"));
  t1.add(parse_rule("priority=10,actions=drop"));
  return pl;
}

TEST(Compiler, FirewallEndToEnd) {
  for (const bool jit : {true, false}) {
    CompilerConfig cfg;
    cfg.enable_jit = jit;
    Eswitch sw(cfg);
    sw.install(firewall_pipeline());
    EXPECT_EQ(sw.table_template(0), TableTemplate::kDirectCode);

    auto internal = make_packet(test::tcp_spec(ip("192.0.2.1"), 9, 80, 7777), 1);
    auto http = make_packet(test::tcp_spec(9, ip("192.0.2.1"), 7777, 80), 2);
    auto ssh = make_packet(test::tcp_spec(9, ip("192.0.2.1"), 7777, 22), 2);
    EXPECT_EQ(sw.process(internal), Verdict::output(2)) << "jit=" << jit;
    EXPECT_EQ(sw.process(http), Verdict::output(1)) << "jit=" << jit;
    EXPECT_EQ(sw.process(ssh), Verdict::drop()) << "jit=" << jit;
  }
}

TEST(Compiler, TemplateSelectionPerUseCase) {
  // L2 MAC table -> compound hash ("effectively reducing into a conventional
  // Ethernet software switch").
  Pipeline l2;
  for (int i = 0; i < 100; ++i) {
    FlowEntry e;
    e.match.set(FieldId::kEthDst, 0x020000000000ULL + i);
    e.priority = 5;
    e.actions = {Action::output(static_cast<uint32_t>(i % 4))};
    l2.table(0).add(e);
  }
  Eswitch sw_l2;
  sw_l2.install(l2);
  EXPECT_EQ(sw_l2.table_template(0), TableTemplate::kCuckooHash);

  // L3 routing table -> LPM ("a datapath identical to that of an IP
  // softrouter").
  Pipeline l3;
  for (int i = 0; i < 64; ++i) {
    FlowEntry e;
    e.match.set(FieldId::kIpDst, static_cast<uint32_t>(i) << 24, 0xFF000000);
    e.priority = 8;
    e.actions = {Action::output(1)};
    l3.table(0).add(e);
  }
  for (int i = 0; i < 64; ++i) {
    FlowEntry e;
    e.match.set(FieldId::kIpDst, (10u << 24) | (static_cast<uint32_t>(i) << 8),
                0xFFFFFF00);
    e.priority = 24;
    e.actions = {Action::output(2)};
    l3.table(0).add(e);
  }
  Eswitch sw_l3;
  sw_l3.install(l3);
  EXPECT_EQ(sw_l3.table_template(0), TableTemplate::kLpm);

  auto deep = make_packet(test::udp_spec(1, (10u << 24) | (3u << 8) | 9, 5, 5));
  auto shallow = make_packet(test::udp_spec(1, (11u << 24) | 123, 5, 5));
  EXPECT_EQ(sw_l3.process(deep), Verdict::output(2));
  EXPECT_EQ(sw_l3.process(shallow), Verdict::output(1));
}

TEST(Compiler, MissPolicyPerTable) {
  Pipeline pl;
  pl.table(0).set_miss_policy(FlowTable::MissPolicy::kController);
  pl.table(0).add(parse_rule("priority=5,udp_dst=53,actions=output:1"));
  Eswitch sw;
  sw.install(pl);
  auto dns = make_packet(test::udp_spec(1, 2, 9, 53));
  auto other = make_packet(test::udp_spec(1, 2, 9, 54));
  EXPECT_EQ(sw.process(dns), Verdict::output(1));
  EXPECT_EQ(sw.process(other), Verdict::controller());
  EXPECT_EQ(sw.datapath().stats().to_controller, 1u);
}

TEST(Compiler, ParserPlanSpecialization) {
  // Pure L2 pipeline: parser must skip L3/L4 entirely.
  Pipeline l2;
  FlowEntry e;
  e.match.set(FieldId::kEthDst, 0x0A);
  e.actions = {Action::output(1)};
  l2.table(0).add(e);
  Eswitch sw;
  sw.install(l2);
  EXPECT_FALSE(sw.datapath().plan().need_l3);
  EXPECT_FALSE(sw.datapath().plan().need_l4);

  // Adding an L4-matching rule widens the plan.
  FlowMod fm;
  fm.table_id = 0;
  fm.priority = 9;
  fm.match.set(FieldId::kTcpDst, 80);
  fm.actions = {Action::drop()};
  sw.apply(fm);
  EXPECT_TRUE(sw.datapath().plan().need_l3);
  EXPECT_TRUE(sw.datapath().plan().need_l4);

  // Combined-parser mode never specializes.
  CompilerConfig cfg;
  cfg.specialize_parser = false;
  Eswitch sw2(cfg);
  sw2.install(l2);
  EXPECT_TRUE(sw2.datapath().plan().need_l4);
}

TEST(Compiler, SetFieldActionWidensPlan) {
  Pipeline pl;
  FlowEntry e;  // L2 match but NAT-style action needs L3 parsed
  e.match.set(FieldId::kInPort, 1);
  e.actions = {Action::set_field(FieldId::kIpSrc, ip("10.0.0.9")), Action::output(2)};
  pl.table(0).add(e);
  Eswitch sw;
  sw.install(pl);
  EXPECT_TRUE(sw.datapath().plan().need_l3);

  auto p = make_packet(test::udp_spec(ip("10.9.9.9"), ip("10.0.0.1"), 5, 6), 1);
  EXPECT_EQ(sw.process(p), Verdict::output(2));
  auto pi = test::parse_packet(p);
  EXPECT_EQ(extract_field(FieldId::kIpSrc, p.data(), pi), ip("10.0.0.9"));
}

TEST(Compiler, ActionSetsSharedAcrossFlows) {
  Pipeline pl;
  for (int i = 0; i < 50; ++i) {
    FlowEntry e;
    e.match.set(FieldId::kUdpDst, static_cast<uint64_t>(i));
    e.priority = 5;
    e.actions = {Action::output(1)};  // identical for all flows
    pl.table(0).add(e);
  }
  Eswitch sw;
  sw.install(pl);
  EXPECT_EQ(sw.datapath().actions().size(), 1u);
}

TEST(Compiler, GotoChainsAcrossManyTables) {
  Pipeline pl;
  const int kStages = 12;  // NVP-style deep pipeline (§2: "more than a dozen")
  for (int t = 0; t < kStages; ++t) {
    FlowEntry e;
    e.match.set(FieldId::kInPort, 1);
    e.priority = 5;
    if (t < kStages - 1)
      e.goto_table = static_cast<int16_t>(t + 1);
    else
      e.actions = {Action::output(42)};
    pl.table(static_cast<uint8_t>(t)).add(e);
  }
  Eswitch sw;
  sw.install(pl);
  auto p = make_packet(test::udp_spec(1, 2, 3, 4), 1);
  EXPECT_EQ(sw.process(p), Verdict::output(42));
  // Every stage consulted exactly once.
  for (int t = 0; t < kStages; ++t)
    EXPECT_EQ(sw.datapath().table_stats(sw.root_slot(static_cast<uint8_t>(t))).lookups, 1u);
}

TEST(Compiler, WriteActionsMergeAcrossStages) {
  Pipeline pl;
  FlowEntry a;
  a.match.set(FieldId::kInPort, 1);
  a.actions = {Action::output(1), Action::set_field(FieldId::kIpTtl, 7)};
  a.goto_table = 1;
  pl.table(0).add(a);
  FlowEntry b;  // later stage overrides the output, keeps the set-field
  b.actions = {Action::output(9)};
  pl.table(1).add(b);

  Eswitch sw;
  sw.install(pl);
  auto p = make_packet(test::udp_spec(1, 2, 3, 4), 1);
  EXPECT_EQ(sw.process(p), Verdict::output(9));
  auto pi = test::parse_packet(p);
  EXPECT_EQ(extract_field(FieldId::kIpTtl, p.data(), pi), 7u);
}

// The global differential test: random multi-table pipelines, random traffic,
// ESWITCH (all templates, JIT on/off) must equal the reference interpreter.
TEST(Compiler, PropertyDatapathEquivalentToInterpreter) {
  Rng rng(0xE5A);
  for (int round = 0; round < 12; ++round) {
    Pipeline pl;
    const int n_tables = 1 + static_cast<int>(rng.below(3));
    for (int t = 0; t < n_tables; ++t) {
      const int n_entries = 1 + static_cast<int>(rng.below(14));
      for (int i = 0; i < n_entries; ++i) {
        Match m;
        if (rng.chance(1, 2)) m.set(FieldId::kInPort, rng.below(3));
        if (rng.chance(1, 2)) m.set(FieldId::kUdpDst, 40 + rng.below(5));
        if (rng.chance(1, 3)) m.set(FieldId::kIpDst, rng.below(4) << 8, 0xFFFFFF00);
        if (rng.chance(1, 4)) m.set(FieldId::kEthDst, rng.below(3));
        if (rng.chance(1, 5)) m.set(FieldId::kIpProto, 17);
        FlowEntry e;
        e.match = m;
        e.priority = static_cast<uint16_t>(2000 - i * 2);  // unique per table
        if (t + 1 < n_tables && rng.chance(1, 3))
          e.goto_table = static_cast<int16_t>(t + 1);
        else
          e.actions = {Action::output(static_cast<uint32_t>(rng.below(5)))};
        pl.table(static_cast<uint8_t>(t)).add(e);
      }
      if (rng.chance(1, 3))
        pl.table(static_cast<uint8_t>(t))
            .set_miss_policy(FlowTable::MissPolicy::kController);
    }

    CompilerConfig cfg;
    cfg.enable_jit = rng.chance(1, 2);
    cfg.enable_decomposition = rng.chance(1, 2);
    cfg.direct_code_max_entries = 1 + static_cast<uint32_t>(rng.below(6));
    Eswitch sw(cfg);
    sw.install(pl);

    for (int q = 0; q < 400; ++q) {
      auto spec = test::udp_spec(static_cast<uint32_t>(rng.next()),
                                 static_cast<uint32_t>((rng.below(4) << 8) | rng.below(3)),
                                 static_cast<uint16_t>(rng.next()),
                                 static_cast<uint16_t>(40 + rng.below(7)));
      spec.eth_dst = rng.below(4);
      auto p1 = make_packet(spec, static_cast<uint32_t>(rng.below(4)));
      auto p2 = make_packet(spec, p1.in_port());
      const Verdict got = sw.process(p1);
      const Verdict want = pl.run(p2);
      ASSERT_EQ(got, want) << "round " << round << " q " << q << " jit "
                           << cfg.enable_jit << " dec " << cfg.enable_decomposition;
      // Packet mutations must match too.
      ASSERT_EQ(p1.len(), p2.len());
      ASSERT_EQ(std::memcmp(p1.data(), p2.data(), p1.len()), 0);
    }
  }
}

}  // namespace
}  // namespace esw
