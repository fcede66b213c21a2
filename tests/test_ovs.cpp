#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ovs/ovs_switch.hpp"
#include "test_util.hpp"
#include "usecases/usecases.hpp"

namespace esw {
namespace {

using namespace esw::flow;
using ovs::MegaflowMode;
using ovs::OvsSwitch;
using test::ip;
using test::make_packet;

Pipeline simple_pipeline() {
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=20,tcp_dst=80,actions=output:1"));
  pl.table(0).add(parse_rule("priority=10,ip_dst=10.0.0.0/8,actions=output:2"));
  pl.table(0).add(parse_rule("priority=1,actions=drop"));
  return pl;
}

TEST(Ovs, CacheHierarchyProgression) {
  OvsSwitch sw;
  sw.install(simple_pipeline());

  auto p1 = make_packet(test::tcp_spec(1, 2, 1000, 80));
  EXPECT_EQ(sw.process(p1), Verdict::output(1));
  EXPECT_EQ(sw.cache_stats().upcalls, 1u);  // first packet: slow path

  // Same flow again: microflow hit.
  auto p2 = make_packet(test::tcp_spec(1, 2, 1000, 80));
  EXPECT_EQ(sw.process(p2), Verdict::output(1));
  EXPECT_EQ(sw.cache_stats().microflow_hits, 1u);

  // Same megaflow, different microflow (source port differs): megaflow hit.
  auto p3 = make_packet(test::tcp_spec(1, 2, 2000, 80));
  EXPECT_EQ(sw.process(p3), Verdict::output(1));
  EXPECT_EQ(sw.cache_stats().megaflow_hits, 1u);
  EXPECT_EQ(sw.cache_stats().upcalls, 1u);
}

TEST(Ovs, TtlChangeMissesMicroflow) {
  // §2.2: "essentially any change in the packet header inside an established
  // flow (e.g., the IP TTL field) results in a cache miss" at the microflow
  // level.
  OvsSwitch sw;
  sw.install(simple_pipeline());
  auto spec = test::tcp_spec(1, 2, 1000, 80);
  spec.ip_ttl = 64;
  auto p1 = make_packet(spec);
  sw.process(p1);
  auto p2 = make_packet(spec);
  sw.process(p2);
  EXPECT_EQ(sw.cache_stats().microflow_hits, 1u);

  spec.ip_ttl = 63;  // TTL changed: same megaflow, microflow miss
  auto p3 = make_packet(spec);
  sw.process(p3);
  EXPECT_EQ(sw.cache_stats().microflow_hits, 1u);
  EXPECT_EQ(sw.cache_stats().megaflow_hits, 1u);
}

TEST(Ovs, MegaflowAggregatesHighPortEntropy) {
  // The pipeline does not match on tcp_src, so one megaflow covers all
  // source ports of the same service flow.
  OvsSwitch::Config cfg;
  cfg.enable_microflow = false;
  OvsSwitch sw(cfg);
  sw.install(simple_pipeline());
  for (uint16_t sport = 1; sport <= 100; ++sport) {
    auto p = make_packet(test::tcp_spec(7, 8, sport, 80));
    ASSERT_EQ(sw.process(p), Verdict::output(1));
  }
  EXPECT_EQ(sw.cache_stats().upcalls, 1u);
  EXPECT_EQ(sw.megaflow().size(), 1u);
}

TEST(Ovs, HighPriorityRuleUnwildcardsConsidered) {
  // A fine-grained higher-priority rule "punches a hole" in the aggregates:
  // packets that don't match it still carry its fields in their megaflow.
  OvsSwitch::Config cfg;
  cfg.enable_microflow = false;
  OvsSwitch sw(cfg);
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=20,tcp_src=666,tcp_dst=80,actions=drop"));
  pl.table(0).add(parse_rule("priority=10,tcp_dst=80,actions=output:1"));
  pl.table(0).add(parse_rule("priority=1,actions=drop"));
  sw.install(pl);

  // 50 source ports now need 50 megaflows (tcp_src was considered).
  for (uint16_t sport = 1; sport <= 50; ++sport) {
    auto p = make_packet(test::tcp_spec(7, 8, sport, 80));
    ASSERT_EQ(sw.process(p), Verdict::output(1));
  }
  EXPECT_EQ(sw.megaflow().size(), 50u);
  EXPECT_EQ(sw.cache_stats().upcalls, 50u);
}

TEST(Ovs, UpdateInvalidatesWholeCache) {
  OvsSwitch sw;
  sw.install(simple_pipeline());
  for (uint16_t sport = 1; sport <= 20; ++sport) {
    auto p = make_packet(test::tcp_spec(7, 8, sport, 80));
    sw.process(p);
  }
  EXPECT_GT(sw.megaflow().size(), 0u);

  sw.add_flow(0, parse_rule("priority=30,tcp_dst=81,actions=output:3"));
  EXPECT_EQ(sw.megaflow().size(), 0u);  // brute-force invalidation

  // Old traffic must repopulate through the slow path (and stay correct).
  auto p = make_packet(test::tcp_spec(7, 8, 1, 80));
  const auto upcalls_before = sw.cache_stats().upcalls;
  EXPECT_EQ(sw.process(p), Verdict::output(1));
  EXPECT_EQ(sw.cache_stats().upcalls, upcalls_before + 1);
}

TEST(Ovs, FlowLimitEvictsAndStampsProtectMicroflow) {
  OvsSwitch::Config cfg;
  cfg.megaflow_flow_limit = 8;
  OvsSwitch sw(cfg);
  Pipeline pl;  // an exact tcp_src rule unwildcards the port: one megaflow
  pl.table(0).add(parse_rule("priority=10,tcp_src=9999,actions=output:1"));  // per flow
  pl.table(0).add(parse_rule("priority=5,actions=output:2"));
  sw.install(pl);

  for (uint16_t sport = 0; sport < 64; ++sport) {
    auto p = make_packet(test::tcp_spec(7, 8, sport, 80));
    ASSERT_EQ(sw.process(p), Verdict::output(2));
  }
  EXPECT_LE(sw.megaflow().size(), 8u);
  EXPECT_GT(sw.megaflow().evictions(), 0u);

  // Revisit the earliest flow: its megaflow was evicted; the stale microflow
  // pointer must not resurrect it.
  auto p = make_packet(test::tcp_spec(7, 8, 0, 80));
  EXPECT_EQ(sw.process(p), Verdict::output(2));
}

TEST(Ovs, MissCachesDropMegaflow) {
  OvsSwitch::Config cfg;
  cfg.enable_microflow = false;
  OvsSwitch sw(cfg);
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=10,tcp_dst=80,actions=output:1"));
  sw.install(pl);

  auto p1 = make_packet(test::tcp_spec(1, 2, 3, 81));
  EXPECT_EQ(sw.process(p1), Verdict::drop());
  auto p2 = make_packet(test::tcp_spec(1, 2, 3, 81));
  EXPECT_EQ(sw.process(p2), Verdict::drop());
  EXPECT_EQ(sw.cache_stats().upcalls, 1u);  // the drop decision was cached

  // Non-IP traffic must not be swallowed by the drop megaflow's wildcard:
  // protocol fields are always unwildcarded in union mode.
  proto::PacketSpec arp;
  arp.kind = proto::PacketKind::kArp;
  auto p3 = make_packet(arp);
  EXPECT_EQ(sw.process(p3), Verdict::drop());
  EXPECT_EQ(sw.cache_stats().upcalls, 2u);  // distinct megaflow, not a false hit
}

TEST(Ovs, Fig3OrderDependence) {
  // The paper's Fig. 3: same table, same 7 packets — 7 megaflow entries under
  // arrival sequence 1, a single entry under sequence 2.
  for (const bool seq2_first : {false, true}) {
    OvsSwitch::Config cfg;
    cfg.enable_microflow = false;
    cfg.megaflow_mode = MegaflowMode::kMinimal;
    OvsSwitch sw(cfg);
    sw.install(uc::make_fig3_pipeline());

    const auto seq = seq2_first ? uc::fig3_sequence_2() : uc::fig3_sequence_1();
    for (const auto& fs : seq) {
      auto p = test::make_packet(fs.pkt, fs.in_port);
      ASSERT_EQ(sw.process(p), Verdict::output(1));
    }
    if (seq2_first)
      EXPECT_EQ(sw.megaflow().size(), 1u);  // "only a single entry arises"
    else
      EXPECT_EQ(sw.megaflow().size(), 7u);  // "yields 7 megaflow cache entries"
  }
}

TEST(Ovs, NatActionsReplayFromCache) {
  // Cached megaflows must replay packet mutations, not just the verdict.
  OvsSwitch sw;
  Pipeline pl;
  pl.table(0).add(parse_rule(
      "priority=10,ip_src=10.0.0.2,actions=set_field:ip_src=100.64.0.1,output:1"));
  sw.install(pl);

  for (int i = 0; i < 3; ++i) {
    auto p = make_packet(test::udp_spec(ip("10.0.0.2"), ip("8.8.8.8"), 5, 6));
    EXPECT_EQ(sw.process(p), Verdict::output(1));
    auto pi = test::parse_packet(p);
    EXPECT_EQ(extract_field(FieldId::kIpSrc, p.data(), pi), ip("100.64.0.1"));
  }
  EXPECT_EQ(sw.cache_stats().upcalls, 1u);
  EXPECT_EQ(sw.cache_stats().microflow_hits, 2u);
}

// Property: whatever the cache state, OVS-model verdicts equal the reference
// interpreter's on random pipelines and random traffic.
TEST(Ovs, PropertyEquivalentToInterpreter) {
  Rng rng(0x0755);
  for (int round = 0; round < 10; ++round) {
    Pipeline pl;
    const int n_tables = 1 + static_cast<int>(rng.below(2));
    for (int t = 0; t < n_tables; ++t) {
      const int n = 1 + static_cast<int>(rng.below(10));
      for (int i = 0; i < n; ++i) {
        Match m;
        if (rng.chance(1, 2)) m.set(FieldId::kUdpDst, 40 + rng.below(5));
        if (rng.chance(1, 3)) m.set(FieldId::kIpDst, rng.below(3) << 8, 0xFFFFFF00);
        if (rng.chance(1, 3)) m.set(FieldId::kTcpDst, 80 + rng.below(2));
        if (rng.chance(1, 4)) m.set(FieldId::kInPort, rng.below(2));
        FlowEntry e;
        e.match = m;
        e.priority = static_cast<uint16_t>(500 - i);
        if (t + 1 < n_tables && rng.chance(1, 4))
          e.goto_table = static_cast<int16_t>(t + 1);
        else
          e.actions = {Action::output(static_cast<uint32_t>(rng.below(4)))};
        pl.table(static_cast<uint8_t>(t)).add(e);
      }
    }
    OvsSwitch::Config cfg;
    cfg.megaflow_flow_limit = 16;  // stress eviction paths
    cfg.enable_microflow = rng.chance(1, 2);
    OvsSwitch sw(cfg);
    sw.install(pl);

    for (int q = 0; q < 500; ++q) {
      proto::PacketSpec spec;
      spec.kind = rng.chance(1, 2) ? proto::PacketKind::kUdp : proto::PacketKind::kTcp;
      spec.ip_dst = static_cast<uint32_t>((rng.below(4) << 8) | rng.below(2));
      spec.sport = static_cast<uint16_t>(rng.below(3));
      spec.dport = static_cast<uint16_t>(40 + rng.below(45));
      auto p1 = make_packet(spec, static_cast<uint32_t>(rng.below(3)));
      auto p2 = make_packet(spec, p1.in_port());
      ASSERT_EQ(sw.process(p1), pl.run(p2)) << "round " << round << " q " << q;
      ASSERT_EQ(std::memcmp(p1.data(), p2.data(), p1.len()), 0);
    }
  }
}

TEST(Ovs, ModifyKeepsEqualPriorityOrder) {
  // A flow-mod replace keeps the rule's place ahead of a later overlapping
  // rule of the same priority, as in the reference flow table.
  OvsSwitch sw;
  sw.install(Pipeline{});
  Pipeline ref;
  for (const char* rule : {"priority=10,udp_dst=5,actions=output:1",
                           "priority=10,ip_src=10.0.0.1,actions=output:2",
                           "priority=10,udp_dst=5,actions=output:3"}) {
    sw.add_flow(0, parse_rule(rule));
    ref.table(0).add(parse_rule(rule));
  }
  auto p1 = make_packet(test::udp_spec(ip("10.0.0.1"), 2, 9, 5));
  auto p2 = p1;
  EXPECT_EQ(ref.run(p2), Verdict::output(3));
  EXPECT_EQ(sw.process(p1), Verdict::output(3));
}

TEST(Ovs, OrderSurvives64KAdds) {
  // Equal-priority order rides a 64-bit insertion sequence: 64K add/remove
  // pairs later, a new overlapping rule still ranks behind the older one.
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=20,udp_src=0x100/0x100,actions=output:9"));
  pl.table(0).add(parse_rule("priority=10,udp_dst=5,actions=output:1"));
  pl.table(0).add(parse_rule("priority=1,actions=drop"));
  OvsSwitch sw;
  sw.install(pl);
  // The build ranked three entries; this many more adds would wrap a 16-bit
  // sequence to 0, ahead of the udp_dst=5 rule.
  const FlowEntry churn = parse_rule("priority=10,udp_dst=7,actions=output:4");
  for (int i = 0; i < 65536 - 3; ++i) {
    sw.add_flow(0, churn);
    sw.remove_flow(0, churn.match, churn.priority);
  }
  const FlowEntry newer = parse_rule("priority=10,ip_src=10.0.0.1,actions=output:2");
  sw.add_flow(0, newer);
  pl.table(0).add(newer);

  auto p1 = make_packet(test::udp_spec(ip("10.0.0.1"), 2, 9, 5));
  auto p2 = p1;
  EXPECT_EQ(pl.run(p2), Verdict::output(1));
  EXPECT_EQ(sw.process(p1), Verdict::output(1));
}

// Property: flow-mod churn with re-adds (modifies) and a small priority set
// keeps the OVS model equal to the reference interpreter.
TEST(Ovs, ChurnWithModifiesEquivalentToInterpreter) {
  Rng rng(0x0756);
  OvsSwitch::Config cfg;
  cfg.megaflow_flow_limit = 16;
  OvsSwitch sw(cfg);
  sw.install(Pipeline{});
  Pipeline ref;
  std::vector<FlowEntry> live;
  for (int op = 0; op < 300; ++op) {
    if (!live.empty() && rng.chance(1, 4)) {
      const size_t k = rng.below(live.size());
      sw.remove_flow(0, live[k].match, live[k].priority);
      ref.table(0).remove(live[k].match, live[k].priority);
      live[k] = live.back();
      live.pop_back();
    } else {
      FlowEntry e;
      if (!live.empty() && rng.chance(1, 3)) {
        e = live[rng.below(live.size())];
      } else {
        if (rng.chance(2, 3)) e.match.set(FieldId::kUdpDst, rng.below(8));
        if (rng.chance(1, 3)) e.match.set(FieldId::kIpSrc, rng.below(4));
        e.priority = static_cast<uint16_t>(10 * rng.below(3));
        live.push_back(e);
      }
      e.actions = {Action::output(static_cast<uint32_t>(rng.below(6)))};
      sw.add_flow(0, e);
      ref.table(0).add(e);
    }
    for (int q = 0; q < 10; ++q) {
      auto spec = test::udp_spec(static_cast<uint32_t>(rng.below(5)), 2, 9,
                                 static_cast<uint16_t>(rng.below(10)));
      auto p1 = make_packet(spec);
      auto p2 = make_packet(spec);
      ASSERT_EQ(sw.process(p1), ref.run(p2)) << "op " << op;
    }
  }
}

}  // namespace
}  // namespace esw
