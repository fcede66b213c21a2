#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/analysis.hpp"
#include "core/decompose.hpp"
#include "core/eswitch.hpp"
#include "test_util.hpp"

namespace esw {
namespace {

using namespace esw::core;
using namespace esw::flow;
using test::ip;
using test::make_packet;

// The paper's Fig. 5 example: four-ish column table over (ip_dst, tcp_dst).
// tcp_dst has diversity 2 and must be picked as the pivot, giving 4 tables.
TEST(Decompose, Fig5PicksMinimalDiversityColumn) {
  FlowTable t(0);
  t.add(parse_rule("priority=60,ip_dst=1.0.0.1,tcp_dst=80,actions=output:1"));
  t.add(parse_rule("priority=50,ip_dst=1.0.0.2,tcp_dst=80,actions=output:2"));
  t.add(parse_rule("priority=40,ip_dst=1.0.0.3,tcp_dst=80,actions=output:3"));
  t.add(parse_rule("priority=30,ip_dst=1.0.0.1,tcp_dst=22,actions=output:4"));
  t.add(parse_rule("priority=20,ip_dst=1.0.0.2,tcp_dst=22,actions=output:5"));
  t.add(parse_rule("priority=10,ip_dst=1.0.0.3,tcp_dst=22,actions=output:6"));

  const auto d = decompose(t);
  // Optimal: router over tcp_dst {80, 22} + one ip_dst table per key.
  // (Fig. 5c: 4 tables; pivoting on ip_dst would give 1 + 3 = more.)
  EXPECT_EQ(d.tables.size(), 3u);  // router + 2 residuals (no wildcard rules)
  ASSERT_FALSE(d.tables[0].entries.empty());
  EXPECT_TRUE(d.tables[0].entries[0].match.has(FieldId::kTcpDst));
  // Residual tables are single-field exact -> hash-template compliant.
  for (size_t i = 1; i < d.tables.size(); ++i) {
    const AnalysisEntries& sub = d.tables[i].entries;
    EXPECT_TRUE(hash_prerequisite(sub, nullptr));
  }
}

TEST(Decompose, WildcardRulesReplicateIntoBranches) {
  FlowTable t(0);
  t.add(parse_rule("priority=60,in_port=1,tcp_dst=80,actions=output:1"));
  t.add(parse_rule("priority=50,in_port=2,tcp_dst=80,actions=output:2"));
  t.add(parse_rule("priority=40,tcp_dst=80,actions=output:3"));  // wildcard in_port
  t.add(parse_rule("priority=30,in_port=1,tcp_dst=22,actions=output:4"));

  const auto d = decompose(t);
  EXPECT_GT(d.tables.size(), 1u);
  // Router + branch tables exist; the wildcard rule must appear in a
  // catch-all branch too.
  bool found_catch_all_route = false;
  for (const auto& e : d.tables[0].entries)
    if (e.match.is_catch_all() && e.internal_next >= 0) found_catch_all_route = true;
  EXPECT_TRUE(found_catch_all_route);
}

TEST(Decompose, SingleFieldTableReturnedIntact) {
  // The paper: "in essentially all cases our decomposer simply returned its
  // input intact" for already-decomposed (single-field) stages.
  FlowTable t(0);
  for (int i = 0; i < 10; ++i)
    t.add(parse_rule("priority=5,eth_dst=00:00:00:00:01:0" + std::to_string(i % 10) +
                     ",actions=output:" + std::to_string(i)));
  const auto d = decompose(t);
  EXPECT_TRUE(d.unchanged());
  EXPECT_EQ(d.tables[0].entries.size(), t.size());
}

TEST(Decompose, MaskedPivotNotEligible) {
  // Masked fields may not serve as pivots; a table with only masked fields
  // stays whole.
  FlowTable t(0);
  t.add(parse_rule("priority=5,ip_dst=10.0.0.0/8,ip_src=1.0.0.0/8,actions=drop"));
  t.add(parse_rule("priority=4,ip_dst=11.0.0.0/8,ip_src=2.0.0.0/8,actions=drop"));
  const auto d = decompose(t);
  EXPECT_TRUE(d.unchanged());
}

TEST(Decompose, TableBudgetOverflowReturnsInput) {
  FlowTable t(0);
  for (int i = 0; i < 8; ++i)
    t.add(parse_rule("priority=5,in_port=" + std::to_string(i) + ",udp_dst=" +
                     std::to_string(i) + ",eth_type=0x800,actions=output:1"));
  const auto d = decompose(t, /*max_tables=*/2);
  EXPECT_TRUE(d.unchanged());
}

TEST(Decompose, SharedResidualTablesCollapse) {
  // Two pivot keys with identical residual rules must share one sub-table.
  FlowTable t(0);
  t.add(parse_rule("priority=6,tcp_dst=80,ip_src=1.1.1.1,actions=output:1"));
  t.add(parse_rule("priority=5,tcp_dst=81,ip_src=1.1.1.1,actions=output:1"));
  const auto d = decompose(t);
  // Router + ONE shared residual (same fingerprint), not two.
  EXPECT_EQ(d.tables.size(), 2u);
}

// Property: the decomposed pipeline is semantically equivalent to the input
// (paper's definition) — verified by running both through ESWITCH and the
// reference interpreter on random packets.
TEST(Decompose, PropertyEquivalence) {
  Rng rng(99);
  for (int round = 0; round < 15; ++round) {
    FlowTable t(0);
    Pipeline ref_pl;
    FlowTable& ref_t = ref_pl.table(0);
    const int n = 2 + static_cast<int>(rng.below(12));
    for (int i = 0; i < n; ++i) {
      Match m;
      if (rng.chance(2, 3)) m.set(FieldId::kInPort, rng.below(3));
      if (rng.chance(2, 3)) m.set(FieldId::kUdpDst, 50 + rng.below(4));
      if (rng.chance(1, 3)) m.set(FieldId::kIpSrc, rng.below(3));
      if (rng.chance(1, 4)) m.set(FieldId::kIpDst, rng.below(3) << 8, 0xFFFFFF00);
      FlowEntry e;
      e.match = m;
      e.priority = static_cast<uint16_t>(1000 - i);  // unique priorities
      e.actions = {Action::output(static_cast<uint32_t>(i + 1))};
      t.add(e);
      ref_t.add(e);
    }

    CompilerConfig cfg;
    cfg.enable_decomposition = true;
    cfg.direct_code_max_entries = 1;  // force template pressure
    Eswitch sw(cfg);
    Pipeline pl;
    pl.table(0) = t;
    sw.install(pl);

    for (int q = 0; q < 300; ++q) {
      auto spec = test::udp_spec(static_cast<uint32_t>(rng.below(4)),
                                 static_cast<uint32_t>((rng.below(4) << 8) | rng.below(2)),
                                 9, static_cast<uint16_t>(50 + rng.below(6)));
      auto p1 = make_packet(spec, static_cast<uint32_t>(rng.below(4)));
      auto p2 = make_packet(spec, p1.in_port());
      const Verdict got = sw.process(p1);
      const Verdict want = ref_pl.run(p2);
      ASSERT_EQ(got, want) << "round " << round << " q " << q;
    }
  }
}

// The §3.2 stress experiment shape: snort-like ACLs decompose into fewer
// tables than rules, and ESWITCH promotes the linked list away.
TEST(Decompose, AclTableDecomposesBelowRuleCount) {
  // Snort-community-style structure: almost everything is TCP toward one
  // HOME_NET address, classified by a small set of destination ports, with
  // occasional source-port or source-host qualifiers.
  Rng rng(4242);
  FlowTable t(0);
  const int n_rules = 72;
  const uint16_t kPorts[] = {80, 21, 25, 53, 110, 143, 443, 445, 1433, 3306, 8080, 139};
  for (int i = 0; i < n_rules; ++i) {
    Match m;
    m.set(FieldId::kIpProto, rng.chance(9, 10) ? 6 : 17);
    m.set(FieldId::kIpDst, rng.chance(4, 5) ? 0x0A000001 : 0x0A000002);  // HOME_NET
    if (rng.chance(9, 10))
      m.set(FieldId::kTcpDst, kPorts[rng.below(std::size(kPorts))]);
    if (rng.chance(1, 8)) m.set(FieldId::kTcpSrc, 1024 + rng.below(4));
    if (rng.chance(1, 8)) m.set(FieldId::kIpSrc, rng.below(3), 0xFFFFFFFF);
    FlowEntry e;
    e.match = m;
    e.priority = static_cast<uint16_t>(n_rules - i);
    e.actions = {rng.chance(1, 3) ? Action::drop() : Action::output(1)};
    t.add(e);
  }
  const auto d = decompose(t);
  EXPECT_GT(d.tables.size(), 1u);
  // The paper's shape: 72 active snort ACLs decomposed into ~50 tables,
  // i.e. strictly fewer tables than rules.
  EXPECT_LT(d.tables.size(), static_cast<size_t>(n_rules));
}

}  // namespace
}  // namespace esw
