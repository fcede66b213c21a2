#include <gtest/gtest.h>

#include "core/analysis.hpp"
#include "test_util.hpp"

namespace esw {
namespace {

using namespace esw::core;
using namespace esw::flow;
using test::ip;

FlowTable table_from(std::initializer_list<const char*> rules) {
  FlowTable t(0);
  for (const char* r : rules) t.add(parse_rule(r));
  return t;
}

AnalysisEntries analyze_helper(const FlowTable& t) {
  AnalysisEntries out;
  for (const FlowEntry& e : t.entries())
    out.push_back({e.match, e.priority, {}, e.goto_table, -1});
  return out;
}

TEST(Analysis, SmallTablesCompileDirect) {
  const auto t = table_from({
      "priority=3,ip_dst=1.2.3.4,tcp_dst=80,actions=output:1",
      "priority=2,ip_dst=1.2.3.0/24,actions=output:2",
      "priority=1,actions=drop",
  });
  EXPECT_EQ(analyze_table(t, {}).chosen, TableTemplate::kDirectCode);
}

TEST(Analysis, DirectCodeThresholdBoundary) {
  CompilerConfig cfg;
  cfg.direct_code_max_entries = 4;
  FlowTable t(0);
  for (int i = 0; i < 4; ++i)
    t.add(parse_rule("priority=5,eth_dst=00:00:00:00:00:0" + std::to_string(i) +
                     ",actions=output:1"));
  EXPECT_EQ(analyze_table(t, cfg).chosen, TableTemplate::kDirectCode);
  t.add(parse_rule("priority=5,eth_dst=00:00:00:00:00:09,actions=output:1"));
  // Fifth entry crosses the Fig. 9 constant: falls to the hash template.
  EXPECT_EQ(analyze_table(t, cfg).chosen, TableTemplate::kCuckooHash);
}

TEST(Analysis, HashPrerequisiteGlobalMask) {
  // The paper's §3.1 example: ip_dst/24 + exact tcp_dst in both entries works…
  FlowTable good(0);
  for (int i = 0; i < 6; ++i)
    good.add(parse_rule("priority=5,ip_dst=192.0." + std::to_string(i) +
                        ".0/24,tcp_dst=80,actions=output:1"));
  Match mask;
  bool has_catch_all = true;
  EXPECT_TRUE(hash_prerequisite(analyze_helper(good), &mask, &has_catch_all));
  EXPECT_EQ(mask.mask(FieldId::kIpDst), 0xFFFFFF00u);
  EXPECT_EQ(mask.mask(FieldId::kTcpDst), 0xFFFFu);
  EXPECT_FALSE(has_catch_all);

  // …but adding an entry that drops tcp_dst violates the prerequisite.
  FlowTable bad = good;
  bad.add(parse_rule("priority=5,ip_dst=203.0.113.0/24,actions=output:3"));
  EXPECT_FALSE(hash_prerequisite(analyze_helper(bad), nullptr, nullptr));
  EXPECT_EQ(analyze_table(bad, {}).chosen, TableTemplate::kLinkedList);
}

TEST(Analysis, HashAllowsOneLowestPriorityCatchAll) {
  FlowTable t(0);
  for (int i = 0; i < 6; ++i)
    t.add(parse_rule("priority=5,udp_dst=" + std::to_string(i) + ",actions=output:1"));
  t.add(parse_rule("priority=1,actions=drop"));
  EXPECT_EQ(analyze_table(t, {}).chosen, TableTemplate::kCuckooHash);

  // A catch-all that outranks a specific entry breaks the prerequisite.
  t.add(parse_rule("priority=9,actions=drop"));
  EXPECT_EQ(analyze_table(t, {}).chosen, TableTemplate::kLinkedList);
}

TEST(Analysis, LpmPrerequisite) {
  FlowTable t(0);
  t.add(parse_rule("priority=24,ip_dst=10.1.0.0/24,actions=output:1"));
  t.add(parse_rule("priority=16,ip_dst=10.0.0.0/16,actions=output:2"));
  t.add(parse_rule("priority=8,ip_dst=10.0.0.0/8,actions=output:3"));
  t.add(parse_rule("priority=30,ip_dst=10.1.0.0/30,actions=output:4"));
  t.add(parse_rule("priority=0,actions=drop"));  // default route
  FieldId f = FieldId::kCount;
  EXPECT_TRUE(lpm_prerequisite(analyze_helper(t), &f));
  EXPECT_EQ(f, FieldId::kIpDst);
  CompilerConfig cfg;
  cfg.direct_code_max_entries = 2;
  EXPECT_EQ(analyze_table(t, cfg).chosen, TableTemplate::kLpm);
}

TEST(Analysis, LpmRejectsPriorityInversion) {
  // The paper's §3.1 counterexample: /24 at priority 100 above /30 at 20.
  FlowTable t(0);
  t.add(parse_rule("priority=100,ip_dst=192.0.2.0/24,actions=output:1"));
  t.add(parse_rule("priority=20,ip_dst=192.0.2.12/30,actions=output:2"));
  t.add(parse_rule("priority=10,ip_dst=10.0.0.0/8,actions=output:3"));
  EXPECT_FALSE(lpm_prerequisite(analyze_helper(t), nullptr));
  CompilerConfig cfg;
  cfg.direct_code_max_entries = 2;
  // Falls through LPM to the range extension template (single field, prefix
  // masks, priorities resolved by interval flattening).
  EXPECT_EQ(analyze_table(t, cfg).chosen, TableTemplate::kRange);
  cfg.enable_range_template = false;
  EXPECT_EQ(analyze_table(t, cfg).chosen, TableTemplate::kLinkedList);
}

TEST(Analysis, LpmRejectsNonPrefixMasksAndMixedFields) {
  FlowTable t(0);
  t.add(parse_rule("priority=5,ip_dst=10.0.0.0/255.0.255.0,actions=drop"));
  for (int i = 0; i < 5; ++i)
    t.add(parse_rule("priority=24,ip_dst=10.1." + std::to_string(i) +
                     ".0/24,actions=output:1"));
  EXPECT_FALSE(lpm_prerequisite(analyze_helper(t), nullptr));

  FlowTable t2(0);
  for (int i = 0; i < 5; ++i)
    t2.add(parse_rule("priority=24,ip_dst=10.1." + std::to_string(i) +
                      ".0/24,actions=output:1"));
  t2.add(parse_rule("priority=16,ip_src=10.0.0.0/16,actions=output:2"));
  EXPECT_FALSE(lpm_prerequisite(analyze_helper(t2), nullptr));
}

TEST(Analysis, ForceTemplateOverrides) {
  CompilerConfig cfg;
  cfg.force_template = TableTemplate::kLinkedList;
  const auto t = table_from({"priority=1,actions=drop"});
  EXPECT_EQ(analyze_table(t, cfg).chosen, TableTemplate::kLinkedList);
  // The retired compound-hash enumerator compiles as the cuckoo template.
  cfg.force_template = TableTemplate::kCompoundHash;
  EXPECT_EQ(analyze_table(t, cfg).chosen, TableTemplate::kCuckooHash);
}

TEST(Analysis, FallbackChainShape) {
  EXPECT_EQ(fallback_of(TableTemplate::kDirectCode), TableTemplate::kCuckooHash);
  EXPECT_EQ(fallback_of(TableTemplate::kCuckooHash), TableTemplate::kLpm);
  EXPECT_EQ(fallback_of(TableTemplate::kLpm), TableTemplate::kRange);
  EXPECT_EQ(fallback_of(TableTemplate::kRange), TableTemplate::kLinkedList);
  EXPECT_EQ(fallback_of(TableTemplate::kLinkedList), TableTemplate::kLinkedList);
}

}  // namespace
}  // namespace esw
