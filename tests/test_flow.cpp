#include <gtest/gtest.h>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "flow/pipeline.hpp"
#include "proto/checksum.hpp"
#include "proto/headers.hpp"
#include "test_util.hpp"
#include "testing/seed.hpp"

namespace esw {
namespace {

using namespace esw::flow;
using test::ip;
using test::make_packet;
using test::parse_packet;

// ---------- field extraction --------------------------------------------------

struct FieldCase {
  FieldId field;
  uint64_t expected;
};

class ExtractTest : public ::testing::TestWithParam<FieldCase> {};

TEST_P(ExtractTest, ExtractsBuiltValue) {
  proto::PacketSpec s = test::tcp_spec(ip("192.168.1.1"), ip("10.9.8.7"), 4242, 80);
  s.eth_dst = 0x0A0B0C0D0E0F;
  s.eth_src = 0x010203040506;
  s.vlan_vid = 99;
  s.vlan_pcp = 3;
  s.ip_ttl = 17;
  s.ip_dscp = 11;
  auto p = make_packet(s, /*in_port=*/7);
  auto pi = parse_packet(p);
  ASSERT_TRUE(field_present(GetParam().field, pi));
  EXPECT_EQ(extract_field(GetParam().field, p.data(), pi), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllFields, ExtractTest,
    ::testing::Values(FieldCase{FieldId::kInPort, 7}, FieldCase{FieldId::kEthDst, 0x0A0B0C0D0E0F},
                      FieldCase{FieldId::kEthSrc, 0x010203040506},
                      FieldCase{FieldId::kEthType, 0x0800}, FieldCase{FieldId::kVlanVid, 99},
                      FieldCase{FieldId::kVlanPcp, 3},
                      FieldCase{FieldId::kIpSrc, 0xC0A80101},
                      FieldCase{FieldId::kIpDst, 0x0A090807},
                      FieldCase{FieldId::kIpProto, 6}, FieldCase{FieldId::kIpTtl, 17},
                      FieldCase{FieldId::kIpDscp, 11}, FieldCase{FieldId::kTcpSrc, 4242},
                      FieldCase{FieldId::kTcpDst, 80}));

TEST(Fields, PresenceRespectsProtocol) {
  auto p = make_packet(test::udp_spec(1, 2, 3, 4));
  auto pi = parse_packet(p);
  EXPECT_TRUE(field_present(FieldId::kUdpDst, pi));
  EXPECT_FALSE(field_present(FieldId::kTcpDst, pi));
  EXPECT_FALSE(field_present(FieldId::kVlanVid, pi));
  EXPECT_FALSE(field_present(FieldId::kArpOp, pi));
}

TEST(Fields, StoreFieldMaintainsChecksums) {
  auto p = make_packet(test::tcp_spec(ip("10.0.0.1"), ip("10.0.0.2"), 1000, 80));
  auto pi = parse_packet(p);

  ASSERT_TRUE(store_field(FieldId::kIpSrc, ip("99.98.97.96"), p.data(), pi));
  ASSERT_TRUE(store_field(FieldId::kTcpDst, 8080, p.data(), pi));
  ASSERT_TRUE(store_field(FieldId::kIpTtl, 9, p.data(), pi));

  EXPECT_EQ(extract_field(FieldId::kIpSrc, p.data(), pi), ip("99.98.97.96"));
  EXPECT_EQ(extract_field(FieldId::kTcpDst, p.data(), pi), 8080u);
  EXPECT_EQ(extract_field(FieldId::kIpTtl, p.data(), pi), 9u);

  // Both checksums must still verify after incremental updates.
  const uint8_t* iph = p.data() + pi.l3_off;
  EXPECT_EQ(proto::checksum(iph, 20), 0);
  const uint32_t l4_len = load_be16(iph + proto::kIpv4TotalLenOff) - 20;
  EXPECT_EQ(proto::l4_checksum_ipv4(ip("99.98.97.96"), ip("10.0.0.2"),
                                    proto::kIpProtoTcp, p.data() + pi.l4_off, l4_len),
            0);
}

TEST(Fields, InPortIsReadOnly) {
  auto p = make_packet(test::udp_spec(1, 2, 3, 4));
  auto pi = parse_packet(p);
  EXPECT_FALSE(store_field(FieldId::kInPort, 5, p.data(), pi));
}

// ---------- match ------------------------------------------------------------

TEST(Match, MaskedMatching) {
  Match m;
  m.set(FieldId::kIpDst, ip("192.0.2.0"), 0xFFFFFF00);
  m.set(FieldId::kTcpDst, 80);

  auto hit = make_packet(test::tcp_spec(1, ip("192.0.2.77"), 5, 80));
  auto miss_port = make_packet(test::tcp_spec(1, ip("192.0.2.77"), 5, 81));
  auto miss_net = make_packet(test::tcp_spec(1, ip("192.0.3.77"), 5, 80));
  auto udp = make_packet(test::udp_spec(1, ip("192.0.2.77"), 5, 80));

  EXPECT_TRUE(m.matches_packet(hit.data(), parse_packet(hit)));
  EXPECT_FALSE(m.matches_packet(miss_port.data(), parse_packet(miss_port)));
  EXPECT_FALSE(m.matches_packet(miss_net.data(), parse_packet(miss_net)));
  // Protocol prerequisite: tcp_dst on a UDP packet can never match.
  EXPECT_FALSE(m.matches_packet(udp.data(), parse_packet(udp)));
}

TEST(Match, SubsumptionAndOverlap) {
  Match broad;
  broad.set(FieldId::kIpDst, ip("192.0.2.0"), 0xFFFFFF00);
  Match narrow;
  narrow.set(FieldId::kIpDst, ip("192.0.2.12"), 0xFFFFFFFC);
  Match other;
  other.set(FieldId::kIpDst, ip("192.0.3.0"), 0xFFFFFF00);
  Match all;  // catch-all

  EXPECT_TRUE(narrow.subsumed_by(broad));
  EXPECT_FALSE(broad.subsumed_by(narrow));
  EXPECT_TRUE(broad.subsumed_by(all));
  EXPECT_TRUE(broad.overlaps(narrow));
  EXPECT_FALSE(broad.overlaps(other));
  EXPECT_TRUE(all.overlaps(other));  // different field sets always may overlap

  Match two_fields = broad;
  two_fields.set(FieldId::kTcpDst, 80);
  EXPECT_TRUE(two_fields.subsumed_by(broad));
}

TEST(Match, CanonicalizesValueUnderMask) {
  Match m;
  m.set(FieldId::kIpDst, 0xC0000299, 0xFFFFFF00);
  EXPECT_EQ(m.value(FieldId::kIpDst), 0xC0000200u);
  EXPECT_THROW(m.set(FieldId::kTcpDst, 1, 0), CheckError);
}

// ---------- actions ------------------------------------------------------------

TEST(Actions, SetMergeSemantics) {
  ActionSetBuilder b;
  b.merge({Action::output(1)});
  b.merge({Action::set_field(FieldId::kIpTtl, 5), Action::output(2)});  // override
  auto p = make_packet(test::udp_spec(1, 2, 3, 4));
  auto pi = parse_packet(p);
  const Verdict v = b.execute(p, pi);
  EXPECT_EQ(v, Verdict::output(2));
  EXPECT_EQ(extract_field(FieldId::kIpTtl, p.data(), pi), 5u);
}

TEST(Actions, EmptySetDrops) {
  ActionSetBuilder b;
  auto p = make_packet(test::udp_spec(1, 2, 3, 4));
  auto pi = parse_packet(p);
  EXPECT_EQ(b.execute(p, pi), Verdict::drop());
}

TEST(Actions, PushAndPopVlan) {
  // Push onto untagged.
  ActionSetBuilder push;
  push.merge({Action::push_vlan(123), Action::output(1)});
  auto p = make_packet(test::udp_spec(1, 2, 3, 4));
  auto pi = parse_packet(p);
  const uint32_t orig_len = p.len();
  EXPECT_EQ(push.execute(p, pi), Verdict::output(1));
  EXPECT_EQ(p.len(), orig_len + 4);
  auto pi2 = parse_packet(p);
  EXPECT_TRUE(pi2.has(proto::kProtoVlan));
  EXPECT_EQ(extract_field(FieldId::kVlanVid, p.data(), pi2), 123u);
  EXPECT_TRUE(pi2.has(proto::kProtoUdp));  // payload intact

  // Pop it back off.
  ActionSetBuilder pop;
  pop.merge({Action::pop_vlan(), Action::output(2)});
  EXPECT_EQ(pop.execute(p, pi2), Verdict::output(2));
  EXPECT_EQ(p.len(), orig_len);
  auto pi3 = parse_packet(p);
  EXPECT_FALSE(pi3.has(proto::kProtoVlan));
  EXPECT_EQ(extract_field(FieldId::kUdpDst, p.data(), pi3), 4u);
}

TEST(Actions, DecTtlDropsExpired) {
  ActionSetBuilder b;
  b.merge({Action::dec_ttl(), Action::output(1)});
  auto spec = test::udp_spec(1, 2, 3, 4);
  spec.ip_ttl = 1;
  auto p = make_packet(spec);
  auto pi = parse_packet(p);
  EXPECT_EQ(b.execute(p, pi), Verdict::drop());

  spec.ip_ttl = 64;
  p = make_packet(spec);
  pi = parse_packet(p);
  EXPECT_EQ(b.execute(p, pi), Verdict::output(1));
  EXPECT_EQ(extract_field(FieldId::kIpTtl, p.data(), pi), 63u);
  EXPECT_EQ(proto::checksum(p.data() + pi.l3_off, 20), 0);
}

TEST(Actions, RegistryInternsIdenticalLists) {
  ActionSetRegistry reg;
  const uint32_t a = reg.intern({Action::output(3), Action::dec_ttl()});
  const uint32_t b = reg.intern({Action::output(3), Action::dec_ttl()});
  const uint32_t c = reg.intern({Action::output(4)});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(reg.size(), 2u);
}

// ---------- table & pipeline ------------------------------------------------------

TEST(FlowTable, PriorityOrderAndReplace) {
  FlowTable t(0);
  t.add(parse_rule("priority=10,tcp_dst=80,actions=output:1"));
  t.add(parse_rule("priority=200,tcp_dst=80,tcp_src=5,actions=output:2"));
  t.add(parse_rule("priority=10,tcp_dst=81,actions=output:3"));
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t.entries()[0].priority, 200);

  auto p = make_packet(test::tcp_spec(1, 2, 5, 80));
  auto pi = parse_packet(p);
  const FlowEntry* e = t.lookup(p.data(), pi);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->priority, 200);

  // Replacement keeps counters.
  e->n_packets = 42;
  t.add(parse_rule("priority=200,tcp_dst=80,tcp_src=5,actions=output:9"));
  EXPECT_EQ(t.size(), 3u);
  const FlowEntry* e2 = t.lookup(p.data(), pi);
  EXPECT_EQ(e2->n_packets, 42u);
  EXPECT_EQ(e2->actions[0].value, 9u);

  EXPECT_TRUE(t.remove(e2->match, 200));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_FALSE(t.remove(e2->match, 200));
}

// The indexed add/remove must keep exactly the semantics of the scan they
// replaced: priority-descending order, stable within a band (new entries
// after existing ones), replace-preserves-counters.  Differential check
// against a naive reference over a randomized same-priority-heavy churn —
// the band shape that motivated the index.
TEST(FlowTable, IndexedMutationMatchesNaiveScan) {
  struct Ref {  // the pre-index implementation, verbatim semantics
    std::vector<FlowEntry> entries;
    void add(FlowEntry e) {
      auto it = entries.begin();
      while (it != entries.end() && it->priority >= e.priority) {
        if (it->priority == e.priority && it->match == e.match) {
          e.n_packets = it->n_packets;
          *it = std::move(e);
          return;
        }
        ++it;
      }
      entries.insert(it, std::move(e));
    }
    bool remove(const Match& m, uint16_t priority) {
      for (auto it = entries.begin(); it != entries.end(); ++it) {
        if (it->priority == priority && it->match == m) {
          entries.erase(it);
          return true;
        }
      }
      return false;
    }
  };

  Rng rng(testing::test_seed(0xF10Bu, "flow table index"));
  FlowTable t(0);
  Ref ref;
  for (uint32_t step = 0; step < 4000; ++step) {
    Match m;
    m.set(FieldId::kEthDst, 0x0200'0000'0000ULL | rng.below(256));
    // Three priorities, heavily skewed to one band; half the adds are
    // replacements of live entries, removes target live and absent alike.
    const uint16_t prio = rng.chance(3, 4) ? 10 : (rng.chance(1, 2) ? 5 : 20);
    if (rng.chance(2, 3)) {
      FlowEntry e;
      e.match = m;
      e.priority = prio;
      e.actions.push_back(Action::output(1 + rng.below(4)));
      e.n_packets = step;  // sentinel: replace must preserve the old one
      FlowEntry e2 = e;
      t.add(std::move(e));
      ref.add(std::move(e2));
    } else {
      EXPECT_EQ(t.remove(m, prio), ref.remove(m, prio)) << "step " << step;
    }
    ASSERT_EQ(t.size(), ref.entries.size()) << "step " << step;
  }
  for (size_t i = 0; i < ref.entries.size(); ++i) {
    EXPECT_EQ(t.entries()[i].priority, ref.entries[i].priority) << "slot " << i;
    EXPECT_TRUE(t.entries()[i].match == ref.entries[i].match) << "slot " << i;
    EXPECT_EQ(t.entries()[i].n_packets, ref.entries[i].n_packets) << "slot " << i;
    EXPECT_EQ(t.entries()[i].actions[0].value, ref.entries[i].actions[0].value)
        << "slot " << i;
  }
}

// The paper's Fig. 1 firewall, single-stage variant.
Pipeline fig1a_firewall() {
  Pipeline pl;
  auto& t = pl.table(0);
  t.add(parse_rule("priority=30,in_port=1,actions=output:2"));
  t.add(parse_rule(
      "priority=20,in_port=2,ip_dst=192.0.2.1,tcp_dst=80,actions=output:1"));
  t.add(parse_rule("priority=10,actions=drop"));
  return pl;
}

// Fig. 1b: equivalent two-stage pipeline.
Pipeline fig1b_firewall() {
  Pipeline pl;
  auto& t0 = pl.table(0);
  t0.add(parse_rule("priority=30,in_port=1,actions=output:2"));
  t0.add(parse_rule("priority=20,in_port=2,actions=,goto:1"));
  auto& t1 = pl.table(1);
  t1.add(parse_rule("priority=20,ip_dst=192.0.2.1,tcp_dst=80,actions=output:1"));
  t1.add(parse_rule("priority=10,actions=drop"));
  return pl;
}

TEST(Pipeline, FirewallSingleStage) {
  auto pl = fig1a_firewall();
  ASSERT_FALSE(pl.validate().has_value());

  auto internal = make_packet(test::tcp_spec(ip("192.0.2.1"), 9, 80, 7777), 1);
  auto http = make_packet(test::tcp_spec(9, ip("192.0.2.1"), 7777, 80), 2);
  auto ssh = make_packet(test::tcp_spec(9, ip("192.0.2.1"), 7777, 22), 2);

  EXPECT_EQ(pl.run(internal), Verdict::output(2));
  EXPECT_EQ(pl.run(http), Verdict::output(1));
  EXPECT_EQ(pl.run(ssh), Verdict::drop());
}

TEST(Pipeline, MultiStageEquivalentToSingleStage) {
  auto a = fig1a_firewall();
  auto b = fig1b_firewall();
  ASSERT_FALSE(b.validate().has_value());

  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    const uint32_t port = 1 + rng.below(2);
    auto spec = test::tcp_spec(rng.next() & 0xFFFFFFFF,
                               rng.chance(1, 2) ? ip("192.0.2.1") : ip("192.0.2.2"),
                               static_cast<uint16_t>(rng.below(65536)),
                               rng.chance(1, 2) ? 80 : static_cast<uint16_t>(rng.below(65536)));
    auto p1 = make_packet(spec, port);
    auto p2 = make_packet(spec, port);
    EXPECT_EQ(a.run(p1), b.run(p2)) << "packet " << i;
  }
}

TEST(Pipeline, ValidateRejectsBadGoto) {
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=1,actions=,goto:5"));
  EXPECT_TRUE(pl.validate().has_value());

  Pipeline pl2;
  pl2.table(1).add(parse_rule("priority=1,actions=,goto:1"));
  EXPECT_TRUE(pl2.validate().has_value());
}

TEST(Pipeline, MissPolicyController) {
  Pipeline pl;
  pl.table(0).set_miss_policy(FlowTable::MissPolicy::kController);
  auto p = make_packet(test::udp_spec(1, 2, 3, 4));
  EXPECT_EQ(pl.run(p), Verdict::controller());
}

TEST(Pipeline, CountersAdvance) {
  auto pl = fig1a_firewall();
  auto p = make_packet(test::tcp_spec(1, 2, 3, 4), 1);
  pl.run(p);
  EXPECT_EQ(pl.find_table(0)->entries()[0].n_packets, 1u);
  EXPECT_EQ(pl.find_table(0)->entries()[0].n_bytes, p.len());
}

TEST(Pipeline, TraceRecordsVisits) {
  auto pl = fig1b_firewall();
  auto p = make_packet(test::tcp_spec(9, ip("192.0.2.1"), 7, 80), 2);
  auto pi = parse_packet(p);
  std::vector<TraceStep> trace;
  pl.process(p, pi, &trace);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].table_id, 0);
  EXPECT_EQ(trace[1].table_id, 1);
  EXPECT_NE(trace[1].entry, nullptr);
}

}  // namespace
}  // namespace esw
