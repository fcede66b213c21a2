#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>

#include "cls/tuple_space.hpp"
#include "common/epoch.hpp"
#include "common/rng.hpp"
#include "flow/table.hpp"
#include "test_util.hpp"

namespace esw {
namespace {

using namespace esw::flow;
using cls::TupleSpace;
using cls::TupleVisitStats;
using test::ip;
using test::make_packet;
using test::parse_packet;

Match m_ipdst24(uint32_t net) {
  Match m;
  m.set(FieldId::kIpDst, net, 0xFFFFFF00);
  return m;
}

Match m_port(uint16_t port) {
  Match m;
  m.set(FieldId::kTcpDst, port);
  return m;
}

TEST(KeyShape, FitsSameFieldsUnderSameMasks) {
  const cls::KeyShape shape(m_ipdst24(0x0A000100));
  EXPECT_TRUE(shape.fits(m_ipdst24(0x0A000200)));  // values do not matter
  Match two_fields = m_ipdst24(0x0A000100);
  two_fields.set(FieldId::kTcpDst, 80);
  EXPECT_FALSE(shape.fits(two_fields));  // an extra field
  Match narrower;
  narrower.set(FieldId::kIpDst, 0x0A000100, 0xFFFFFFFC);
  EXPECT_FALSE(shape.fits(narrower));  // the same field under another mask
  EXPECT_FALSE(shape.fits(Match{}));
}

TEST(KeyShape, MatchAndPacketKeysAgree) {
  Match m = m_ipdst24(0x0A000100);
  m.set(FieldId::kTcpDst, 80);
  const cls::KeyShape shape(m);
  EXPECT_EQ(shape.key_len(), 16u);

  auto p = make_packet(test::tcp_spec(1, 0x0A000142, 7, 80));
  auto pi = parse_packet(p);
  ASSERT_TRUE(m.matches_packet(p.data(), pi));
  ASSERT_TRUE(shape.applies(pi));
  uint8_t from_match[cls::KeyShape::kMaxKeyBytes];
  uint8_t from_packet[cls::KeyShape::kMaxKeyBytes];
  ASSERT_EQ(shape.key(m, from_match), 16u);
  ASSERT_EQ(shape.key(p.data(), pi, from_packet), 16u);
  EXPECT_EQ(0, std::memcmp(from_match, from_packet, 16));

  // A packet without the TCP layer is outside the shape's protocol gate.
  auto u = make_packet(test::udp_spec(1, 0x0A000142, 7, 80));
  EXPECT_FALSE(shape.applies(parse_packet(u)));
}

TEST(KeyShape, CatchAllKeysToOneSentinelByte) {
  const cls::KeyShape shape{Match{}};
  EXPECT_EQ(shape.key_len(), 1u);
  uint8_t key[cls::KeyShape::kMaxKeyBytes];
  key[0] = 0xAB;
  EXPECT_EQ(shape.key(Match{}, key), 1u);
  EXPECT_EQ(key[0], 0u);
  auto p = make_packet(test::udp_spec(1, 2, 3, 4));
  auto pi = parse_packet(p);
  EXPECT_TRUE(shape.applies(pi));
  key[0] = 0xAB;
  EXPECT_EQ(shape.key(p.data(), pi, key), 1u);
  EXPECT_EQ(key[0], 0u);
}

TEST(KeyShape, EveryFieldKeysMaxKeyBytes) {
  Match all;
  for (unsigned i = 0; i < kNumFields; ++i) all.set(static_cast<FieldId>(i), i + 1);
  const cls::KeyShape shape(all);
  EXPECT_EQ(shape.key_len(), cls::KeyShape::kMaxKeyBytes);
  uint8_t key[cls::KeyShape::kMaxKeyBytes];
  EXPECT_EQ(shape.key(all, key), cls::KeyShape::kMaxKeyBytes);
  // Field-id order, 8 bytes each.
  for (unsigned i = 0; i < kNumFields; ++i) {
    uint64_t v;
    std::memcpy(&v, key + 8 * i, 8);
    EXPECT_EQ(v, all.value(static_cast<FieldId>(i))) << "field " << i;
  }
}

TEST(TupleSpace, GroupsByMaskSignature) {
  TupleSpace<int> ts;
  ts.add(m_ipdst24(0x0A000100), 1, 10);
  ts.add(m_ipdst24(0x0A000200), 2, 20);
  ts.add(m_port(80), 3, 30);
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts.num_tuples(), 2u);
}

TEST(TupleSpace, HighestPriorityWinsAcrossTuples) {
  TupleSpace<int> ts;
  ts.add(m_port(80), 9, 100);  // less specific but higher priority
  ts.add(m_ipdst24(0x0A000100), 5, 200);

  auto p = make_packet(test::tcp_spec(1, 0x0A000142, 7, 80));
  auto pi = parse_packet(p);
  const auto* e = ts.lookup(p.data(), pi);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->value, 100);
  EXPECT_EQ(e->rank.priority, 9u);
}

TEST(TupleSpace, EqualPriorityEarlierInsertionWins) {
  TupleSpace<int> ts;
  ts.add(m_ipdst24(0x0A000100), 7, 1);
  ts.add(m_port(80), 7, 2);
  auto p = make_packet(test::tcp_spec(1, 0x0A000142, 7, 80));
  auto pi = parse_packet(p);
  EXPECT_EQ(ts.lookup(p.data(), pi)->value, 1);

  // Remove + re-add is a new insertion: it now ranks behind its peer.
  EXPECT_TRUE(ts.remove(m_ipdst24(0x0A000100), 7));
  ts.add(m_ipdst24(0x0A000100), 7, 3);
  EXPECT_EQ(ts.lookup(p.data(), pi)->value, 2);
}

TEST(TupleSpace, ReplaceKeepsRank) {
  // OpenFlow modify: the entry keeps its place among equal-priority peers.
  TupleSpace<int> ts;
  ts.add(m_port(80), 10, 1);
  ts.add(m_ipdst24(0x0A000100), 10, 2);
  const auto rank = ts.find(m_port(80), 10)->rank;
  ts.add(m_port(80), 10, 3);
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts.find(m_port(80), 10)->rank.seq, rank.seq);

  auto p = make_packet(test::tcp_spec(1, 0x0A000142, 7, 80));
  auto pi = parse_packet(p);
  EXPECT_EQ(ts.lookup(p.data(), pi)->value, 3);
}

TEST(TupleSpace, EarlyExitSkipsWorseTuples) {
  TupleSpace<int> ts;
  ts.add(m_port(80), 1000, 1);
  for (uint16_t i = 0; i < 10; ++i) ts.add(m_ipdst24(uint32_t{i} << 8), 100 - i, 0);

  auto p = make_packet(test::tcp_spec(1, 0x00000505, 7, 80));
  auto pi = parse_packet(p);
  TupleVisitStats visit;
  const auto* e = ts.lookup(p.data(), pi, &visit);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->value, 1);
  // The port tuple ranks first; after matching there, the ip tuple (best
  // priority 100) is never visited.
  EXPECT_EQ(visit.tuples_visited, 1u);
}

TEST(TupleSpace, VisitStatsUnionMasks) {
  TupleSpace<int> ts;
  ts.add(m_ipdst24(0x0A000100), 2, 10);
  ts.add(m_port(80), 1, 20);

  // Packet missing both: all tuples visited, masks unioned.
  auto p = make_packet(test::tcp_spec(1, 0x0B000001, 7, 443));
  auto pi = parse_packet(p);
  TupleVisitStats visit;
  EXPECT_EQ(ts.lookup(p.data(), pi, &visit), nullptr);
  EXPECT_EQ(visit.tuples_visited, 2u);
  EXPECT_TRUE(visit.fields_union & (1u << unsigned(FieldId::kIpDst)));
  EXPECT_TRUE(visit.fields_union & (1u << unsigned(FieldId::kTcpDst)));
  EXPECT_EQ(visit.mask_union[unsigned(FieldId::kIpDst)], 0xFFFFFF00u);
  EXPECT_EQ(visit.mask_union[unsigned(FieldId::kTcpDst)], 0xFFFFu);
}

TEST(TupleSpace, SameKeyDifferentPriorityChains) {
  TupleSpace<int> ts;
  const Match m = m_port(80);
  ts.add(m, 50, 1);
  ts.add(m, 90, 2);  // higher priority, same key: new chain head
  ts.add(m, 10, 3);
  ts.add(m, 50, 4);  // mid-chain replace

  auto p = make_packet(test::tcp_spec(1, 2, 7, 80));
  auto pi = parse_packet(p);
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts.lookup(p.data(), pi)->value, 2);

  EXPECT_TRUE(ts.remove(m, 90));
  EXPECT_EQ(ts.lookup(p.data(), pi)->value, 4);
  EXPECT_TRUE(ts.remove(m, 50));
  EXPECT_EQ(ts.lookup(p.data(), pi)->value, 3);
  EXPECT_TRUE(ts.remove(m, 10));
  EXPECT_EQ(ts.lookup(p.data(), pi), nullptr);
  EXPECT_EQ(ts.num_tuples(), 0u);
  EXPECT_FALSE(ts.remove(m, 10));
}

TEST(TupleSpace, ProtocolPrerequisiteSkipsTuple) {
  TupleSpace<int> ts;
  ts.add(m_port(80), 1, 1);  // tcp tuple
  auto p = make_packet(test::udp_spec(1, 2, 7, 80));
  auto pi = parse_packet(p);
  EXPECT_EQ(ts.lookup(p.data(), pi), nullptr);
}

TEST(TupleSpace, RetiresThroughDomainUntilGraceEnds) {
  // With a registered worker, displaced nodes, scan arrays and emptied
  // tuples wait for the grace period; without one they are freed at once.
  common::EpochDomain domain;
  TupleSpace<int> ts;
  ts.set_domain(&domain);
  ts.add(m_port(80), 5, 1);
  ts.remove(m_port(80), 5);
  EXPECT_EQ(domain.pending(), 0u);

  common::EpochDomain::WorkerSlot* w = domain.register_worker();
  ASSERT_NE(w, nullptr);
  ts.add(m_port(80), 5, 1);
  ts.add(m_port(80), 5, 2);     // replace: the old node retires
  ts.remove(m_port(80), 5);     // node, tuple and scan array retire
  EXPECT_GT(domain.pending(), 0u);
  uint64_t reclaimed = domain.reclaimed();
  domain.reclaim();
  EXPECT_EQ(domain.reclaimed(), reclaimed);  // worker not ticked
  domain.quiescent(*w);
  domain.reclaim();
  EXPECT_GT(domain.reclaimed(), reclaimed);
  EXPECT_EQ(domain.pending(), 0u);
  domain.unregister_worker(w);
}

TEST(TupleSpace, ConcurrentReaderSeesOldOrNew) {
  // One writer churns replaces, chain inserts/removals and whole tuples in
  // place while a reader looks up one packet: it must always see the stable
  // entry's value or a replace's old/new value, never a lower-priority rule
  // and never a miss.
  common::EpochDomain domain;
  TupleSpace<int> ts;
  ts.set_domain(&domain);
  ts.add(m_port(80), 20, 1);  // stable winner's key ...
  ts.add(m_port(80), 5, 99);  // ... chained over a lower-priority entry
  ts.add(m_ipdst24(0x0A000100), 1, 98);

  common::EpochDomain::WorkerSlot* w = domain.register_worker();
  ASSERT_NE(w, nullptr);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  uint64_t bad = 0;
  std::thread reader([&] {
    auto p = make_packet(test::tcp_spec(1, 0x0A000142, 7, 80));
    auto pi = parse_packet(p);
    while (!stop.load(std::memory_order_relaxed)) {
      const auto* e = ts.lookup(p.data(), pi);
      if (e == nullptr || (e->value != 1 && e->value != 2)) ++bad;
      domain.quiescent(*w);
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  });
  while (reads.load(std::memory_order_relaxed) == 0) std::this_thread::yield();

  for (int i = 0; i < 2000; ++i) {
    ts.add(m_port(80), 20, 1 + i % 2);             // head replace
    ts.add(m_port(80), 10, 50);                    // mid-chain insert
    ts.add(m_port(80), 5, 99);                     // tail replace
    ts.add(m_ipdst24(0x0B000000 + (i % 4) * 256), 30, 97);  // other key
    ts.add(Match{}, 2, 96);                        // catch-all tuple
    ts.remove(m_port(80), 10);
    ts.remove(m_ipdst24(0x0B000000 + (i % 4) * 256), 30);
    ts.remove(Match{}, 2);                         // tuple retires
    if (i % 64 == 63) {
      domain.reclaim();
      std::this_thread::yield();
    }
  }
  stop = true;
  reader.join();
  domain.unregister_worker(w);
  EXPECT_EQ(bad, 0u);
  EXPECT_GT(reads.load(), 0u);
}

// Property: under random adds, replaces and removes, the tuple space picks
// the same entry as the reference flow table's priority-ordered scan.
TEST(TupleSpace, PropertyMatchesFlowTable) {
  Rng rng(21);
  for (int round = 0; round < 20; ++round) {
    TupleSpace<int> ts;
    flow::FlowTable ref;
    std::vector<std::pair<Match, uint16_t>> live;

    for (int op = 0; op < 60; ++op) {
      if (!live.empty() && rng.chance(1, 4)) {
        const size_t k = rng.below(live.size());
        ASSERT_TRUE(ts.remove(live[k].first, live[k].second));
        ASSERT_TRUE(ref.remove(live[k].first, live[k].second));
        live[k] = live.back();
        live.pop_back();
      } else {
        Match m;
        if (rng.chance(1, 3)) m.set(FieldId::kIpDst, rng.below(4) << 8, 0xFFFFFF00);
        if (rng.chance(1, 3)) m.set(FieldId::kIpSrc, rng.below(4));
        if (rng.chance(1, 2)) m.set(FieldId::kTcpDst, 80 + rng.below(3));
        if (rng.chance(1, 4)) m.set(FieldId::kInPort, rng.below(2));
        // A small priority set: equal-priority overlaps and replaces abound.
        const auto prio = static_cast<uint16_t>(rng.below(4));
        flow::FlowEntry e;
        e.match = m;
        e.priority = prio;
        if (std::find(live.begin(), live.end(), std::make_pair(m, prio)) == live.end())
          live.emplace_back(m, prio);
        ts.add(m, prio, op);
        ref.add(e);
      }
      ASSERT_EQ(ts.size(), ref.size());

      for (int q = 0; q < 10; ++q) {
        auto p = make_packet(
            test::tcp_spec(static_cast<uint32_t>(rng.below(5)),
                           static_cast<uint32_t>(rng.below(4) << 8 | rng.below(4)),
                           static_cast<uint16_t>(rng.below(4)),
                           static_cast<uint16_t>(80 + rng.below(4))),
            static_cast<uint32_t>(rng.below(3)));
        auto pi = parse_packet(p);
        const flow::FlowEntry* want = ref.lookup(p.data(), pi);
        const auto* got = ts.lookup(p.data(), pi);
        if (want == nullptr) {
          ASSERT_EQ(got, nullptr);
        } else {
          ASSERT_NE(got, nullptr);
          ASSERT_TRUE(got->match == want->match) << "round " << round << " op " << op;
          ASSERT_EQ(got->rank.priority, want->priority);
        }
      }
    }
  }
}

}  // namespace
}  // namespace esw
