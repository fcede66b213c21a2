#include <gtest/gtest.h>

#include "cls/tuple_space.hpp"
#include "common/rng.hpp"
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

TEST(TupleSpace, GroupsByMaskSignature) {
  TupleSpace<int> ts;
  ts.add(m_ipdst24(0x0A000100), 1, 10);
  ts.add(m_ipdst24(0x0A000200), 2, 20);
  ts.add(m_port(80), 3, 30);
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts.num_tuples(), 2u);
}

TEST(TupleSpace, LowestRankWinsAcrossTuples) {
  TupleSpace<int> ts;
  ts.add(m_port(80), 5, 100);        // less specific but better rank
  ts.add(m_ipdst24(0x0A000100), 9, 200);

  auto p = make_packet(test::tcp_spec(1, 0x0A000142, 7, 80));
  auto pi = parse_packet(p);
  const auto* e = ts.lookup(p.data(), pi);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->value, 100);
  EXPECT_EQ(e->rank, 5u);
}

TEST(TupleSpace, EarlyExitSkipsWorseTuples) {
  TupleSpace<int> ts;
  ts.add(m_port(80), 1, 1);
  for (uint32_t i = 0; i < 10; ++i) ts.add(m_ipdst24(i << 8), 100 + i, 0);

  auto p = make_packet(test::tcp_spec(1, 0x00000505, 7, 80));
  auto pi = parse_packet(p);
  TupleVisitStats visit;
  const auto* e = ts.lookup(p.data(), pi, &visit);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->value, 1);
  // The port tuple has min_rank 1; after matching there, the ip tuple
  // (min_rank 100) is never visited.
  EXPECT_EQ(visit.tuples_visited, 1u);
}

TEST(TupleSpace, VisitStatsUnionMasks) {
  TupleSpace<int> ts;
  ts.add(m_ipdst24(0x0A000100), 1, 10);
  ts.add(m_port(80), 2, 20);

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

TEST(TupleSpace, SameKeyDifferentRankChains) {
  TupleSpace<int> ts;
  const Match m = m_port(80);
  ts.add(m, 50, 1);
  ts.add(m, 10, 2);  // better rank, same key
  ts.add(m, 90, 3);

  auto p = make_packet(test::tcp_spec(1, 2, 7, 80));
  auto pi = parse_packet(p);
  EXPECT_EQ(ts.lookup(p.data(), pi)->value, 2);

  EXPECT_TRUE(ts.remove(m, 10));
  EXPECT_EQ(ts.lookup(p.data(), pi)->value, 1);
  EXPECT_TRUE(ts.remove(m, 50));
  EXPECT_EQ(ts.lookup(p.data(), pi)->value, 3);
  EXPECT_TRUE(ts.remove(m, 90));
  EXPECT_EQ(ts.lookup(p.data(), pi), nullptr);
  EXPECT_EQ(ts.num_tuples(), 0u);
  EXPECT_FALSE(ts.remove(m, 90));
}

TEST(TupleSpace, CopyIsDeepAndIndependent) {
  // The linked-list template's clone-and-swap path: a copy rebuilds every
  // tuple's index (chains with several ranks per key included) and mutating
  // it never shows through the original.
  TupleSpace<int> orig;
  for (uint16_t port = 0; port < 40; ++port) orig.add(m_port(port), 100 + port, port);
  orig.add(m_port(7), 50, 700);  // new chain head for port 7
  orig.add(m_port(7), 90, 701);  // mid-chain
  orig.add(m_ipdst24(0x0A000100), 60, 800);
  EXPECT_TRUE(orig.remove(m_port(9), 109));  // a freed slot in the copy's source

  const auto value_at = [](const TupleSpace<int>& ts, uint32_t dst, uint16_t port) {
    auto p = make_packet(test::tcp_spec(1, dst, 7, port));
    auto pi = parse_packet(p);
    const auto* e = ts.lookup(p.data(), pi);
    return e != nullptr ? e->value : -1;
  };
  const auto snapshot = [&](const TupleSpace<int>& ts) {
    std::vector<int> out;
    for (uint16_t port = 0; port < 42; ++port) {
      out.push_back(value_at(ts, 0x0B000001, port));
      out.push_back(value_at(ts, 0x0A000142, port));
    }
    return out;
  };
  const std::vector<int> before = snapshot(orig);

  TupleSpace<int> copy(orig);
  EXPECT_EQ(copy.size(), orig.size());
  EXPECT_EQ(copy.num_tuples(), orig.num_tuples());
  EXPECT_EQ(snapshot(copy), before);

  // Mutate the copy: drop a chain head, the whole ip tuple, add new keys and
  // a better rank on an existing one.
  EXPECT_TRUE(copy.remove(m_port(7), 50));
  EXPECT_TRUE(copy.remove(m_ipdst24(0x0A000100), 60));
  copy.add(m_port(41), 1, 4100);
  copy.add(m_port(3), 2, 300);
  EXPECT_EQ(value_at(copy, 0x0B000001, 7), 701);
  EXPECT_EQ(value_at(copy, 0x0A000142, 20), 20);
  EXPECT_EQ(value_at(copy, 0x0B000001, 41), 4100);
  EXPECT_EQ(value_at(copy, 0x0B000001, 3), 300);
  EXPECT_EQ(copy.num_tuples(), 1u);

  EXPECT_EQ(snapshot(orig), before);
  EXPECT_EQ(orig.num_tuples(), 2u);
}

TEST(TupleSpace, ProtocolPrerequisiteSkipsTuple) {
  TupleSpace<int> ts;
  ts.add(m_port(80), 1, 1);  // tcp tuple
  auto p = make_packet(test::udp_spec(1, 2, 7, 80));
  auto pi = parse_packet(p);
  EXPECT_EQ(ts.lookup(p.data(), pi), nullptr);
}

// Property: TSS result equals a priority-ordered linear scan.
TEST(TupleSpace, PropertyMatchesLinearScan) {
  Rng rng(21);
  for (int round = 0; round < 20; ++round) {
    TupleSpace<int> ts;
    struct Ref {
      Match m;
      uint32_t rank;
      int value;
    };
    std::vector<Ref> ref;

    const int n = 1 + static_cast<int>(rng.below(30));
    for (int i = 0; i < n; ++i) {
      Match m;
      if (rng.chance(1, 3)) m.set(FieldId::kIpDst, rng.below(4) << 8, 0xFFFFFF00);
      if (rng.chance(1, 3)) m.set(FieldId::kIpSrc, rng.below(4));
      if (rng.chance(1, 2)) m.set(FieldId::kTcpDst, 80 + rng.below(3));
      if (rng.chance(1, 4)) m.set(FieldId::kInPort, rng.below(2));
      // Unique ranks keep the comparison deterministic.
      const uint32_t rank = static_cast<uint32_t>(i);
      bool dup = false;
      for (const auto& r : ref)
        if (r.m == m) dup = true;
      if (dup) continue;
      ts.add(m, rank, i);
      ref.push_back({m, rank, i});
    }

    for (int q = 0; q < 200; ++q) {
      auto p = make_packet(
          test::tcp_spec(static_cast<uint32_t>(rng.below(5)),
                         static_cast<uint32_t>(rng.below(4) << 8 | rng.below(4)),
                         static_cast<uint16_t>(rng.below(4)),
                         static_cast<uint16_t>(80 + rng.below(4))),
          static_cast<uint32_t>(rng.below(3)));
      auto pi = parse_packet(p);

      const Ref* best = nullptr;
      for (const auto& r : ref)
        if (r.m.matches_packet(p.data(), pi) && (best == nullptr || r.rank < best->rank))
          best = &r;

      const auto* got = ts.lookup(p.data(), pi);
      if (best == nullptr) {
        ASSERT_EQ(got, nullptr);
      } else {
        ASSERT_NE(got, nullptr);
        ASSERT_EQ(got->value, best->value);
      }
    }
  }
}

}  // namespace
}  // namespace esw
