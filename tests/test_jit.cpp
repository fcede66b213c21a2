#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "common/rng.hpp"
#include "core/compiler.hpp"
#include "core/lowering.hpp"
#include "jit/fusion.hpp"
#include "test_util.hpp"
#include "testing/seed.hpp"

namespace esw {
namespace {

using namespace esw::jit;
using flow::FieldId;
using test::ip;
using test::make_packet;
using test::parse_packet;

/// One table rendered by the fused emitter: a one-member program at stage 0
/// whose goto slot k maps to stage k + 1, so every goto leaves the program.
/// Calls decode the exit word and the action id back into the packed result
/// (jit::pack_result / kMissResult) the interpreter returns.
class OneTable {
 public:
  static std::optional<OneTable> compile(const std::vector<LoweredEntry>& entries) {
    std::vector<int32_t> stage_of_slot(kSlots);
    for (uint32_t k = 0; k < kSlots; ++k) stage_of_slot[k] = static_cast<int32_t>(k + 1);
    auto prog = FusedProgram::compile({{0, &entries}}, stage_of_slot, kSlots + 1);
    if (prog == nullptr) return std::nullopt;
    return OneTable(std::move(prog));
  }

  uint64_t operator()(const uint8_t* pkt, const proto::ParseInfo& pi) const {
    int32_t actions[1];                     // one hit appends at most one id
    uint64_t stats[kFusedStatStride] = {};  // stage 0's counters only
    const uint64_t w = prog_->entry(0)(pkt, &pi, actions, stats);
    if ((w & kFusedMiss) != 0) return kMissResult;
    const int32_t action = fused_exit_actions(w) != 0 ? actions[0] : -1;
    const int32_t next =
        (w & kFusedCompleted) != 0 ? -1 : static_cast<int32_t>(fused_exit_stage(w)) - 1;
    return pack_result(action, next);
  }

  size_t code_size() const { return prog_->code_size(); }

 private:
  static constexpr uint32_t kSlots = 16;
  explicit OneTable(std::shared_ptr<const FusedProgram> prog) : prog_(std::move(prog)) {}
  std::shared_ptr<const FusedProgram> prog_;
};

TEST(ExecMem, Supported) { EXPECT_TRUE(ExecBuffer::supported()); }

TEST(Jit, EmptyTableAlwaysMisses) {
  auto fn = OneTable::compile({});
  ASSERT_TRUE(fn.has_value());
  auto p = make_packet(test::udp_spec(1, 2, 3, 4));
  auto pi = parse_packet(p);
  EXPECT_EQ((*fn)(p.data(), pi), kMissResult);
}

TEST(Jit, PackedResultRoundTrip) {
  for (int32_t a : {-1, 0, 7, 1 << 20}) {
    for (int32_t n : {-1, 0, 255, 70000}) {
      int32_t a2, n2;
      unpack_result(pack_result(a, n), a2, n2);
      EXPECT_EQ(a2, a);
      EXPECT_EQ(n2, n);
    }
  }
  EXPECT_NE(pack_result(-1, -1), kMissResult);  // no-action/no-goto is a hit
}

// One lowered entry per field: JIT must agree with hit and near-miss packets.
TEST(Jit, SingleFieldMatchers) {
  proto::PacketSpec s = test::tcp_spec(ip("192.168.1.1"), ip("10.9.8.7"), 4242, 80);
  s.eth_dst = 0x0A0B0C0D0E0F;
  s.eth_src = 0x010203040506;
  s.vlan_vid = 99;
  s.vlan_pcp = 3;
  s.ip_ttl = 17;
  s.ip_dscp = 11;
  auto p = make_packet(s, 7);
  auto pi = parse_packet(p);

  for (unsigned i = 0; i < flow::kNumFields; ++i) {
    const FieldId f = static_cast<FieldId>(i);
    if (!flow::field_present(f, pi)) continue;
    const uint64_t v = flow::extract_field(f, p.data(), pi);

    LoweredEntry e;
    e.proto_required = flow::field_info(f).proto_required;
    e.tests.push_back(core::lower_field_test(f, v, flow::field_full_mask(f)));
    e.result = pack_result(5, -1);
    auto fn = OneTable::compile({e});
    ASSERT_TRUE(fn.has_value());
    EXPECT_EQ((*fn)(p.data(), pi), e.result) << flow::field_info(f).name;

    // Flip the value: must miss.
    LoweredEntry miss = e;
    miss.tests[0] = core::lower_field_test(f, v ^ 1, flow::field_full_mask(f));
    auto fn2 = OneTable::compile({miss});
    EXPECT_EQ((*fn2)(p.data(), pi), kMissResult) << flow::field_info(f).name;
  }
}

TEST(Jit, ProtocolGuardRejectsWrongProtocol) {
  // tcp_dst matcher must not fire on a UDP packet even though the bytes at
  // the L4 offset would compare equal.
  LoweredEntry e;
  e.proto_required = proto::kProtoIpv4 | proto::kProtoTcp;
  e.tests.push_back(core::lower_field_test(FieldId::kTcpDst, 80, 0xFFFF));
  e.result = pack_result(1, -1);
  auto fn = OneTable::compile({e});
  ASSERT_TRUE(fn.has_value());

  auto tcp = make_packet(test::tcp_spec(1, 2, 9, 80));
  auto udp = make_packet(test::udp_spec(1, 2, 9, 80));
  auto pit = parse_packet(tcp);
  auto piu = parse_packet(udp);
  EXPECT_EQ((*fn)(tcp.data(), pit), e.result);
  EXPECT_EQ((*fn)(udp.data(), piu), kMissResult);
}

TEST(Jit, MultiBitProtocolGuard) {
  LoweredEntry e;
  e.proto_required = proto::kProtoIpv4 | proto::kProtoVlan | proto::kProtoUdp;
  e.result = pack_result(0, -1);
  auto fn = OneTable::compile({e});
  ASSERT_TRUE(fn.has_value());

  auto spec = test::udp_spec(1, 2, 3, 4);
  auto plain = make_packet(spec);
  spec.vlan_vid = 5;
  auto tagged = make_packet(spec);
  auto pi1 = parse_packet(plain);
  auto pi2 = parse_packet(tagged);
  EXPECT_EQ((*fn)(plain.data(), pi1), kMissResult);
  EXPECT_EQ((*fn)(tagged.data(), pi2), e.result);
}

TEST(Jit, PriorityOrderFirstEntryWins) {
  LoweredEntry hi, lo;
  hi.proto_required = proto::kProtoIpv4;
  hi.tests.push_back(core::lower_field_test(FieldId::kIpDst, 0x0A000002, 0xFFFFFFFF));
  hi.result = pack_result(1, -1);
  lo.proto_required = proto::kProtoIpv4;
  lo.tests.push_back(core::lower_field_test(FieldId::kIpDst, 0x0A000002, 0xFFFFFF00));
  lo.result = pack_result(2, -1);
  auto fn = OneTable::compile({hi, lo});
  ASSERT_TRUE(fn.has_value());

  auto exact = make_packet(test::udp_spec(1, 0x0A000002, 3, 4));
  auto other = make_packet(test::udp_spec(1, 0x0A000099, 3, 4));
  auto pi1 = parse_packet(exact);
  auto pi2 = parse_packet(other);
  EXPECT_EQ((*fn)(exact.data(), pi1), hi.result);
  EXPECT_EQ((*fn)(other.data(), pi2), lo.result);
}

TEST(Jit, CalleeSavedRegistersPreserved) {
  LoweredEntry e;
  e.proto_required = proto::kProtoEth;
  e.result = pack_result(3, 9);
  auto fn = OneTable::compile({e});
  ASSERT_TRUE(fn.has_value());
  auto p = make_packet(test::udp_spec(1, 2, 3, 4));
  auto pi = parse_packet(p);

  // Hammer the function amid live register pressure; miscompiled prologues
  // corrupt the loop counters.
  uint64_t acc = 0;
  for (uint64_t i = 0; i < 100000; ++i) acc += (*fn)(p.data(), pi) + i;
  uint64_t expect = 0;
  for (uint64_t i = 0; i < 100000; ++i) expect += e.result + i;
  EXPECT_EQ(acc, expect);
}

// The big one: random rule tables, random packets — JIT output must equal the
// portable interpreter bit for bit.
TEST(Jit, DifferentialAgainstInterpreter) {
  Rng rng(esw::testing::test_seed(0xD1FF, "Jit.DifferentialAgainstInterpreter"));
  const FieldId fields[] = {FieldId::kInPort, FieldId::kEthDst,  FieldId::kEthType,
                            FieldId::kVlanVid, FieldId::kIpSrc,  FieldId::kIpDst,
                            FieldId::kIpProto, FieldId::kTcpDst, FieldId::kUdpSrc,
                            FieldId::kIpTtl};

  for (int round = 0; round < 40; ++round) {
    std::vector<LoweredEntry> entries;
    const int n = 1 + static_cast<int>(rng.below(8));
    for (int i = 0; i < n; ++i) {
      LoweredEntry e;
      uint32_t req = 0;
      const int nf = 1 + static_cast<int>(rng.below(3));
      for (int k = 0; k < nf; ++k) {
        const FieldId f = fields[rng.below(std::size(fields))];
        const uint64_t full = flow::field_full_mask(f);
        const uint64_t value = rng.next() & full;
        // Random mask, biased toward full.
        const uint64_t mask = rng.chance(2, 3) ? full : (rng.next() & full) | 1;
        e.tests.push_back(core::lower_field_test(f, value, mask));
        req |= flow::field_info(f).proto_required;
      }
      e.proto_required = req;
      e.result = pack_result(i, rng.chance(1, 4) ? static_cast<int32_t>(rng.below(4)) : -1);
      entries.push_back(std::move(e));
    }
    auto fn = OneTable::compile(entries);
    ASSERT_TRUE(fn.has_value());

    for (int q = 0; q < 200; ++q) {
      proto::PacketSpec s;
      const int kind = static_cast<int>(rng.below(4));
      s.kind = kind == 0   ? proto::PacketKind::kTcp
               : kind == 1 ? proto::PacketKind::kUdp
               : kind == 2 ? proto::PacketKind::kIcmp
                           : proto::PacketKind::kArp;
      if (rng.chance(1, 3)) s.vlan_vid = static_cast<uint16_t>(rng.below(4096));
      s.eth_dst = rng.next() & 0xFFFFFFFFFFFF;
      s.ip_src = static_cast<uint32_t>(rng.next());
      s.ip_dst = static_cast<uint32_t>(rng.next());
      s.sport = static_cast<uint16_t>(rng.next());
      s.dport = static_cast<uint16_t>(rng.next());
      s.ip_ttl = static_cast<uint8_t>(1 + rng.below(255));
      auto p = make_packet(s, static_cast<uint32_t>(rng.below(8)));
      auto pi = parse_packet(p);

      const uint64_t want = interpret(entries.data(), entries.size(), p.data(), pi);
      const uint64_t got = (*fn)(p.data(), pi);
      ASSERT_EQ(got, want) << "round " << round << " query " << q;
    }
  }
}

/// Arms the ExecBuffer failure hook for one scope.
struct ExecFailGuard {
  ExecFailGuard() { ExecBuffer::force_failure_for_testing(true); }
  ~ExecFailGuard() { ExecBuffer::force_failure_for_testing(false); }
};

// The compile-failure fallback: when executable memory is refused (hardened
// kernels — forced here via the test hook), the fused emit reports failure
// and the direct-code *table* runs the same lowered IR through the portable
// interpreter with results identical to the machine code.
TEST(Jit, CompileFailureFallsBackToInterpreter) {
  Rng rng(esw::testing::test_seed(0xFA11BACC, "Jit.CompileFailureFallsBackToInterpreter"));

  for (int round = 0; round < 10; ++round) {
    // A small random control-plane table (the direct-code-eligible shape).
    std::vector<core::BuildEntry> entries;
    const int n = 1 + static_cast<int>(rng.below(4));
    for (int i = 0; i < n; ++i) {
      core::BuildEntry e;
      const int nf = static_cast<int>(rng.below(3));
      for (int k = 0; k < nf; ++k) {
        const FieldId f = static_cast<FieldId>(rng.below(flow::kNumFields));
        const uint64_t full = flow::field_full_mask(f);
        e.match.set(f, rng.next() & full, rng.chance(1, 2) ? full : (rng.next() & full) | 1);
      }
      e.priority = static_cast<uint16_t>(100 - i);
      e.actions.push_back(flow::Action::output(1 + static_cast<uint32_t>(rng.below(4))));
      entries.push_back(std::move(e));
    }

    flow::ActionSetRegistry reg;
    const core::GotoMap gmap(256, -1);
    core::BuildCtx ctx{reg, gmap};
    const auto table = core::DirectCodeTable::build(entries, ctx);
    const auto jitted = OneTable::compile(table->lowered());
    ASSERT_TRUE(jitted.has_value());
    {
      ExecFailGuard guard;
      EXPECT_FALSE(OneTable::compile(table->lowered()).has_value())
          << "hook did not force compile failure";
    }

    for (int q = 0; q < 100; ++q) {
      proto::PacketSpec s;
      s.kind = rng.chance(1, 2) ? proto::PacketKind::kTcp : proto::PacketKind::kUdp;
      s.eth_dst = rng.next() & 0xFFFFFFFFFFFF;
      s.ip_src = static_cast<uint32_t>(rng.next());
      s.ip_dst = static_cast<uint32_t>(rng.next());
      s.sport = static_cast<uint16_t>(rng.next());
      s.dport = static_cast<uint16_t>(rng.next());
      auto p = make_packet(s, static_cast<uint32_t>(rng.below(8)));
      auto pi = parse_packet(p);
      ASSERT_EQ((*jitted)(p.data(), pi), table->lookup(p.data(), pi, nullptr))
          << "round " << round << " query " << q;
    }
  }
}

// Randomized LoweredEntry sets straight through OneTable::compile vs the
// interpreter, with the failure hook cycling mid-test: arming it must fail
// compilation, disarming must restore it, and interpreter results are the
// ground truth throughout.
TEST(Jit, FailureHookCyclesCleanly) {
  LoweredEntry e;
  e.proto_required = proto::kProtoIpv4;
  e.tests.push_back(core::lower_field_test(FieldId::kIpDst, 0x01020304, 0xFFFFFFFF));
  e.result = pack_result(2, -1);

  ASSERT_TRUE(OneTable::compile({e}).has_value());
  {
    ExecFailGuard guard;
    EXPECT_FALSE(OneTable::compile({e}).has_value());
  }
  auto fn = OneTable::compile({e});
  ASSERT_TRUE(fn.has_value());

  auto hit = make_packet(test::udp_spec(9, 0x01020304, 1, 2));
  auto pi = parse_packet(hit);
  EXPECT_EQ((*fn)(hit.data(), pi), e.result);
  EXPECT_EQ(interpret(&e, 1, hit.data(), pi), e.result);
}

TEST(Jit, CodeSizeScalesWithEntries) {
  std::vector<LoweredEntry> entries;
  LoweredEntry e;
  e.proto_required = proto::kProtoIpv4;
  e.tests.push_back(core::lower_field_test(FieldId::kIpDst, 1, 0xFFFFFFFF));
  e.result = pack_result(0, -1);
  entries.push_back(e);
  auto one = OneTable::compile(entries);
  for (int i = 0; i < 9; ++i) entries.push_back(e);
  auto ten = OneTable::compile(entries);
  ASSERT_TRUE(one && ten);
  EXPECT_GT(ten->code_size(), one->code_size());
  EXPECT_LT(ten->code_size(), 4096u);  // stays compact
}

}  // namespace
}  // namespace esw
