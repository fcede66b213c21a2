// Failure injection and fuzzing: malformed wire messages, mangled packets,
// hostile rule text, and armed failpoints at every resource edge — nothing
// may crash, corrupt state, or mis-handle memory; faults surface as
// CheckError, clean parse failures, or an accounted degradation (the
// docs/ROBUSTNESS.md policy table, exercised point by point below).
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <chrono>
#include <cstdlib>
#include <thread>

#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "core/eswitch.hpp"
#include "core/switch_runtime.hpp"
#include "flow/dsl.hpp"
#include "flow/wire.hpp"
#include "jit/exec_mem.hpp"
#include "netio/mbuf_pool.hpp"
#include "netio/ring.hpp"
#include "test_util.hpp"
#include "usecases/of_agent.hpp"

namespace esw {
namespace {

using namespace esw::flow;

TEST(Fuzz, WireDecoderSurvivesRandomBytes) {
  Rng rng(0xF022);
  for (int i = 0; i < 20000; ++i) {
    uint8_t buf[128];
    const size_t len = 8 + rng.below(sizeof buf - 8);
    for (size_t k = 0; k < len; ++k) buf[k] = static_cast<uint8_t>(rng.next());
    // Make a fraction look like plausible FLOW_MODs to reach deeper code.
    if (rng.chance(1, 2)) {
      buf[0] = 0x04;
      buf[1] = 14;
      buf[2] = 0;
      buf[3] = static_cast<uint8_t>(len);
    }
    try {
      (void)decode_flow_mod(buf, len);
    } catch (const CheckError&) {
      // expected for garbage
    }
  }
}

TEST(Fuzz, WireDecoderSurvivesTruncatedValidMessages) {
  FlowMod fm;
  fm.table_id = 1;
  fm.priority = 9;
  fm.match.set(FieldId::kIpDst, 0x0A000000, 0xFF000000);
  fm.match.set(FieldId::kTcpDst, 80);
  fm.actions = {Action::set_field(FieldId::kIpSrc, 1), Action::output(2)};
  fm.goto_table = 3;
  const auto bytes = encode_flow_mod(fm);
  for (size_t len = 0; len < bytes.size(); ++len) {
    try {
      (void)decode_flow_mod(bytes.data(), len);
    } catch (const CheckError&) {
    }
  }
  // Bit flips.
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    auto mutated = bytes;
    mutated[rng.below(mutated.size())] ^= static_cast<uint8_t>(1 + rng.below(255));
    try {
      (void)decode_flow_mod(mutated.data(), mutated.size());
    } catch (const CheckError&) {
    }
  }
}

TEST(Fuzz, DslSurvivesHostileRuleText) {
  Rng rng(0xD51);
  const char charset[] = "abcdefgipst_=,.:/0123456789xABCDEF priorityactons";
  for (int i = 0; i < 20000; ++i) {
    std::string s;
    const size_t len = rng.below(80);
    for (size_t k = 0; k < len; ++k) s.push_back(charset[rng.below(sizeof charset - 1)]);
    try {
      (void)parse_rule(s);
    } catch (const CheckError&) {
    }
  }
}

TEST(Fuzz, DatapathSurvivesMangledPackets) {
  // A pipeline matching on every layer, fed truncated/corrupted frames:
  // protocol-bitmask guards must keep all loads inside the parsed layers.
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=9,vlan_vid=7,tcp_dst=80,actions=output:1"));
  pl.table(0).add(parse_rule("priority=8,ip_dst=10.0.0.0/8,udp_src=5,actions=output:2"));
  pl.table(0).add(parse_rule("priority=7,icmp_type=8,actions=output:3"));
  pl.table(0).add(parse_rule("priority=6,arp_op=1,actions=output:4"));
  pl.table(0).add(parse_rule("priority=5,eth_dst=ff:ff:ff:ff:ff:ff,actions=flood"));
  pl.table(0).add(parse_rule("priority=1,actions=drop"));

  for (const bool jit : {true, false}) {
    core::CompilerConfig cfg;
    cfg.enable_jit = jit;
    core::Eswitch sw(cfg);
    sw.install(pl);
    Rng rng(0xBAD);
    for (int i = 0; i < 30000; ++i) {
      net::Packet p;
      const uint32_t len = static_cast<uint32_t>(rng.below(96));
      for (uint32_t k = 0; k < len; ++k)
        p.data()[k] = static_cast<uint8_t>(rng.next());
      // Half the time, seed a real header prefix then truncate/corrupt.
      if (rng.chance(1, 2)) {
        auto spec = test::tcp_spec(1, 2, 3, 80);
        if (rng.chance(1, 3)) spec.vlan_vid = 7;
        uint8_t buf[128];
        const uint32_t full = proto::build_packet(spec, buf, sizeof buf);
        const uint32_t cut = static_cast<uint32_t>(rng.below(full + 1));
        std::memcpy(p.data(), buf, cut);
        p.set_len(cut);
      } else {
        p.set_len(len);
      }
      p.set_in_port(static_cast<uint32_t>(rng.below(4)));
      (void)sw.process(p);  // must not crash
    }
  }
}

TEST(Fuzz, InterpreterAndJitAgreeOnMangledPackets) {
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=9,vlan_vid=7,tcp_dst=80,actions=output:1"));
  pl.table(0).add(parse_rule("priority=8,ip_src=1.2.3.4,actions=output:2"));
  pl.table(0).add(parse_rule("priority=1,eth_type=0x800,actions=output:3"));

  core::CompilerConfig jit_cfg, interp_cfg;
  jit_cfg.enable_jit = true;
  interp_cfg.enable_jit = false;
  core::Eswitch a(jit_cfg), b(interp_cfg);
  a.install(pl);
  b.install(pl);

  Rng rng(0xC0DE);
  for (int i = 0; i < 30000; ++i) {
    net::Packet p1;
    const uint32_t len = 14 + static_cast<uint32_t>(rng.below(80));
    for (uint32_t k = 0; k < len; ++k) p1.data()[k] = static_cast<uint8_t>(rng.next());
    p1.set_len(len);
    net::Packet p2 = p1;
    ASSERT_EQ(a.process(p1), b.process(p2)) << i;
  }
}

TEST(Robustness, EmptyAndDegeneratePipelines) {
  core::Eswitch sw;
  sw.install(Pipeline{});  // no tables at all
  auto p = test::make_packet(test::udp_spec(1, 2, 3, 4));
  EXPECT_EQ(sw.process(p), Verdict::drop());

  Pipeline empty_table;
  empty_table.table(0);  // table exists but is empty
  sw.install(empty_table);
  auto p2 = test::make_packet(test::udp_spec(1, 2, 3, 4));
  EXPECT_EQ(sw.process(p2), Verdict::drop());

  // Max-size frame and minimum frame.
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=1,actions=output:1"));
  sw.install(pl);
  net::Packet big;
  big.set_len(net::Packet::kMaxFrame);
  EXPECT_EQ(sw.process(big).kind, Verdict::Kind::kOutput);
  net::Packet tiny;
  tiny.set_len(0);
  EXPECT_EQ(sw.process(tiny).kind, Verdict::Kind::kOutput);  // catch-all matches
}

// ---------------------------------------------------------------------------
// Failpoint framework + per-site graceful degradation.  The registry is
// process-global, so every test disarms on the way out.
// ---------------------------------------------------------------------------

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { fpr_.disarm_all(); }
  void TearDown() override { fpr_.disarm_all(); }

  common::FailpointRegistry& fpr_ = common::FailpointRegistry::instance();
};

FlowMod add_mod(uint8_t table, const std::string& rule) {
  const FlowEntry e = parse_rule(rule);
  FlowMod fm;
  fm.table_id = table;
  fm.priority = e.priority;
  fm.match = e.match;
  fm.actions = e.actions;
  fm.goto_table = e.goto_table;
  return fm;
}

FlowMod del_mod(uint8_t table, const std::string& rule) {
  FlowMod fm = add_mod(table, rule);
  fm.command = FlowMod::Cmd::kDelete;
  fm.actions.clear();
  return fm;
}

FlowMod udp_forward_mod(uint16_t dport, uint32_t out_port) {
  FlowMod fm;
  fm.table_id = 0;
  fm.priority = 10;
  fm.match.set(FieldId::kUdpDst, dport);
  fm.actions = {Action::output(out_port)};
  return fm;
}

TEST_F(FailpointTest, SpecParsingAndModes) {
  // Bad specs are refused without arming anything.
  EXPECT_FALSE(fpr_.arm("test.spec", ""));
  EXPECT_FALSE(fpr_.arm("test.spec", "nth:0"));
  EXPECT_FALSE(fpr_.arm("test.spec", "prob:0"));
  EXPECT_FALSE(fpr_.arm("test.spec", "prob:1.5"));
  EXPECT_FALSE(fpr_.arm("test.spec", "bogus"));
  EXPECT_FALSE(fpr_.point("test.spec").armed());

  // always: every evaluation fires.
  ASSERT_TRUE(fpr_.arm("test.always", "always"));
  common::Failpoint& always = fpr_.point("test.always");
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(always.should_fire());
  EXPECT_EQ(always.hits(), 5u);
  EXPECT_EQ(always.fires(), 5u);

  // nth:N: exactly the Nth evaluation since arming, one-shot.
  ASSERT_TRUE(fpr_.arm("test.nth", "nth:3"));
  common::Failpoint& nth = fpr_.point("test.nth");
  EXPECT_FALSE(nth.should_fire());
  EXPECT_FALSE(nth.should_fire());
  EXPECT_TRUE(nth.should_fire());
  EXPECT_FALSE(nth.should_fire());
  EXPECT_EQ(nth.fires(), 1u);
  // Re-arming resets the hit counter (nth counts since arming); the fire
  // total accumulates across arms.
  ASSERT_TRUE(fpr_.arm("test.nth", "nth:1"));
  EXPECT_EQ(nth.hits(), 0u);
  EXPECT_TRUE(nth.should_fire());
  EXPECT_EQ(nth.fires(), 2u);

  // prob:1 is a valid edge: certain fire, seeded variant included.
  ASSERT_TRUE(fpr_.arm("test.prob", "prob:1:42"));
  common::Failpoint& prob = fpr_.point("test.prob");
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(prob.should_fire());

  // disarm_all returns every point to the zero-cost state.
  fpr_.disarm_all();
  EXPECT_FALSE(common::FailpointRegistry::any_armed());
  EXPECT_FALSE(always.should_fire());
  EXPECT_FALSE(fpr_.point("test.always").armed());
}

TEST_F(FailpointTest, EnvArmingSkipsBadEntries) {
  ::setenv("ESW_FAILPOINTS", "test.enva=always,test.envb=nth:2,test.bad=wat", 1);
  EXPECT_EQ(fpr_.arm_from_env(), 2u);
  ::unsetenv("ESW_FAILPOINTS");
  EXPECT_TRUE(fpr_.point("test.enva").armed());
  EXPECT_TRUE(fpr_.point("test.envb").armed());
  EXPECT_FALSE(fpr_.point("test.bad").armed());

  bool found = false;
  for (const auto& s : fpr_.snapshot())
    if (s.name == "test.enva") found = s.armed;
  EXPECT_TRUE(found);
}

TEST_F(FailpointTest, MacroShortCircuitsWhenNothingArmed) {
  // Disarmed process: the macro must not even touch the registry.
  EXPECT_FALSE(ESW_FAILPOINT("test.macro"));
  EXPECT_EQ(fpr_.point("test.macro").hits(), 0u);

  ASSERT_TRUE(fpr_.arm("test.macro", "always"));
  EXPECT_TRUE(ESW_FAILPOINT("test.macro"));
  EXPECT_EQ(fpr_.fires("test.macro"), 1u);

  fpr_.disarm_all();
  EXPECT_FALSE(ESW_FAILPOINT("test.macro"));
}

TEST_F(FailpointTest, MbufPoolAllocFailsAsIfExhausted) {
  net::MbufPool pool(8);
  ASSERT_TRUE(fpr_.arm("mbuf.alloc", "always"));
  EXPECT_EQ(pool.alloc(), nullptr);
  net::Packet* out[4];
  EXPECT_EQ(pool.alloc_bulk(out, 4), 0u);
  EXPECT_GE(pool.alloc_failures(), 2u);  // injected failures are accounted
  EXPECT_EQ(pool.available(), pool.capacity());  // nothing actually left

  fpr_.disarm_all();
  net::Packet* p = pool.alloc();
  ASSERT_NE(p, nullptr);
  pool.free(p);
  EXPECT_EQ(pool.available(), pool.capacity());
}

TEST_F(FailpointTest, RingEnqueueRejectsWithoutLosingState) {
  net::Ring ring(8);
  net::Packet pkt;
  net::Packet* in[1] = {&pkt};
  ASSERT_TRUE(fpr_.arm("ring.enqueue_mp", "always"));
  EXPECT_EQ(ring.enqueue_burst_mp(in, 1), 0u);  // caller keeps ownership

  fpr_.disarm_all();
  EXPECT_EQ(ring.enqueue_burst_mp(in, 1), 1u);
  net::Packet* out[1];
  ASSERT_EQ(ring.dequeue_burst(out, 1), 1u);
  EXPECT_EQ(out[0], &pkt);
}

TEST_F(FailpointTest, JitMapFailureFallsBackToInterpreterAndRecovers) {
  if (!jit::ExecBuffer::supported()) GTEST_SKIP() << "no executable memory";

  core::Eswitch sw;
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=5,udp_dst=1,actions=output:1"));
  pl.table(0).add(parse_rule("priority=5,udp_dst=2,actions=output:2"));

  ASSERT_TRUE(fpr_.arm("jit.exec_map", "always"));
  sw.install(pl);  // the fused emit is refused: a plan without its program
  ASSERT_EQ(sw.table_template(0), core::TableTemplate::kDirectCode);
  const uint64_t fallbacks = sw.stats().fusion_fallbacks;
  EXPECT_GE(fallbacks, 1u);
  ASSERT_TRUE(sw.fused_active());
  EXPECT_EQ(sw.datapath().fused()->program, nullptr);
  // The platform probe answers the genuine capability, not the failpoint.
  EXPECT_TRUE(jit::ExecBuffer::supported());

  // Degraded, not broken: the interpreter serves identical verdicts.
  auto p1 = test::make_packet(test::udp_spec(1, 2, 9, 1));
  EXPECT_EQ(sw.process(p1), Verdict::output(1));

  // Each update while the mapper still refuses tries the emit once more.
  sw.apply(add_mod(0, "priority=5,udp_dst=3,actions=output:3"));
  EXPECT_EQ(sw.datapath().fused()->program, nullptr);
  EXPECT_EQ(sw.stats().fusion_fallbacks, fallbacks + 1);

  // Mapping works again: the first healthy update re-emits the program.
  fpr_.disarm_all();
  sw.apply(add_mod(0, "priority=5,udp_dst=4,actions=output:4"));
  ASSERT_EQ(sw.table_template(0), core::TableTemplate::kDirectCode);
  EXPECT_NE(sw.datapath().fused()->program, nullptr);
  EXPECT_EQ(sw.stats().fusion_fallbacks, fallbacks + 1);
  auto p3 = test::make_packet(test::udp_spec(1, 2, 9, 3));
  EXPECT_EQ(sw.process(p3), Verdict::output(3));
}

TEST_F(FailpointTest, LpmTbl8ExhaustionDemotesToLinkedList) {
  // The mixed-prefix RIB shape that analysis compiles as LPM.
  Pipeline pl;
  for (int i = 0; i < 32; ++i) {
    FlowEntry e;
    e.match.set(FieldId::kIpDst, static_cast<uint32_t>(i) << 24, 0xFF000000);
    e.priority = 8;
    e.actions = {Action::output(1)};
    pl.table(0).add(e);
  }
  for (int i = 0; i < 8; ++i) {
    FlowEntry e;
    e.match.set(FieldId::kIpDst, (40u << 24) | (static_cast<uint32_t>(i) << 16),
                0xFFFF0000);
    e.priority = 16;
    e.actions = {Action::output(3)};
    pl.table(0).add(e);
  }
  core::Eswitch sw;
  sw.install(pl);
  ASSERT_EQ(sw.table_template(0), core::TableTemplate::kLpm);

  // tbl8 groups "exhausted": the >/24 add cannot extend the trie, the LPM
  // rebuild cannot either, so the table demotes to the infallible fallback.
  ASSERT_TRUE(fpr_.arm("lpm.tbl8", "always"));
  FlowMod fm;
  fm.table_id = 0;
  fm.priority = 30;
  fm.match.set(FieldId::kIpDst, (9u << 24) | 4u, 0xFFFFFFFC);
  fm.actions = {Action::output(9)};
  sw.apply(fm);  // must not throw out of the session
  EXPECT_GE(sw.stats().template_fallbacks, 1u);
  EXPECT_EQ(sw.table_template(0), core::TableTemplate::kLinkedList);

  // No rule lost across the demotion, the new one included.
  auto in_30 = test::make_packet(test::udp_spec(1, (9u << 24) | 5u, 4, 4));
  EXPECT_EQ(sw.process(in_30), Verdict::output(9));
  auto in_8 = test::make_packet(test::udp_spec(1, (9u << 24) | (1u << 16), 4, 4));
  EXPECT_EQ(sw.process(in_8), Verdict::output(1));
}

TEST_F(FailpointTest, HashInsertRefusalFallsBackToRebuild) {
  Pipeline pl;
  for (int i = 0; i < 20; ++i)
    pl.table(0).add(parse_rule("priority=5,udp_dst=" + std::to_string(i) +
                               ",actions=output:1"));
  core::Eswitch sw;
  sw.install(pl);
  ASSERT_EQ(sw.table_template(0), core::TableTemplate::kCuckooHash);
  const auto rebuilds_before = sw.update_stats().table_rebuilds;

  ASSERT_TRUE(fpr_.arm("hash.insert", "always"));
  sw.apply(add_mod(0, "priority=5,udp_dst=999,actions=output:7"));
  EXPECT_GT(sw.update_stats().table_rebuilds, rebuilds_before);
  auto p = test::make_packet(test::udp_spec(1, 2, 9, 999));
  EXPECT_EQ(sw.process(p), Verdict::output(7));
}

TEST_F(FailpointTest, TupleInsertRefusalFallsBackToRebuild) {
  // Masked rules land on the linked-list (tuple-space) template.
  Pipeline pl;
  for (int i = 0; i < 20; ++i)
    pl.table(0).add(parse_rule("priority=5,udp_dst=" + std::to_string(i) +
                               ",actions=output:1"));
  pl.table(0).add(parse_rule("priority=9,udp_dst=0x100/0x100,actions=output:2"));
  core::Eswitch sw;
  sw.install(pl);
  ASSERT_EQ(sw.table_template(0), core::TableTemplate::kLinkedList);
  const auto rebuilds_before = sw.update_stats().table_rebuilds;

  ASSERT_TRUE(fpr_.arm("tuple.insert", "always"));
  // try_add refuses; the rebuild's build() path is deliberately failpoint-free
  // (the last resort of the fallback chain must stay infallible).
  sw.apply(add_mod(0, "priority=5,udp_dst=99,actions=output:7"));
  EXPECT_GT(sw.update_stats().table_rebuilds, rebuilds_before);
  auto p = test::make_packet(test::udp_spec(1, 2, 9, 99));
  EXPECT_EQ(sw.process(p), Verdict::output(7));
}

TEST_F(FailpointTest, EpochReclaimStallGrowsBacklogThenDrains) {
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=5,udp_dst=1,actions=output:1"));
  core::Eswitch sw;
  sw.install(pl);
  ASSERT_EQ(sw.table_template(0), core::TableTemplate::kDirectCode);

  // Reclamation "stuck": every rebuild retires, nothing matures.
  ASSERT_TRUE(fpr_.arm("epoch.reclaim", "always"));
  const auto reclaimed_before = sw.reclaim_stats().reclaimed;
  for (int i = 0; i < 6; ++i) {
    const std::string rule =
        "priority=5,udp_dst=" + std::to_string(100 + i) + ",actions=output:2";
    sw.apply(add_mod(0, rule));
    sw.apply(del_mod(0, rule));
  }
  EXPECT_GT(sw.reclaim_stats().pending, 0u);
  EXPECT_EQ(sw.reclaim_stats().reclaimed, reclaimed_before);

  // Unstuck: the next update's reclaim drains the whole backlog.
  fpr_.disarm_all();
  sw.apply(add_mod(0, "priority=5,udp_dst=200,actions=output:2"));
  EXPECT_EQ(sw.reclaim_stats().pending, 0u);
  EXPECT_GT(sw.reclaim_stats().reclaimed, reclaimed_before);
}

TEST_F(FailpointTest, TableFullRefusalKeepsSessionAndDataplaneUp) {
  core::CompilerConfig cfg;
  cfg.table_capacity = 2;
  core::Eswitch sw(cfg);
  sw.install(Pipeline{});
  uc::OfAgent agent(uc::make_dataplane_callbacks(sw));
  uc::OfController ctrl(agent.controller_fd());
  uc::run_handshake(agent, ctrl);

  ctrl.send_flow_mod(udp_forward_mod(1, 1));
  ctrl.send_flow_mod(udp_forward_mod(2, 2));
  ctrl.send_flow_mod(udp_forward_mod(3, 3));  // over capacity
  agent.poll();
  ctrl.poll();

  // The overflowing add is refused with OFPFMFC_TABLE_FULL — the canonical
  // wire-visible degradation — and nothing else is disturbed.
  const auto errors = ctrl.take_errors();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].type, kErrTypeFlowModFailed);
  EXPECT_EQ(errors[0].code, kErrCodeTableFull);
  EXPECT_TRUE(agent.session_open());
  EXPECT_EQ(sw.pipeline().find_table(0)->size(), 2u);
  EXPECT_EQ(sw.stats().mods_refused_table_full, 1u);
  auto p = test::make_packet(test::udp_spec(1, 2, 9, 1));
  EXPECT_EQ(sw.process(p), Verdict::output(1));

  // Replacing an existing (match, priority) does not consume capacity.
  ctrl.send_flow_mod(udp_forward_mod(2, 9));
  agent.poll();
  ctrl.poll();
  EXPECT_TRUE(ctrl.take_errors().empty());
  auto p2 = test::make_packet(test::udp_spec(1, 2, 9, 2));
  EXPECT_EQ(sw.process(p2), Verdict::output(9));

  // A delete frees room for the next add.
  FlowMod del = udp_forward_mod(1, 1);
  del.command = FlowMod::Cmd::kDelete;
  del.actions.clear();
  ctrl.send_flow_mod(del);
  ctrl.send_flow_mod(udp_forward_mod(7, 7));
  agent.poll();
  ctrl.poll();
  EXPECT_TRUE(ctrl.take_errors().empty());
  EXPECT_EQ(sw.pipeline().find_table(0)->size(), 2u);
}

TEST_F(FailpointTest, OfAgentSurvivesInjectedShortIoAndEintr) {
  ASSERT_TRUE(fpr_.arm("ofagent.write", "nth:1"));
  ASSERT_TRUE(fpr_.arm("ofagent.write_short", "always"));
  ASSERT_TRUE(fpr_.arm("ofagent.read", "nth:1"));

  core::Eswitch sw;
  sw.install(Pipeline{});
  uc::OfAgent agent(uc::make_dataplane_callbacks(sw));  // HELLO rides the faults
  uc::OfController ctrl(agent.controller_fd());
  uc::run_handshake(agent, ctrl);
  EXPECT_TRUE(agent.session_open());

  ctrl.send_flow_mod(udp_forward_mod(53, 2));
  ctrl.send_barrier();
  agent.poll();
  ctrl.poll();
  EXPECT_EQ(ctrl.take_barrier_replies().size(), 1u);
  EXPECT_EQ(sw.pipeline().find_table(0)->size(), 1u);
  EXPECT_GT(agent.stats().io_retries, 0u);  // the continuations are accounted
}

TEST_F(FailpointTest, OfAgentReconnectsAfterPeerLoss) {
  core::Eswitch sw;
  sw.install(Pipeline{});
  uc::OfAgent agent(uc::make_dataplane_callbacks(sw));
  {
    uc::OfController ctrl(agent.controller_fd());
    uc::run_handshake(agent, ctrl);
  }
  EXPECT_TRUE(agent.session_open());

  // Sever the channel: the agent must notice, back off, and re-open.
  ::shutdown(agent.controller_fd(), SHUT_RDWR);
  for (int i = 0; i < 10 && agent.stats().reconnects == 0; ++i) agent.poll();
  EXPECT_EQ(agent.stats().reconnects, 1u);
  EXPECT_FALSE(agent.channel_down());
  EXPECT_FALSE(agent.session_open());  // fresh channel, fresh handshake

  // The replacement channel carries a full session again.
  uc::OfController ctrl2(agent.controller_fd());
  uc::run_handshake(agent, ctrl2);
  EXPECT_TRUE(agent.session_open());
  ctrl2.send_flow_mod(udp_forward_mod(53, 2));
  agent.poll();
  EXPECT_EQ(sw.pipeline().find_table(0)->size(), 1u);
}

TEST_F(FailpointTest, RuntimeBackpressureOnPoolExhaustion) {
  core::SwitchRuntime<core::Eswitch>::Config cfg;
  cfg.n_workers = 1;
  cfg.n_ports = 2;
  cfg.pool_capacity = 64;
  core::SwitchRuntime<core::Eswitch> rt(cfg);
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=1,actions=drop"));
  rt.backend().install(pl);
  const net::Packet frame = test::make_packet(test::udp_spec(1, 2, 9, 5));
  rt.set_source([&](uint32_t, net::Packet** bufs, uint32_t n) {
    for (uint32_t i = 0; i < n; ++i) bufs[i]->assign(frame.data(), frame.len());
    return n;
  });

  // As-if exhausted pool: the worker must pause (bounded), not spin or crash.
  ASSERT_TRUE(fpr_.arm("mbuf.alloc", "always"));
  rt.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  fpr_.disarm_all();
  // Recovery: buffers "return" and the pipeline moves again.
  const auto t_end = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rt.counters().processed == 0 && std::chrono::steady_clock::now() < t_end)
    std::this_thread::yield();
  rt.stop();

  const auto c = rt.counters();
  EXPECT_GT(c.pool_exhausted, 0u);
  EXPECT_GT(c.backpressure_events, 0u);
  EXPECT_GT(c.processed, 0u);  // forwarding resumed after the fault cleared
}

TEST_F(FailpointTest, WatchdogRecoversStalledParkedWorker) {
  core::SwitchRuntime<core::Eswitch>::Config cfg;
  cfg.n_workers = 1;
  cfg.n_ports = 2;
  core::SwitchRuntime<core::Eswitch> rt(cfg);
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=1,actions=drop"));
  rt.backend().install(pl);

  // A wedged worker parks without ticking its epoch slot; only the watchdog's
  // quiesce-on-parked recovery unpins the reclamation horizon.
  ASSERT_TRUE(fpr_.arm("runtime.worker_stall", "always"));
  rt.start();
  uint32_t stalled = 0, recovered = 0;
  for (int i = 0; i < 400 && recovered == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    const auto rep = rt.watchdog_scan();
    stalled += rep.stalled;
    recovered += rep.recovered;
  }
  fpr_.disarm_all();
  rt.stop();

  EXPECT_GT(stalled, 0u);
  EXPECT_GT(recovered, 0u);
  EXPECT_EQ(rt.watchdog_recovered_total(), recovered);
  EXPECT_GE(rt.watchdog_stalled_total(), rt.watchdog_recovered_total());
}

}  // namespace
}  // namespace esw
