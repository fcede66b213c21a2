#include <gtest/gtest.h>

#include <sys/socket.h>

#include "core/eswitch.hpp"
#include "core/switch_runtime.hpp"
#include "ovs/ovs_switch.hpp"
#include "test_util.hpp"
#include "usecases/of_agent.hpp"

namespace esw {
namespace {

using namespace esw::flow;

FlowMod udp_forward_mod(uint16_t dport, uint32_t out_port) {
  FlowMod fm;
  fm.table_id = 0;
  fm.priority = 10;
  fm.match.set(FieldId::kUdpDst, dport);
  fm.actions = {Action::output(out_port)};
  return fm;
}

TEST(OfAgent, HandshakeOpensSession) {
  core::Eswitch sw;
  sw.install(Pipeline{});
  uc::OfAgent agent(uc::make_dataplane_callbacks(sw), 0xABCD);
  uc::OfController ctrl(agent.controller_fd());

  EXPECT_FALSE(agent.session_open());
  ctrl.send_hello();
  agent.poll();
  EXPECT_TRUE(agent.session_open());
  ctrl.poll();
  EXPECT_TRUE(ctrl.hello_seen());

  const uint32_t xid = ctrl.send_features_request();
  agent.poll();
  ctrl.poll();
  ASSERT_TRUE(ctrl.features().has_value());
  EXPECT_EQ(ctrl.features()->xid, xid);  // reply carries the request xid
  EXPECT_EQ(ctrl.features()->datapath_id, 0xABCDu);
  EXPECT_EQ(ctrl.outstanding(), 0u);
}

TEST(OfAgent, RejectsFlowModBeforeHello) {
  core::Eswitch sw;
  sw.install(Pipeline{});
  uc::OfAgent agent(uc::make_dataplane_callbacks(sw));
  uc::OfController ctrl(agent.controller_fd());

  ctrl.send_flow_mod(udp_forward_mod(53, 2));  // no HELLO yet
  agent.poll();
  ctrl.poll();
  const auto errors = ctrl.take_errors();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].type, kErrTypeBadRequest);
  EXPECT_EQ(agent.stats().flow_mods, 0u);
  EXPECT_TRUE(sw.pipeline().empty());  // nothing was applied
}

TEST(OfAgent, EchoRoundTripKeepsXid) {
  core::Eswitch sw;
  sw.install(Pipeline{});
  uc::OfAgent agent(uc::make_dataplane_callbacks(sw));
  uc::OfController ctrl(agent.controller_fd());
  uc::run_handshake(agent, ctrl);

  ctrl.send_echo({1, 2, 3});
  agent.poll();
  ctrl.poll();
  EXPECT_EQ(agent.stats().echoes, 1u);
  EXPECT_EQ(ctrl.outstanding(), 0u);  // reply settled the xid
}

TEST(OfAgent, BarrierConfirmsEarlierMods) {
  core::Eswitch sw;
  sw.install(Pipeline{});
  uc::OfAgent agent(uc::make_dataplane_callbacks(sw));
  uc::OfController ctrl(agent.controller_fd());
  uc::run_handshake(agent, ctrl);

  ctrl.send_flow_mod(udp_forward_mod(53, 2));
  ctrl.send_flow_mod(udp_forward_mod(54, 3));
  const uint32_t bxid = ctrl.send_barrier();
  agent.poll();  // one poll dispatches all three, in order
  ctrl.poll();

  const auto replies = ctrl.take_barrier_replies();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0], bxid);
  EXPECT_TRUE(ctrl.take_barrier_replies().empty());
  // Barrier semantics: by reply time both mods are live in the datapath.
  auto p = test::make_packet(test::udp_spec(1, 2, 9, 53));
  EXPECT_EQ(sw.process(p), Verdict::output(2));
  auto q = test::make_packet(test::udp_spec(1, 2, 9, 54));
  EXPECT_EQ(sw.process(q), Verdict::output(3));
}

TEST(OfAgent, GarbageFrameAnswersErrorAndSessionSurvives) {
  core::Eswitch sw;
  sw.install(Pipeline{});
  uc::OfAgent agent(uc::make_dataplane_callbacks(sw));
  uc::OfController ctrl(agent.controller_fd());
  uc::run_handshake(agent, ctrl);

  // A frame with a valid header (type FLOW_MOD) but a garbage body.
  uint8_t bad[16] = {0x04, 14, 0, 16, 0, 0, 0, 99, 0xFF, 0xFF, 0xFF, 0xFF,
                     0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(::send(agent.controller_fd(), bad, sizeof bad, 0),
            static_cast<ssize_t>(sizeof bad));
  agent.poll();
  ctrl.poll();
  ASSERT_EQ(ctrl.take_errors().size(), 1u);

  // The session still works afterwards.
  ctrl.send_flow_mod(udp_forward_mod(53, 2));
  agent.poll();
  EXPECT_EQ(agent.stats().flow_mods, 1u);
}

TEST(OfAgent, SemanticallyInvalidFlowModAnswersErrorAndSessionSurvives) {
  core::Eswitch sw;
  sw.install(Pipeline{});
  uc::OfAgent agent(uc::make_dataplane_callbacks(sw));
  uc::OfController ctrl(agent.controller_fd());
  uc::run_handshake(agent, ctrl);

  // Wire-valid, semantically invalid: goto must go forward.
  FlowMod bad = udp_forward_mod(53, 2);
  bad.table_id = 1;
  bad.goto_table = 0;
  ctrl.send_flow_mod(bad);
  EXPECT_NO_THROW(agent.poll());  // the session must survive
  ctrl.poll();
  const auto errors = ctrl.take_errors();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].type, kErrTypeFlowModFailed);
  EXPECT_TRUE(sw.pipeline().empty());  // refused, nothing applied

  // And it still processes good mods afterwards.
  ctrl.send_flow_mod(udp_forward_mod(53, 2));
  agent.poll();
  auto p = test::make_packet(test::udp_spec(1, 2, 9, 53));
  EXPECT_EQ(sw.process(p), Verdict::output(2));
}

TEST(OfAgent, PacketInBackpressureDropsInsteadOfBlocking) {
  core::Eswitch sw;
  sw.install(Pipeline{});
  uc::OfAgent agent(uc::make_dataplane_callbacks(sw));
  uc::OfController ctrl(agent.controller_fd());
  uc::run_handshake(agent, ctrl);

  // Flood the channel without the controller draining: the agent must never
  // block — excess punts are dropped and counted.
  std::vector<uint8_t> frame(1400, 0xAB);
  for (int i = 0; i < 2000; ++i)
    agent.send_packet_in(frame.data(), frame.size(), 1);
  EXPECT_GT(agent.stats().tx_dropped, 0u);
  EXPECT_GT(agent.stats().packet_ins_sent, 0u);
  EXPECT_EQ(agent.stats().packet_ins_sent + agent.stats().tx_dropped, 2000u);
  // What did ship is intact and decodable.
  EXPECT_GT(ctrl.poll(), 0u);
  EXPECT_FALSE(ctrl.take_packet_ins().empty());
}

TEST(OfAgent, ControllerBoundTypesAtSwitchAreRejected) {
  core::Eswitch sw;
  sw.install(Pipeline{});
  uc::OfAgent agent(uc::make_dataplane_callbacks(sw));
  uc::OfController ctrl(agent.controller_fd());
  uc::run_handshake(agent, ctrl);

  // A PACKET_IN arriving at the *switch* is protocol misuse.
  PacketIn pin;
  pin.in_port = 1;
  pin.frame = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  const auto bytes = encode_packet_in(pin);
  ASSERT_EQ(::send(agent.controller_fd(), bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
  agent.poll();
  ctrl.poll();
  ASSERT_EQ(ctrl.take_errors().size(), 1u);
}

TEST(OfAgent, ControllerDoesNotReplayFramesAfterBadReply) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  uc::OfController ctrl(fds[0]);

  // Peer sends a valid HELLO followed by a reply with an unknown xid.
  auto stream = encode_hello({1});
  const auto bogus = encode_barrier_reply({0xDEAD});
  stream.insert(stream.end(), bogus.begin(), bogus.end());
  ASSERT_EQ(::send(fds[1], stream.data(), stream.size(), 0),
            static_cast<ssize_t>(stream.size()));

  EXPECT_THROW(ctrl.poll(), CheckError);  // xid discipline rejects the reply
  EXPECT_TRUE(ctrl.hello_seen());         // ...but the HELLO was processed
  // Both frames were consumed: nothing replays, the session can continue.
  EXPECT_EQ(ctrl.poll(), 0u);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(OfAgent, PacketInReachesController) {
  core::Eswitch sw;
  sw.install(Pipeline{});
  uc::OfAgent agent(uc::make_dataplane_callbacks(sw));
  uc::OfController ctrl(agent.controller_fd());
  uc::run_handshake(agent, ctrl);

  const uint8_t frame[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0x08, 0x00};
  agent.send_packet_in(frame, sizeof frame, 7, 3, PacketIn::Reason::kNoMatch);
  ctrl.poll();
  const auto pins = ctrl.take_packet_ins();
  ASSERT_EQ(pins.size(), 1u);
  EXPECT_EQ(pins[0].in_port, 7u);
  EXPECT_EQ(pins[0].table_id, 3u);
  EXPECT_EQ(pins[0].reason, PacketIn::Reason::kNoMatch);
  ASSERT_EQ(pins[0].frame.size(), sizeof frame);
  EXPECT_EQ(std::memcmp(pins[0].frame.data(), frame, sizeof frame), 0);
}

TEST(OfAgent, FlowAndTableStatsOverSession) {
  core::Eswitch sw;
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=10, udp_dst=53, actions=output:2, goto:1"));
  pl.table(0).add(parse_rule("priority=5, tcp_dst=80, actions=output:3"));
  pl.table(1).add(parse_rule("priority=1, actions=drop"));
  sw.install(pl);
  uc::OfAgent agent(uc::make_dataplane_callbacks(sw));
  uc::OfController ctrl(agent.controller_fd());
  uc::run_handshake(agent, ctrl);

  // All tables.
  ctrl.send_flow_stats_request();
  agent.poll();
  ctrl.poll();
  auto replies = ctrl.take_flow_stats();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].entries.size(), 3u);

  // Filtered by table and match.
  FlowStatsRequest req;
  req.table_id = 0;
  req.match.set(FieldId::kUdpDst, 53);
  ctrl.send_flow_stats_request(req);
  agent.poll();
  ctrl.poll();
  replies = ctrl.take_flow_stats();
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_EQ(replies[0].entries.size(), 1u);
  EXPECT_EQ(replies[0].entries[0].priority, 10);
  EXPECT_EQ(replies[0].entries[0].goto_table, 1);
  EXPECT_EQ(replies[0].entries[0].actions, ActionList{Action::output(2)});

  ctrl.send_table_stats_request();
  agent.poll();
  ctrl.poll();
  const auto tstats = ctrl.take_table_stats();
  ASSERT_EQ(tstats.size(), 1u);
  ASSERT_EQ(tstats[0].entries.size(), 2u);
  EXPECT_EQ(tstats[0].entries[0].table_id, 0);
  EXPECT_EQ(tstats[0].entries[0].active_count, 2u);
  EXPECT_EQ(tstats[0].entries[1].table_id, 1);
  EXPECT_EQ(tstats[0].entries[1].active_count, 1u);
}

TEST(OfAgent, FlowRemovedOnFlaggedDeleteOnly) {
  core::Eswitch sw;
  sw.install(Pipeline{});
  uc::OfAgent agent(uc::make_dataplane_callbacks(sw));
  uc::OfController ctrl(agent.controller_fd());
  uc::run_handshake(agent, ctrl);

  FlowMod add = udp_forward_mod(53, 2);
  add.cookie = 0xC00C1E;
  ctrl.send_flow_mod(add);
  FlowMod add2 = udp_forward_mod(54, 3);
  ctrl.send_flow_mod(add2);
  agent.poll();

  // Delete without the flag: silent.
  FlowMod del2 = add2;
  del2.command = FlowMod::Cmd::kDelete;
  del2.actions.clear();
  ctrl.send_flow_mod(del2);
  agent.poll();
  ctrl.poll();
  EXPECT_TRUE(ctrl.take_flow_removed().empty());

  // Delete with OFPFF_SEND_FLOW_REM: FLOW_REMOVED arrives with the flow's
  // identity (cookie, priority, match, reason).
  FlowMod del = add;
  del.command = FlowMod::Cmd::kDelete;
  del.flags = FlowMod::kFlagSendFlowRem;
  del.actions.clear();
  ctrl.send_flow_mod(del);
  agent.poll();
  ctrl.poll();
  const auto removed = ctrl.take_flow_removed();
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].cookie, 0xC00C1Eu);
  EXPECT_EQ(removed[0].priority, add.priority);
  EXPECT_EQ(removed[0].reason, FlowRemoved::Reason::kDelete);
  EXPECT_TRUE(removed[0].match == add.match);
  // And the flow is gone.
  auto p = test::make_packet(test::udp_spec(1, 2, 9, 53));
  EXPECT_EQ(sw.process(p), Verdict::drop());
}

TEST(OfAgent, DrivesOvsBackendThroughSameCallbacks) {
  ovs::OvsSwitch sw;
  sw.install(Pipeline{});
  uc::OfAgent agent(uc::make_dataplane_callbacks(sw));
  uc::OfController ctrl(agent.controller_fd());
  uc::run_handshake(agent, ctrl);

  ctrl.send_flow_mod(udp_forward_mod(53, 2));
  agent.poll();
  auto p = test::make_packet(test::udp_spec(1, 2, 9, 53));
  EXPECT_EQ(sw.process(p), Verdict::output(2));

  ctrl.send_flow_stats_request();
  agent.poll();
  ctrl.poll();
  const auto replies = ctrl.take_flow_stats();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].entries.size(), 1u);
}

TEST(OfAgent, BatchedModsOneRecompilePerModErrors) {
  // A run of FLOW_MODs in one poll lands as a single best-effort datapath
  // batch: one fused-plan republish for the whole run, one TABLE_FULL error
  // per refused mod, the rest applied — and the barrier still certifies the
  // batch landed before its reply.
  core::CompilerConfig cfg;
  cfg.table_capacity = 3;
  core::Eswitch sw(cfg);
  sw.install(Pipeline{});
  uc::OfAgent agent(uc::make_dataplane_callbacks(sw));
  uc::OfController ctrl(agent.controller_fd());
  uc::run_handshake(agent, ctrl);

  const auto republishes_before = sw.update_stats().fusion_republishes;
  std::vector<uint32_t> xids;
  for (uint16_t i = 0; i < 5; ++i)
    xids.push_back(ctrl.send_flow_mod(udp_forward_mod(100 + i, 2)));
  const uint32_t bxid = ctrl.send_barrier();
  agent.poll();  // one poll: the whole run is one batch
  ctrl.poll();

  // One refusal per over-capacity mod (the 4th and 5th), not a batch abort.
  const auto errors = ctrl.take_errors();
  ASSERT_EQ(errors.size(), 2u);
  for (const auto& e : errors) {
    EXPECT_EQ(e.type, kErrTypeFlowModFailed);
    EXPECT_EQ(e.code, kErrCodeTableFull);
  }
  EXPECT_EQ(errors[0].xid, xids[3]);
  EXPECT_EQ(errors[1].xid, xids[4]);
  const auto replies = ctrl.take_barrier_replies();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0], bxid);

  // The applied prefix is live; the refused tail is not; the whole run cost
  // one recompile + fused republish.
  EXPECT_EQ(sw.pipeline().find_table(0)->size(), 3u);
  EXPECT_EQ(sw.update_stats().fusion_republishes, republishes_before + 1);
  auto hit = test::make_packet(test::udp_spec(1, 2, 9, 102));
  EXPECT_EQ(sw.process(hit), Verdict::output(2));
  auto refused = test::make_packet(test::udp_spec(1, 2, 9, 104));
  EXPECT_EQ(sw.process(refused), Verdict::drop());
  EXPECT_EQ(agent.stats().flow_mods, 5u);
  EXPECT_EQ(agent.stats().errors_sent, 2u);
}

TEST(OfAgent, BatchedDeleteStillEmitsFlowRemoved) {
  core::Eswitch sw;
  sw.install(Pipeline{});
  uc::OfAgent agent(uc::make_dataplane_callbacks(sw));
  uc::OfController ctrl(agent.controller_fd());
  uc::run_handshake(agent, ctrl);

  FlowMod add = udp_forward_mod(53, 2);
  add.cookie = 0xBA7C4;
  ctrl.send_flow_mod(add);
  agent.poll();

  // One run: flagged delete + unrelated add + barrier.  The FLOW_REMOVED for
  // the applied delete must still reach the controller, and the add lands.
  FlowMod del = add;
  del.command = FlowMod::Cmd::kDelete;
  del.flags = FlowMod::kFlagSendFlowRem;
  del.actions.clear();
  ctrl.send_flow_mod(del);
  ctrl.send_flow_mod(udp_forward_mod(54, 3));
  ctrl.send_barrier();
  agent.poll();
  ctrl.poll();

  const auto removed = ctrl.take_flow_removed();
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].cookie, 0xBA7C4u);
  EXPECT_EQ(ctrl.take_barrier_replies().size(), 1u);
  auto gone = test::make_packet(test::udp_spec(1, 2, 9, 53));
  EXPECT_EQ(sw.process(gone), Verdict::drop());
  auto live = test::make_packet(test::udp_spec(1, 2, 9, 54));
  EXPECT_EQ(sw.process(live), Verdict::output(3));
}

// A flagged delete sees every earlier mod of its FLOW_MOD run: the add it
// removes lands first, so the controller hears exactly one FLOW_REMOVED —
// the same on both backends.
template <typename Backend>
void flow_removed_within_one_run() {
  Backend sw;
  sw.install(Pipeline{});
  uc::OfAgent agent(uc::make_dataplane_callbacks(sw));
  uc::OfController ctrl(agent.controller_fd());
  uc::run_handshake(agent, ctrl);

  FlowMod add = udp_forward_mod(53, 2);
  add.cookie = 0x5A4E;
  FlowMod del = add;
  del.command = FlowMod::Cmd::kDelete;
  del.flags = FlowMod::kFlagSendFlowRem;
  del.actions.clear();
  ctrl.send_flow_mod(add);
  ctrl.send_flow_mod(del);
  ctrl.send_barrier();
  agent.poll();  // one poll: add, flagged delete and barrier
  ctrl.poll();

  const auto removed = ctrl.take_flow_removed();
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].cookie, 0x5A4Eu);
  EXPECT_EQ(ctrl.take_barrier_replies().size(), 1u);
  EXPECT_TRUE(ctrl.take_errors().empty());
  EXPECT_EQ(agent.stats().flow_removed_sent, 1u);
  EXPECT_TRUE(sw.pipeline().find_table(0)->empty());
}

TEST(OfAgent, FlowRemovedWithinOneRunEswitch) {
  flow_removed_within_one_run<core::Eswitch>();
}

TEST(OfAgent, FlowRemovedWithinOneRunOvs) {
  flow_removed_within_one_run<ovs::OvsSwitch>();
}

TEST(OfAgent, OvsRefusesBackwardGotoAndKeepsForwarding) {
  // The OVS model validates gotos like ESWITCH: a backward goto answers
  // FLOW_MOD_FAILED instead of looping the slow path.  Every packet below
  // runs only after the refusal is confirmed.
  ovs::OvsSwitch sw;
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=1,actions=,goto:1"));
  pl.table(1).add(parse_rule("priority=10,udp_dst=53,actions=output:2"));
  sw.install(pl);
  uc::OfAgent agent(uc::make_dataplane_callbacks(sw));
  uc::OfController ctrl(agent.controller_fd());
  uc::run_handshake(agent, ctrl);

  FlowMod bad = udp_forward_mod(54, 3);
  bad.table_id = 1;
  bad.actions.clear();
  bad.goto_table = 0;
  const uint32_t xid = ctrl.send_flow_mod(bad);
  ctrl.send_barrier();
  EXPECT_NO_THROW(agent.poll());
  ctrl.poll();
  const auto errors = ctrl.take_errors();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].xid, xid);
  EXPECT_EQ(errors[0].type, kErrTypeFlowModFailed);
  EXPECT_EQ(errors[0].code, kErrCodeFlowModUnknown);
  EXPECT_EQ(ctrl.take_barrier_replies().size(), 1u);
  ASSERT_FALSE(sw.pipeline().validate().has_value());
  EXPECT_EQ(sw.pipeline().find_table(1)->size(), 1u);

  // The session stays open and the switch keeps forwarding.
  EXPECT_TRUE(agent.session_open());
  auto p = test::make_packet(test::udp_spec(1, 2, 9, 53));
  EXPECT_EQ(sw.process(p), Verdict::output(2));
  FlowMod good = udp_forward_mod(54, 3);
  good.table_id = 1;
  ctrl.send_flow_mod(good);
  agent.poll();
  ctrl.poll();
  EXPECT_TRUE(ctrl.take_errors().empty());
  auto q = test::make_packet(test::udp_spec(1, 2, 9, 54));
  EXPECT_EQ(sw.process(q), Verdict::output(3));
}

// The acceptance scenario: a reactive learning switch over the full stack —
// SwitchRuntime (driven inline) executes verdicts, OfAgent speaks the
// session, the controller reacts to PACKET_IN with FLOW_MOD + PACKET_OUT, and
// traffic migrates to the compiled fast path.
TEST(OfAgent, ReactiveLearningSwitchEndToEnd) {
  using Host = core::SwitchRuntime<core::Eswitch>;
  Host::Config cfg;
  cfg.n_ports = 4;
  cfg.sink_tx = false;
  Host host(cfg);
  Pipeline pl;
  pl.table(0).set_miss_policy(FlowTable::MissPolicy::kController);
  host.backend().install(pl);

  uc::OfAgent::Callbacks cbs = uc::make_dataplane_callbacks(host.backend());
  cbs.on_packet_out = [&host](const PacketOut& po) {
    host.packet_out(po.frame.data(), static_cast<uint32_t>(po.frame.size()),
                    po.in_port, po.actions);
  };
  uc::OfAgent agent(std::move(cbs));
  // Runs the datapath, then hands its controller-bound frames to the session.
  auto poll = [&host, &agent] {
    host.poll();
    for (const core::RuntimePacketIn& pin : host.drain_packet_ins())
      agent.send_packet_in(pin.frame.data(), pin.frame.size(), pin.in_port);
  };
  uc::OfController ctrl(agent.controller_fd());
  uc::run_handshake(agent, ctrl);

  const uint64_t mac_b = 0x020000000002ULL;
  proto::PacketSpec a_to_b = test::udp_spec(1, 2, 3, 4);
  a_to_b.eth_src = 0x020000000001ULL;
  a_to_b.eth_dst = mac_b;
  uint8_t frame[256];
  const uint32_t len = proto::build_packet(a_to_b, frame, sizeof frame);

  // Packet 1: miss -> PACKET_IN; the controller floods it via PACKET_OUT and
  // installs the eth_dst flow (it has "learned" B@2 out of band here).
  ASSERT_TRUE(host.inject(1, frame, len));
  poll();
  ctrl.poll();
  auto pins = ctrl.take_packet_ins();
  ASSERT_EQ(pins.size(), 1u);
  EXPECT_EQ(pins[0].in_port, 1u);

  FlowMod fm;
  fm.table_id = 0;
  fm.priority = 10;
  fm.match.set(FieldId::kEthDst, mac_b);
  fm.actions = {Action::output(2)};
  ctrl.send_flow_mod(fm);
  PacketOut po;
  po.in_port = pins[0].in_port;
  po.frame = pins[0].frame;
  po.actions = {Action::flood()};
  ctrl.send_packet_out(po);
  agent.poll();  // applies the mod, executes the packet-out

  // The buffered frame flooded to every port but the ingress.
  EXPECT_EQ(host.drain_and_release_tx(2), 1u);
  EXPECT_EQ(host.drain_and_release_tx(3), 1u);
  EXPECT_EQ(host.drain_and_release_tx(4), 1u);
  EXPECT_EQ(host.drain_and_release_tx(1), 0u);

  // Packet 2: forwarded by the compiled fast path, controller silent.
  const auto pins_before = agent.stats().packet_ins_sent;
  ASSERT_TRUE(host.inject(1, frame, len));
  poll();
  EXPECT_EQ(agent.stats().packet_ins_sent, pins_before);
  EXPECT_EQ(host.drain_and_release_tx(2), 1u);
  const core::DataplaneStats st = host.backend().stats();
  EXPECT_EQ(st.packets, 2u);
  EXPECT_EQ(st.outputs, 1u);
  EXPECT_EQ(st.to_controller, 1u);
}

}  // namespace
}  // namespace esw