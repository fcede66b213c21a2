#include <gtest/gtest.h>

#include <cstring>

#include "core/eswitch.hpp"
#include "core/switch_runtime.hpp"
#include "flow/dsl.hpp"
#include "ovs/ovs_switch.hpp"
#include "test_util.hpp"

namespace esw {
namespace {

using namespace esw::flow;

// ---------------------------------------------------------------------------
// PortSet
// ---------------------------------------------------------------------------

TEST(PortSet, NumbersPortsFromOne) {
  net::PortSet ps(3);
  EXPECT_EQ(ps.size(), 3u);
  EXPECT_FALSE(ps.valid(0));  // OpenFlow reserves port 0
  EXPECT_TRUE(ps.valid(1));
  EXPECT_TRUE(ps.valid(3));
  EXPECT_FALSE(ps.valid(4));
  EXPECT_EQ(ps.port(1).name(), "port-1");
  EXPECT_EQ(ps.port(3).name(), "port-3");
}

TEST(PortSet, AddPortExtends) {
  net::PortSet ps(1);
  net::Port::Config cfg;
  cfg.name = "uplink";
  const uint32_t no = ps.add_port(cfg);
  EXPECT_EQ(no, 2u);
  EXPECT_EQ(ps.port(2).name(), "uplink-2");
  EXPECT_TRUE(ps.valid(2));
}

TEST(PortSet, InvalidPortThrows) {
  net::PortSet ps(2);
  EXPECT_THROW(ps.port(0), CheckError);
  EXPECT_THROW(ps.port(3), CheckError);
}

TEST(PortSet, ForEachExceptSkipsIngress) {
  net::PortSet ps(4);
  std::vector<uint32_t> visited;
  ps.for_each_except(2, [&](uint32_t no, net::Port&) { visited.push_back(no); });
  EXPECT_EQ(visited, (std::vector<uint32_t>{1, 3, 4}));
  visited.clear();
  ps.for_each_except(0, [&](uint32_t no, net::Port&) { visited.push_back(no); });
  EXPECT_EQ(visited, (std::vector<uint32_t>{1, 2, 3, 4}));
}

TEST(PortSet, TotalsAggregate) {
  net::PortSet ps(2);
  net::Packet a = test::make_packet(test::udp_spec(1, 2, 3, 4));
  net::Packet* pa = &a;
  ps.port(1).inject_rx(&pa, 1);
  ps.port(2).tx_burst_mp(&pa, 1);
  const net::PortCounters t = ps.totals();
  EXPECT_EQ(t.rx_packets, 1u);
  EXPECT_EQ(t.tx_packets, 1u);
  EXPECT_EQ(t.rx_bytes, a.len());
  EXPECT_EQ(t.tx_bytes, a.len());
}

// ---------------------------------------------------------------------------
// SwitchRuntime driven inline, over both backends
// ---------------------------------------------------------------------------

/// Every frame takes exactly one exit (the runtime's Counters identity).
template <typename Counters>
void expect_conservation(const Counters& c) {
  EXPECT_EQ(c.processed + c.flood_copies,
            c.tx_packets + c.tx_rejected + c.bad_port + c.drops + c.packet_ins);
}

template <typename Backend>
class InlineRuntimeTest : public ::testing::Test {
 protected:
  using Runtime = core::SwitchRuntime<Backend>;

  static typename Runtime::Config small_config() {
    typename Runtime::Config cfg;
    cfg.n_ports = 4;
    cfg.pool_capacity = 64;
    cfg.sink_tx = false;  // the tests are the wire: they drain TX themselves
    return cfg;
  }

  InlineRuntimeTest() : host(small_config()) { host.backend().install(pipeline()); }

  void TearDown() override { expect_conservation(host.counters()); }

  /// in_port=1 HTTP -> output:2; broadcast dst -> flood; udp_dst=99 ->
  /// output to a port that does not exist; everything else in table 0 drops;
  /// table 1 (port-4 traffic) punts to the controller.
  static Pipeline pipeline() {
    Pipeline pl;
    pl.table(0).add(parse_rule(
        "priority=100, in_port=1, ip_dst=192.0.2.7, tcp_dst=80, actions=output:2"));
    pl.table(0).add(
        parse_rule("priority=90, eth_dst=ff:ff:ff:ff:ff:ff, actions=flood"));
    pl.table(0).add(parse_rule("priority=80, udp_dst=99, actions=output:200"));
    pl.table(0).add(parse_rule("priority=70, in_port=4, actions=,goto:1"));
    pl.table(0).add(parse_rule("priority=1, actions=drop"));
    pl.table(1).add(parse_rule("priority=1, actions=controller"));
    return pl;
  }

  uint32_t inject_spec(const proto::PacketSpec& spec, uint32_t in_port) {
    uint8_t frame[256];
    const uint32_t len = proto::build_packet(spec, frame, sizeof frame);
    EXPECT_TRUE(host.inject(in_port, frame, len));
    return len;
  }

  static proto::PacketSpec http_spec() {
    proto::PacketSpec s = test::tcp_spec(test::ip("10.0.0.1"), test::ip("192.0.2.7"),
                                         4000, 80);
    return s;
  }

  Runtime host;
};

using Backends = ::testing::Types<core::Eswitch, ovs::OvsSwitch>;
TYPED_TEST_SUITE(InlineRuntimeTest, Backends);

TYPED_TEST(InlineRuntimeTest, OutputLandsOnEgressPort) {
  auto& host = this->host;
  const uint32_t len = this->inject_spec(TestFixture::http_spec(), 1);
  EXPECT_EQ(host.poll(), 1u);

  net::Packet* out[net::kBurstSize];
  ASSERT_EQ(host.ports().port(2).drain_tx(out, net::kBurstSize), 1u);
  EXPECT_EQ(out[0]->len(), len);
  EXPECT_EQ(out[0]->in_port(), 1u);
  host.pool().free(out[0]);
  EXPECT_EQ(host.counters().tx_packets, 1u);
  EXPECT_EQ(host.ports().port(2).counters().tx_packets, 1u);
  // Verdict-level stats flow through the unified interface.
  const core::DataplaneStats st = host.backend().stats();
  EXPECT_EQ(st.packets, 1u);
  EXPECT_EQ(st.outputs, 1u);
}

TYPED_TEST(InlineRuntimeTest, FloodFansOutToAllPortsExceptIngress) {
  auto& host = this->host;
  proto::PacketSpec bcast = test::udp_spec(1, 2, 3, 4);
  bcast.eth_dst = 0xFFFFFFFFFFFF;
  this->inject_spec(bcast, 3);
  host.poll();

  // A frame on every port except ingress port 3 — and nothing on 3.
  net::Packet* out[net::kBurstSize];
  for (const uint32_t no : {1u, 2u, 4u}) {
    ASSERT_EQ(host.ports().port(no).drain_tx(out, net::kBurstSize), 1u) << "port " << no;
    EXPECT_EQ(out[0]->in_port(), 3u);
    host.pool().free(out[0]);
  }
  EXPECT_EQ(host.ports().port(3).drain_tx(out, net::kBurstSize), 0u);
  // The original frame leaves on the first egress port; the other two are
  // copies.
  EXPECT_EQ(host.counters().tx_packets, 3u);
  EXPECT_EQ(host.counters().flood_copies, 2u);
  // All buffers (original + copies) are back in the pool.
  EXPECT_EQ(host.pool().available(), host.pool().capacity());
}

TYPED_TEST(InlineRuntimeTest, ControllerVerdictBecomesPacketIn) {
  auto& host = this->host;
  const proto::PacketSpec spec = test::udp_spec(5, 6, 7, 8);
  uint8_t frame[256];
  const uint32_t len = proto::build_packet(spec, frame, sizeof frame);
  ASSERT_TRUE(host.inject(4, frame, len));
  host.poll();

  const auto events = host.drain_packet_ins();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].in_port, 4u);
  ASSERT_EQ(events[0].frame.size(), len);
  EXPECT_EQ(std::memcmp(events[0].frame.data(), frame, len), 0);
  EXPECT_EQ(host.counters().packet_ins, 1u);
  EXPECT_EQ(host.pool().available(), host.pool().capacity());
  // Drained once: the queue is consumed.
  EXPECT_TRUE(host.drain_packet_ins().empty());
}

TYPED_TEST(InlineRuntimeTest, DropAndBadPortRecycleBuffers) {
  auto& host = this->host;
  this->inject_spec(test::udp_spec(1, 2, 3, 9999), 2);  // drop rule
  this->inject_spec(test::udp_spec(1, 2, 3, 99), 2);    // output:200
  host.poll();

  EXPECT_EQ(host.counters().drops, 1u);
  EXPECT_EQ(host.counters().bad_port, 1u);
  EXPECT_EQ(host.counters().tx_packets, 0u);
  EXPECT_EQ(host.pool().available(), host.pool().capacity());
}

TYPED_TEST(InlineRuntimeTest, PacketOutExecutesActionList) {
  auto& host = this->host;
  uint8_t frame[256];
  const uint32_t len = proto::build_packet(test::udp_spec(1, 2, 3, 4), frame, sizeof frame);

  // Unicast PACKET_OUT.
  ASSERT_TRUE(host.packet_out(frame, len, 1, {Action::output(3)}));
  EXPECT_EQ(host.drain_and_release_tx(3), 1u);

  // Flood PACKET_OUT honors the ingress exclusion.
  ASSERT_TRUE(host.packet_out(frame, len, 2, {Action::flood()}));
  EXPECT_EQ(host.drain_and_release_tx(1), 1u);
  EXPECT_EQ(host.drain_and_release_tx(2), 0u);
  EXPECT_EQ(host.drain_and_release_tx(3), 1u);
  EXPECT_EQ(host.drain_and_release_tx(4), 1u);
  EXPECT_EQ(host.pool().available(), host.pool().capacity());
}

TYPED_TEST(InlineRuntimeTest, BurstOfMixedVerdicts) {
  auto& host = this->host;
  // A full burst's worth of interleaved traffic on one port.
  const proto::PacketSpec fwd = TestFixture::http_spec();
  const proto::PacketSpec dropped = test::udp_spec(1, 2, 3, 9999);
  for (uint32_t i = 0; i < net::kBurstSize; ++i)
    this->inject_spec((i % 2 == 0) ? fwd : dropped, 1);

  EXPECT_EQ(host.poll(), net::kBurstSize);
  EXPECT_EQ(host.counters().tx_packets, net::kBurstSize / 2);
  EXPECT_EQ(host.counters().drops, net::kBurstSize / 2);
  EXPECT_EQ(host.drain_and_release_tx(2), net::kBurstSize / 2);
  EXPECT_EQ(host.pool().available(), host.pool().capacity());
}

TYPED_TEST(InlineRuntimeTest, RuntimeFlowModsThroughUnifiedApply) {
  auto& host = this->host;
  // Redirect the HTTP flow 2 -> 4 via the unified apply().
  FlowMod fm;
  fm.table_id = 0;
  fm.priority = 110;
  fm.match.set(FieldId::kInPort, 1);
  fm.match.set(FieldId::kIpDst, test::ip("192.0.2.7"));
  fm.match.set(FieldId::kTcpDst, 80);
  fm.actions = {Action::output(4)};
  host.backend().apply(fm);

  this->inject_spec(TestFixture::http_spec(), 1);
  host.poll();
  EXPECT_EQ(host.drain_and_release_tx(2), 0u);
  EXPECT_EQ(host.drain_and_release_tx(4), 1u);

  // And batch-delete it again.
  FlowMod del = fm;
  del.command = FlowMod::Cmd::kDelete;
  del.actions.clear();
  host.backend().apply_batch({del});
  this->inject_spec(TestFixture::http_spec(), 1);
  host.poll();
  EXPECT_EQ(host.drain_and_release_tx(2), 1u);
}

using EswRuntime = core::SwitchRuntime<core::Eswitch>;

EswRuntime::Config inline_config(uint32_t n_ports, uint32_t pool_capacity) {
  EswRuntime::Config cfg;
  cfg.n_ports = n_ports;
  cfg.pool_capacity = pool_capacity;
  cfg.sink_tx = false;
  return cfg;
}

TEST(InlineRuntime, InjectToInvalidPortLeaksNothing) {
  EswRuntime host(inline_config(2, 4));
  host.backend().install(Pipeline{});
  uint8_t frame[128];
  const uint32_t len = proto::build_packet(test::udp_spec(1, 2, 3, 4), frame, sizeof frame);
  EXPECT_FALSE(host.inject(0, frame, len));
  EXPECT_FALSE(host.inject(3, frame, len));
  EXPECT_EQ(host.ports().totals().rx_packets, 0u);
  EXPECT_EQ(host.pool().available(), host.pool().capacity());  // no leaked buffer
}

TEST(InlineRuntime, PoolExhaustionIsCountedNotFatal) {
  EswRuntime host(inline_config(4, 2));  // flood needs 2 copies: one must fail
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=1, actions=flood"));
  host.backend().install(pl);

  uint8_t frame[128];
  const uint32_t len = proto::build_packet(test::udp_spec(1, 2, 3, 4), frame, sizeof frame);
  ASSERT_TRUE(host.inject(1, frame, len));
  host.poll();
  EXPECT_GT(host.counters().pool_exhausted, 0u);
  EXPECT_GT(host.counters().flood_copies, 0u);
  expect_conservation(host.counters());
  host.ports().for_each_except(
      0, [&](uint32_t no, net::Port&) { host.drain_and_release_tx(no); });
  EXPECT_EQ(host.pool().available(), host.pool().capacity());
}

// The inline worker context is registered only inside poll(): a full
// install() between polls must stay legal (it refuses to run while any
// worker is registered).
TEST(InlineRuntime, InstallBetweenPollsStaysLegal) {
  EswRuntime host(inline_config(4, 64));
  Pipeline to2;
  to2.table(0).add(parse_rule("priority=1, actions=output:2"));
  host.backend().install(to2);

  uint8_t frame[128];
  const uint32_t len = proto::build_packet(test::udp_spec(1, 2, 3, 4), frame, sizeof frame);
  ASSERT_TRUE(host.inject(1, frame, len));
  EXPECT_EQ(host.poll(), 1u);
  EXPECT_EQ(host.drain_and_release_tx(2), 1u);

  Pipeline to3;
  to3.table(0).add(parse_rule("priority=1, actions=output:3"));
  ASSERT_NO_THROW(host.backend().install(to3));
  ASSERT_TRUE(host.inject(1, frame, len));
  EXPECT_EQ(host.poll(), 1u);
  EXPECT_EQ(host.drain_and_release_tx(2), 0u);
  EXPECT_EQ(host.drain_and_release_tx(3), 1u);
  expect_conservation(host.counters());
  EXPECT_EQ(host.pool().available(), host.pool().capacity());
}

TEST(InlineRuntime, PollWhileRunningIsRefused) {
  EswRuntime::Config cfg = inline_config(2, 64);
  cfg.n_workers = 1;
  EswRuntime host(cfg);
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=1, actions=drop"));
  host.backend().install(pl);
  uint8_t frame[128];
  const uint32_t len = proto::build_packet(test::udp_spec(1, 2, 3, 4), frame, sizeof frame);

  host.start();
  EXPECT_THROW(host.poll(), CheckError);
  EXPECT_THROW(host.packet_out(frame, len, 1, {Action::output(2)}), CheckError);
  EXPECT_THROW(host.drain_and_release_tx(2), CheckError);
  host.stop();

  // Stopped, the caller's thread may drive it again.
  ASSERT_TRUE(host.inject(1, frame, len));
  EXPECT_EQ(host.poll(), 1u);
  EXPECT_EQ(host.counters().drops, 1u);
  EXPECT_EQ(host.pool().available(), host.pool().capacity());
}

}  // namespace
}  // namespace esw
