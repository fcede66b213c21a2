#include <gtest/gtest.h>

#include "netio/mbuf_pool.hpp"
#include "netio/nfpa.hpp"
#include "netio/pktgen.hpp"
#include "netio/port.hpp"
#include "netio/ring.hpp"
#include "test_util.hpp"

namespace esw {
namespace {

using namespace esw::net;

TEST(Ring, BasicAndWraparound) {
  Ring ring(8);
  Packet pkts[16];
  Packet* in[16];
  Packet* out[16];
  for (int i = 0; i < 16; ++i) in[i] = &pkts[i];

  EXPECT_EQ(ring.enqueue_burst(in, 5), 5u);
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.dequeue_burst(out, 3), 3u);
  EXPECT_EQ(out[0], &pkts[0]);
  EXPECT_EQ(out[2], &pkts[2]);

  // Fill over the wrap point.
  EXPECT_EQ(ring.enqueue_burst(in + 5, 6), 6u);
  EXPECT_EQ(ring.size(), 8u);
  // Full: no more room.
  EXPECT_EQ(ring.enqueue_burst(in, 4), 0u);
  EXPECT_EQ(ring.dequeue_burst(out, 16), 8u);
  EXPECT_EQ(out[0], &pkts[3]);
  EXPECT_EQ(out[7], &pkts[10]);
  EXPECT_TRUE(ring.empty());
}

TEST(Ring, RejectsNonPowerOfTwo) { EXPECT_THROW(Ring(10), CheckError); }

TEST(MbufPool, ExhaustionAndReuse) {
  MbufPool pool(4);
  Packet* got[5];
  for (int i = 0; i < 4; ++i) {
    got[i] = pool.alloc();
    ASSERT_NE(got[i], nullptr);
  }
  EXPECT_EQ(pool.alloc(), nullptr);
  EXPECT_EQ(pool.alloc_failures(), 1u);
  pool.free(got[2]);
  EXPECT_EQ(pool.available(), 1u);
  EXPECT_EQ(pool.alloc(), got[2]);
}

TEST(Port, Counters) {
  Port port;
  auto p = test::make_packet(test::udp_spec(1, 2, 3, 4));
  Packet* pp = &p;
  EXPECT_EQ(port.inject_rx(&pp, 1), 1u);
  Packet* out[4];
  EXPECT_EQ(port.rx_burst(out, 4), 1u);
  EXPECT_EQ(port.counters().rx_packets, 1u);
  EXPECT_EQ(port.counters().rx_bytes, p.len());
  EXPECT_EQ(port.tx_burst(&pp, 1), 1u);
  EXPECT_EQ(port.counters().tx_packets, 1u);
}

TEST(TrafficSet, RoundRobinLoad) {
  std::vector<FlowSpec> flows;
  for (int i = 0; i < 3; ++i) {
    FlowSpec fs;
    fs.pkt = test::udp_spec(i + 1, 100, 1000 + i, 53);
    fs.in_port = i;
    flows.push_back(fs);
  }
  auto ts = TrafficSet::from_flows(flows);
  EXPECT_EQ(ts.size(), 3u);
  Packet p;
  ts.load(4, p);  // 4 % 3 == 1
  EXPECT_EQ(p.in_port(), 1u);
  auto pi = test::parse_packet(p);
  EXPECT_EQ(flow::extract_field(flow::FieldId::kIpSrc, p.data(), pi), 2u);
}

TEST(TrafficSet, LoadNextMatchesLoad) {
  std::vector<FlowSpec> flows;
  for (int i = 0; i < 5; ++i) {
    FlowSpec fs;
    fs.pkt = test::udp_spec(i + 1, 100, 1000 + i, 53);
    fs.in_port = i;
    flows.push_back(fs);
  }
  auto ts = TrafficSet::from_flows(flows);
  size_t cursor = 0;
  Packet a, b;
  for (size_t i = 0; i < 13; ++i) {  // wraps the 5-frame set twice
    ts.load(i, a);
    ts.load_next(cursor, b);
    ASSERT_EQ(a.len(), b.len()) << i;
    ASSERT_EQ(a.in_port(), b.in_port()) << i;
    ASSERT_EQ(std::memcmp(a.data(), b.data(), a.len()), 0) << i;
  }
  EXPECT_EQ(cursor, 13 % 5);
}

TEST(RunLoopBurst, ReportsSaneStats) {
  std::vector<FlowSpec> flows(3);
  for (auto& f : flows) f.pkt = test::udp_spec(1, 2, 3, 4);
  auto ts = TrafficSet::from_flows(flows);
  uint64_t count = 0;
  RunOpts opts;
  opts.min_seconds = 0.01;
  opts.min_packets = 1000;
  opts.warmup_packets = 10;
  auto st = run_loop_burst(
      ts,
      [&](Packet* const* pkts, uint32_t n) {
        EXPECT_LE(n, kBurstSize);
        for (uint32_t b = 0; b < n; ++b) count += pkts[b]->len() > 0 ? 1 : 0;
      },
      opts);
  EXPECT_GT(st.pps, 0.0);
  EXPECT_GT(st.packets, 1000u);
  EXPECT_GT(st.cycles_per_pkt, 0.0);
  EXPECT_GE(st.latency_p99_cycles, st.latency_p50_cycles);
  EXPECT_EQ(count, st.packets + 32 /* warmup rounds up to one burst */);
}

TEST(RunLoop, ReportsSaneStats) {
  std::vector<FlowSpec> flows(1);
  flows[0].pkt = test::udp_spec(1, 2, 3, 4);
  auto ts = TrafficSet::from_flows(flows);
  uint64_t count = 0;
  RunOpts opts;
  opts.min_seconds = 0.01;
  opts.min_packets = 1000;
  opts.warmup_packets = 10;
  auto st = run_loop(
      ts, [&](Packet& p) { count += p.len(); }, opts);
  EXPECT_GT(st.pps, 0.0);
  EXPECT_GT(st.packets, 1000u);
  EXPECT_GT(st.cycles_per_pkt, 0.0);
  EXPECT_GE(st.latency_p99_cycles, st.latency_p50_cycles);
  EXPECT_GT(count, 0u);
}

}  // namespace
}  // namespace esw
