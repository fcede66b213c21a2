#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/huge_array.hpp"
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

TEST(MbufPool, LargePoolIsOneHugePageAlignedZeroedArray) {
  constexpr uint32_t kCap = 2048;  // 4 MB of buffers
  MbufPool pool(kCap);
  std::vector<Packet*> got(kCap);
  ASSERT_EQ(pool.alloc_bulk(got.data(), kCap), kCap);
  const Packet* lo = *std::min_element(got.begin(), got.end());
  const Packet* hi = *std::max_element(got.begin(), got.end());
  EXPECT_EQ(reinterpret_cast<uintptr_t>(lo) % common::kHugePageBytes, 0u);
  EXPECT_EQ(hi - lo, std::ptrdiff_t{kCap - 1});  // one contiguous array, every buffer once
  for (const Packet* p : got) {
    EXPECT_EQ(p->len(), 0u);
    EXPECT_EQ(p->data()[0], 0u);
  }
  pool.free_bulk(got.data(), kCap);
  EXPECT_EQ(pool.available(), kCap);
}

TEST(Port, Counters) {
  Port port(Port::Config{.ring_size = 2});
  auto p = test::make_packet(test::udp_spec(1, 2, 3, 4));
  Packet* pp = &p;
  EXPECT_EQ(port.inject_rx(&pp, 1), 1u);
  Packet* out[4];
  EXPECT_EQ(port.rx_burst(out, 4), 1u);
  EXPECT_EQ(port.counters().rx_packets, 1u);
  EXPECT_EQ(port.counters().rx_bytes, p.len());
  // A two-slot TX ring takes two of three frames and tail-drops the third.
  Packet* three[3] = {&p, &p, &p};
  EXPECT_EQ(port.tx_burst_mp(three, 3), 2u);
  EXPECT_EQ(port.counters().tx_packets, 2u);
  EXPECT_EQ(port.counters().tx_drops, 1u);
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

uint32_t ip_src(const Packet& p) {
  return static_cast<uint32_t>(
      flow::extract_field(flow::FieldId::kIpSrc, p.data(), test::parse_packet(p)));
}

/// Five frames told apart by in_port 0..4 (and ip_src 1..5).
TrafficSet five_frames() {
  std::vector<FlowSpec> flows(5);
  for (uint32_t i = 0; i < 5; ++i) {
    flows[i].pkt = test::udp_spec(i + 1, 2, 3, 4);
    flows[i].in_port = i;
  }
  return TrafficSet::from_flows(flows);
}

// run_loop and run_loop_burst are one timed loop at two call widths: both
// report sane stats and replay the traffic set in round-robin order.
// run_loop's indexed loader starts the measured window again at frame 0;
// run_loop_burst's cursor carries on from the warmup.
TEST(RunLoop, BothEntryPointsReplayOneSequence) {
  const TrafficSet ts = five_frames();
  RunOpts opts;
  opts.min_seconds = 0.01;
  opts.min_packets = 1000;
  opts.warmup_packets = 7;
  opts.latency_sample_every = 1;

  uint64_t seen = 0, window_start = opts.warmup_packets, out_of_order = 0;
  const auto check = [&](const Packet& p) {
    const uint64_t pos = seen < window_start ? seen : seen - window_start;
    if (p.in_port() != pos % 5) ++out_of_order;
    ++seen;
  };
  const RunStats one = run_loop(ts, check, opts);
  EXPECT_EQ(seen, one.packets + 7);
  seen = 0;  // each loop starts its replay at frame 0
  window_start = 0;
  const RunStats burst = run_loop_burst(
      ts,
      [&](Packet* const* pkts, uint32_t n) {
        EXPECT_EQ(n, kBurstSize);
        for (uint32_t b = 0; b < n; ++b) check(*pkts[b]);
      },
      opts);
  EXPECT_EQ(seen, burst.packets + kBurstSize);  // warmup rounds up to a burst
  EXPECT_EQ(out_of_order, 0u);

  for (const RunStats* st : {&one, &burst}) {
    EXPECT_GT(st->pps, 0.0);
    EXPECT_GE(st->packets, 1000u);
    EXPECT_GT(st->cycles_per_pkt, 0.0);
    EXPECT_GE(st->latency.value_at_percentile(99), st->latency.value_at_percentile(50));
  }
  // Sampling every packet: one sample per measured packet.
  EXPECT_EQ(one.latency.count(), one.packets);
}

TEST(ReplaySource, ShardsSharedCaptureAndIngressPorts) {
  std::vector<Packet> storage(4);
  Packet* bufs[4];
  for (int i = 0; i < 4; ++i) bufs[i] = &storage[static_cast<size_t>(i)];

  // Shards: worker w replays its own set.  ip_src 1..5 in shard 0,
  // 101..105 in shard 1.
  std::vector<FlowSpec> flows(5);
  for (uint32_t i = 0; i < 5; ++i) flows[i].pkt = test::udp_spec(101 + i, 2, 3, 4);
  ReplaySource shards({five_frames(), TrafficSet::from_flows(flows)});
  EXPECT_EQ(shards(0, bufs, 2), 2u);
  EXPECT_EQ(ip_src(*bufs[1]), 2u);
  EXPECT_EQ(shards(1, bufs, 1), 1u);
  EXPECT_EQ(ip_src(*bufs[0]), 101u);  // worker 0's reads did not move it
  EXPECT_EQ(bufs[0]->in_port(), 2u);
  EXPECT_EQ(shards(0, bufs, 1), 1u);
  EXPECT_EQ(ip_src(*bufs[0]), 3u);
  EXPECT_EQ(bufs[0]->in_port(), 1u);

  // Shared capture: every worker replays the whole set from its own cursor.
  ReplaySource shared(five_frames(), 3);
  EXPECT_EQ(shared(0, bufs, 4), 4u);
  EXPECT_EQ(ip_src(*bufs[3]), 4u);
  for (uint32_t w : {2u, 1u}) {
    EXPECT_EQ(shared(w, bufs, 3), 3u);
    for (uint32_t i = 0; i < 3; ++i) {
      EXPECT_EQ(ip_src(*bufs[i]), i + 1) << "worker " << w;
      EXPECT_EQ(bufs[i]->in_port(), 1 + w);  // not the frame's in_port
    }
  }
  EXPECT_EQ(shared(0, bufs, 2), 2u);
  EXPECT_EQ(ip_src(*bufs[0]), 5u);
  EXPECT_EQ(ip_src(*bufs[1]), 1u);  // wraps
}

}  // namespace
}  // namespace esw
