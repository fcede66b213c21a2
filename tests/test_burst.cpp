// Burst/scalar parity: process_burst() must be observably identical to n
// process() calls — same verdicts, same packet mutations, same per-table and
// global stats — for every template the compiler can pick (direct code, hash,
// LPM, range, linked list), for decomposed pipelines, and for the OVS-model
// baseline (whose cache hierarchy evolves packet by packet, so parity also
// pins the in-order processing of a burst).
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/eswitch.hpp"
#include "flow/dsl.hpp"
#include "netio/pktgen.hpp"
#include "ovs/ovs_switch.hpp"
#include "test_util.hpp"
#include "usecases/usecases.hpp"

namespace {

using namespace esw;
using core::Eswitch;
using core::TableTemplate;
using flow::Action;
using flow::FieldId;
using flow::parse_rule;
using flow::Pipeline;
using flow::Verdict;

/// Digest of a packet's observable state after processing (mutations from
/// set-field/dec-TTL/VLAN actions included).
uint64_t packet_digest(const net::Packet& p) {
  return hash_bytes(p.data(), p.len(), uint64_t{p.len()} << 32 | p.in_port());
}

struct RunResult {
  std::vector<Verdict> verdicts;
  std::vector<uint64_t> digests;
};

RunResult run_scalar(Eswitch& sw, const net::TrafficSet& ts, size_t n) {
  RunResult r;
  net::Packet pkt;
  for (size_t i = 0; i < n; ++i) {
    ts.load(i, pkt);
    r.verdicts.push_back(sw.process(pkt));
    r.digests.push_back(packet_digest(pkt));
  }
  return r;
}

/// Replays the same packet sequence in deterministic irregular bursts
/// (including singletons, partial bursts and > kBurstSize chunked calls).
RunResult run_burst(Eswitch& sw, const net::TrafficSet& ts, size_t n) {
  RunResult r;
  Rng rng(0xB57);
  std::vector<net::Packet> bufs(2 * net::kBurstSize);
  std::vector<net::Packet*> ptrs(bufs.size());
  std::vector<Verdict> verdicts(bufs.size());
  for (size_t b = 0; b < bufs.size(); ++b) ptrs[b] = &bufs[b];

  size_t i = 0;
  while (i < n) {
    const uint32_t want = static_cast<uint32_t>(rng.range(1, bufs.size()));
    const uint32_t burst = static_cast<uint32_t>(std::min<size_t>(want, n - i));
    for (uint32_t b = 0; b < burst; ++b) ts.load(i + b, bufs[b]);
    sw.process_burst(ptrs.data(), burst, verdicts.data());
    for (uint32_t b = 0; b < burst; ++b) {
      r.verdicts.push_back(verdicts[b]);
      r.digests.push_back(packet_digest(bufs[b]));
    }
    i += burst;
  }
  return r;
}

void expect_stats_equal(const Eswitch& a, const Eswitch& b) {
  const auto& sa = a.datapath().stats();
  const auto& sb = b.datapath().stats();
  EXPECT_EQ(sa.packets, sb.packets);
  EXPECT_EQ(sa.outputs, sb.outputs);
  EXPECT_EQ(sa.drops, sb.drops);
  EXPECT_EQ(sa.to_controller, sb.to_controller);
  ASSERT_EQ(a.datapath().num_slots(), b.datapath().num_slots());
  for (int32_t s = 0; s < a.datapath().num_slots(); ++s) {
    const auto& ta = a.datapath().table_stats(s);
    const auto& tb = b.datapath().table_stats(s);
    EXPECT_EQ(ta.lookups, tb.lookups) << "slot " << s;
    EXPECT_EQ(ta.hits, tb.hits) << "slot " << s;
    EXPECT_EQ(ta.misses, tb.misses) << "slot " << s;
  }
}

/// Full parity check: same pipeline into two switches, scalar vs burst over
/// the same packet sequence.
void expect_parity(const Pipeline& pl, const std::vector<net::FlowSpec>& flows,
                   const core::CompilerConfig& cfg = {}, size_t n_packets = 3000) {
  Eswitch scalar_sw(cfg), burst_sw(cfg);
  scalar_sw.install(pl);
  burst_sw.install(pl);
  const auto ts = net::TrafficSet::from_flows(flows);

  const RunResult s = run_scalar(scalar_sw, ts, n_packets);
  const RunResult b = run_burst(burst_sw, ts, n_packets);
  ASSERT_EQ(s.verdicts.size(), b.verdicts.size());
  for (size_t i = 0; i < s.verdicts.size(); ++i) {
    ASSERT_EQ(s.verdicts[i], b.verdicts[i]) << "packet " << i;
    ASSERT_EQ(s.digests[i], b.digests[i]) << "packet " << i;
  }
  expect_stats_equal(scalar_sw, burst_sw);
}

/// Random mix of traffic for hand-built tables: UDP/TCP with clustered and
/// random tuples, plus ARP/raw junk that exercises proto-guard misses.
std::vector<net::FlowSpec> random_traffic(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<net::FlowSpec> flows;
  flows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    net::FlowSpec f;
    const uint64_t k = rng.below(100);
    if (k < 45) {
      f.pkt = test::udp_spec(static_cast<uint32_t>(rng.next()),
                             static_cast<uint32_t>(rng.next()),
                             static_cast<uint16_t>(rng.below(0x10000)),
                             static_cast<uint16_t>(rng.below(0x400)));
    } else if (k < 90) {
      f.pkt = test::tcp_spec(0x0A000000 | static_cast<uint32_t>(rng.below(256)),
                             0xC0000200 | static_cast<uint32_t>(rng.below(256)),
                             static_cast<uint16_t>(rng.below(0x10000)),
                             static_cast<uint16_t>(rng.below(128)));
    } else if (k < 95) {
      f.pkt.kind = proto::PacketKind::kArp;
    } else {
      f.pkt.kind = proto::PacketKind::kRawEth;
    }
    f.in_port = static_cast<uint32_t>(rng.below(4));
    flows.push_back(f);
  }
  return flows;
}

TEST(BurstParity, DirectCodeTemplate) {
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=30,udp_dst=53,actions=output:1"));
  pl.table(0).add(parse_rule("priority=20,tcp_dst=80,actions=dec_ttl,output:2"));
  pl.table(0).add(parse_rule("priority=10,eth_type=0x0806,actions=controller"));

  Eswitch probe;
  probe.install(pl);
  ASSERT_EQ(probe.table_template(0), TableTemplate::kDirectCode);
  expect_parity(pl, random_traffic(400, 0xD1));
}

TEST(BurstParity, HashTemplateL2) {
  const auto uc = uc::make_l2(256);
  Eswitch probe;
  probe.install(uc.pipeline);
  ASSERT_EQ(probe.table_template(0), TableTemplate::kCuckooHash);
  expect_parity(uc.pipeline, uc.traffic(1000, 7));
}

TEST(BurstParity, LpmTemplateL3) {
  const auto uc = uc::make_l3(500);
  Eswitch probe;
  probe.install(uc.pipeline);
  ASSERT_EQ(probe.table_template(0), TableTemplate::kLpm);
  expect_parity(uc.pipeline, uc.traffic(1500, 11));
}

TEST(BurstParity, RangeTemplate) {
  // Priority-inverted single-field prefix table: LPM refuses, range takes it.
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=100,udp_dst=0x100/0xFF00,actions=output:1"));
  pl.table(0).add(parse_rule("priority=20,udp_dst=0x140/0xFFC0,actions=output:2"));
  pl.table(0).add(parse_rule("priority=90,udp_dst=0x200/0xFF00,actions=output:3"));
  pl.table(0).add(parse_rule("priority=95,udp_dst=0x240/0xFFC0,actions=output:4"));
  pl.table(0).add(parse_rule("priority=1,actions=drop"));

  core::CompilerConfig cfg;
  cfg.direct_code_max_entries = 2;
  Eswitch probe(cfg);
  probe.install(pl);
  ASSERT_EQ(probe.table_template(0), TableTemplate::kRange);
  expect_parity(pl, random_traffic(600, 0x4A), cfg);
}

TEST(BurstParity, LinkedListTemplate) {
  Pipeline pl;
  const flow::FlowTable acls = uc::make_snort_like_acls(48);
  for (const flow::FlowEntry& e : acls.entries()) pl.table(0).add(e);

  Eswitch probe;
  probe.install(pl);
  ASSERT_EQ(probe.table_template(0), TableTemplate::kLinkedList);
  expect_parity(pl, random_traffic(800, 0x11));
}

TEST(BurstParity, DecomposedLoadBalancerMultiHop) {
  const auto uc = uc::make_load_balancer(20);
  core::CompilerConfig cfg;
  cfg.enable_decomposition = true;
  Eswitch probe(cfg);
  probe.install(uc.pipeline);
  ASSERT_TRUE(probe.is_decomposed(0));
  expect_parity(uc.pipeline, uc.traffic(2000, 23), cfg);
}

TEST(BurstParity, BigHashTableCrossesPrefetchGate) {
  // A MAC table big enough that the burst walker's prefetch gating
  // (kPrefetchMinBytes) turns the hash template's bucket prefetch ON, so the
  // key-recompute hint path runs under the parity check (the LPM hint is
  // always on — tbl24 alone is 64 MiB — and is covered by LpmTemplateL3).
  const auto uc = uc::make_l2(50000);
  core::CompilerConfig cfg;
  Eswitch probe(cfg);
  probe.install(uc.pipeline);
  ASSERT_EQ(probe.table_template(0), TableTemplate::kCuckooHash);
  ASSERT_GE(probe.datapath().memory_bytes(), size_t{1} << 20);
  expect_parity(uc.pipeline, uc.traffic(4000, 13), cfg, 4000);
}

TEST(BurstParity, PrefetchHintIsPureForEveryTemplate) {
  // prefetch() must have no observable effect: lookup before and after the
  // hint agree, for each template kind (covers the hash/tuple-space hints
  // that small tables keep gated off in the burst walker).
  struct Case {
    TableTemplate expect;
    Pipeline pl;
    core::CompilerConfig cfg;
  };
  std::vector<Case> cases;
  {
    Case c;
    c.expect = TableTemplate::kDirectCode;
    c.pl.table(0).add(parse_rule("priority=10,udp_dst=53,actions=output:1"));
    cases.push_back(std::move(c));
  }
  {
    Case c;
    c.expect = TableTemplate::kCuckooHash;
    c.pl = uc::make_l2(64).pipeline;
    cases.push_back(std::move(c));
  }
  {
    Case c;
    c.expect = TableTemplate::kLpm;
    c.pl = uc::make_l3(100).pipeline;
    cases.push_back(std::move(c));
  }
  {
    Case c;
    c.expect = TableTemplate::kRange;
    c.pl.table(0).add(parse_rule("priority=100,udp_dst=0x100/0xFF00,actions=output:1"));
    c.pl.table(0).add(parse_rule("priority=20,udp_dst=0x140/0xFFC0,actions=output:2"));
    c.pl.table(0).add(parse_rule("priority=90,udp_dst=0x200/0xFF00,actions=output:3"));
    c.cfg.direct_code_max_entries = 2;
    cases.push_back(std::move(c));
  }
  {
    Case c;
    c.expect = TableTemplate::kLinkedList;
    const flow::FlowTable acls = uc::make_snort_like_acls(24);
    for (const flow::FlowEntry& e : acls.entries()) c.pl.table(0).add(e);
    cases.push_back(std::move(c));
  }

  for (const Case& c : cases) {
    Eswitch sw(c.cfg);
    sw.install(c.pl);
    ASSERT_EQ(sw.table_template(c.pl.tables().front().id()), c.expect);
    const core::CompiledTable* impl = sw.datapath().impl(sw.datapath().start());
    ASSERT_NE(impl, nullptr);
    for (const net::FlowSpec& f : random_traffic(64, 0x9E)) {
      const net::Packet p = test::make_packet(f.pkt, f.in_port);
      const proto::ParseInfo pi = test::parse_packet(p);
      const uint64_t before = impl->lookup(p.data(), pi);
      impl->prefetch(p.data(), pi);
      EXPECT_EQ(impl->lookup(p.data(), pi), before);
    }
  }
}

TEST(BurstParity, GatewayMultiTablePipeline) {
  const auto uc = uc::make_gateway(4, 8, 200);
  expect_parity(uc.pipeline, uc.traffic(1500, 31));
}

TEST(BurstParity, EmptyDatapathAndZeroBurst) {
  Eswitch sw;  // nothing installed: start slot < 0, every packet drops
  auto flows = random_traffic(64, 0xE0);
  const auto ts = net::TrafficSet::from_flows(flows);
  net::Packet pkt;
  ts.load(0, pkt);
  net::Packet* one = &pkt;
  Verdict v = Verdict::output(9);
  sw.process_burst(&one, 1, &v);
  EXPECT_EQ(v, Verdict::drop());
  EXPECT_EQ(sw.datapath().stats().packets, 1u);
  EXPECT_EQ(sw.datapath().stats().drops, 1u);

  sw.process_burst(&one, 0, &v);  // zero-length burst: no effect
  EXPECT_EQ(sw.datapath().stats().packets, 1u);
}

TEST(BurstParity, OvsBaselineVerdictsAndCacheStats) {
  const auto uc = uc::make_l2(128);
  // Enough flows to churn the microflow cache so burst order matters.
  ovs::OvsSwitch::Config cfg;
  cfg.microflow_capacity = 256;
  ovs::OvsSwitch scalar_sw(cfg), burst_sw(cfg);
  scalar_sw.install(uc.pipeline);
  burst_sw.install(uc.pipeline);
  const auto ts = net::TrafficSet::from_flows(uc.traffic(700, 3));

  const size_t n = 2500;
  std::vector<Verdict> sv;
  net::Packet pkt;
  for (size_t i = 0; i < n; ++i) {
    ts.load(i, pkt);
    sv.push_back(scalar_sw.process(pkt));
  }

  std::vector<net::Packet> bufs(net::kBurstSize);
  std::vector<net::Packet*> ptrs(bufs.size());
  for (size_t b = 0; b < bufs.size(); ++b) ptrs[b] = &bufs[b];
  Verdict verdicts[net::kBurstSize];
  size_t i = 0;
  while (i < n) {
    const uint32_t burst =
        static_cast<uint32_t>(std::min<size_t>(net::kBurstSize, n - i));
    for (uint32_t b = 0; b < burst; ++b) ts.load(i + b, bufs[b]);
    burst_sw.process_burst(ptrs.data(), burst, verdicts);
    for (uint32_t b = 0; b < burst; ++b)
      ASSERT_EQ(sv[i + b], verdicts[b]) << "packet " << i + b;
    i += burst;
  }

  const auto& sa = scalar_sw.cache_stats();
  const auto& sb = burst_sw.cache_stats();
  EXPECT_EQ(sa.packets, sb.packets);
  EXPECT_EQ(sa.microflow_hits, sb.microflow_hits);
  EXPECT_EQ(sa.megaflow_hits, sb.megaflow_hits);
  EXPECT_EQ(sa.upcalls, sb.upcalls);
}

}  // namespace
