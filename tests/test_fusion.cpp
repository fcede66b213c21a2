// The fused plan (jit/fusion.hpp, core::fuse_pipeline) is the datapath's one
// packet walk.  Bursts of 1, 7 and 32 must be observably identical to
// process() — a burst of one — and to the spec interpreter Pipeline::run:
// same verdicts, same packet mutations, same per-table and global stats —
// for every template shape, decomposed tables, goto chains, both miss
// policies, with and without a machine program, and under churn.  The
// degradation story is covered too: an exec-map refusal during the fused
// compile publishes the plan without machine code, is accounted in the
// fusion ledger, and heals through the bounded-backoff retry; a hand-wired
// goto cycle terminates in a drop instead of hanging the walk.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <thread>
#include <vector>

#include "common/bits.hpp"
#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "core/compiler.hpp"
#include "core/decompose.hpp"
#include "core/eswitch.hpp"
#include "flow/dsl.hpp"
#include "jit/exec_mem.hpp"
#include "netio/pktgen.hpp"
#include "test_util.hpp"
#include "usecases/usecases.hpp"

namespace {

using namespace esw;
using core::CompiledDatapath;
using core::CompilerConfig;
using core::Eswitch;
using core::FusedPipeline;
using core::TableTemplate;
using flow::FieldId;
using flow::FlowMod;
using flow::parse_rule;
using flow::Pipeline;
using flow::Verdict;

uint64_t packet_digest(const net::Packet& p) {
  return hash_bytes(p.data(), p.len(), uint64_t{p.len()} << 32 | p.in_port());
}

FlowMod add_mod(uint8_t table, const std::string& rule) {
  const flow::FlowEntry e = parse_rule(rule);
  FlowMod fm;
  fm.command = FlowMod::Cmd::kAdd;
  fm.table_id = table;
  fm.priority = e.priority;
  fm.match = e.match;
  fm.actions = e.actions;
  fm.goto_table = e.goto_table;
  return fm;
}

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

struct RunResult {
  std::vector<Verdict> verdicts;
  std::vector<uint64_t> digests;
};

/// Replays the sequence through process_burst in bursts of `burst` packets,
/// or, with burst == 0, in deterministic irregular bursts (singletons,
/// partial bursts, > kBurstSize chunked calls).
RunResult run_bursts(Eswitch& sw, const net::TrafficSet& ts, size_t n, uint32_t burst = 0) {
  RunResult r;
  Rng rng(0xF5D);
  std::vector<net::Packet> bufs(2 * net::kBurstSize);
  std::vector<net::Packet*> ptrs(bufs.size());
  std::vector<Verdict> verdicts(bufs.size());
  for (size_t b = 0; b < bufs.size(); ++b) ptrs[b] = &bufs[b];

  size_t i = 0;
  while (i < n) {
    const uint32_t want =
        burst != 0 ? burst : static_cast<uint32_t>(rng.range(1, bufs.size()));
    const uint32_t m = static_cast<uint32_t>(std::min<size_t>(want, n - i));
    for (uint32_t b = 0; b < m; ++b) ts.load(i + b, bufs[b]);
    sw.process_burst(ptrs.data(), m, verdicts.data());
    for (uint32_t b = 0; b < m; ++b) {
      r.verdicts.push_back(verdicts[b]);
      r.digests.push_back(packet_digest(bufs[b]));
    }
    i += m;
  }
  return r;
}

/// The reference run: process() (a burst of one) packet by packet, each
/// verdict and frame also checked against the spec interpreter.  Unless a
/// table is decomposed (its slots then split the logical table's visits),
/// every root slot's counters must match the spec walk's table visits.
RunResult run_reference(Eswitch& sw, const Pipeline& pl, const net::TrafficSet& ts,
                        size_t n) {
  RunResult r;
  net::Packet pkt, spec;
  std::array<CompiledDatapath::TableStats, 256> want{};
  for (size_t i = 0; i < n; ++i) {
    ts.load(i, pkt);
    ts.load(i, spec);
    r.verdicts.push_back(sw.process(pkt));
    r.digests.push_back(packet_digest(pkt));
    proto::ParseInfo pi;
    proto::parse(spec.data(), spec.len(), proto::ParserPlan::full(), pi);
    pi.in_port = spec.in_port();
    std::vector<flow::TraceStep> steps;
    EXPECT_EQ(r.verdicts.back(), pl.process(spec, pi, &steps))
        << "spec verdict, packet " << i;
    EXPECT_EQ(r.digests.back(), packet_digest(spec)) << "spec bytes, packet " << i;
    for (const flow::TraceStep& st : steps) {
      ++want[st.table_id].lookups;
      ++(st.entry != nullptr ? want[st.table_id].hits : want[st.table_id].misses);
    }
  }
  for (const flow::FlowTable& t : pl.tables()) {
    if (sw.is_decomposed(t.id())) continue;
    const auto got = sw.datapath().table_stats(sw.root_slot(t.id()));
    EXPECT_EQ(got.lookups, want[t.id()].lookups) << "table " << int{t.id()};
    EXPECT_EQ(got.hits, want[t.id()].hits) << "table " << int{t.id()};
    EXPECT_EQ(got.misses, want[t.id()].misses) << "table " << int{t.id()};
  }
  return r;
}

void expect_stats_equal(const Eswitch& a, const Eswitch& b) {
  const auto sa = a.datapath().stats();
  const auto sb = b.datapath().stats();
  EXPECT_EQ(sa.packets, sb.packets);
  EXPECT_EQ(sa.outputs, sb.outputs);
  EXPECT_EQ(sa.drops, sb.drops);
  EXPECT_EQ(sa.to_controller, sb.to_controller);
  ASSERT_EQ(a.datapath().num_slots(), b.datapath().num_slots());
  for (int32_t s = 0; s < a.datapath().num_slots(); ++s) {
    const auto ta = a.datapath().table_stats(s);
    const auto tb = b.datapath().table_stats(s);
    EXPECT_EQ(ta.lookups, tb.lookups) << "slot " << s;
    EXPECT_EQ(ta.hits, tb.hits) << "slot " << s;
    EXPECT_EQ(ta.misses, tb.misses) << "slot " << s;
  }
}

/// Same pipeline into one switch per burst shape (`bursts`, 0 = irregular),
/// each against a reference switch running process() (a burst of one) and
/// against Pipeline::run: verdicts, frame mutations, verdict-level and
/// per-slot stats must agree packet for packet.  The plan without a machine
/// program (JIT off) runs the same comparison at full bursts.
void expect_fused_parity(const Pipeline& pl,
                         const std::vector<net::FlowSpec>& flows,
                         CompilerConfig cfg = {}, size_t n_packets = 3000,
                         const std::vector<uint32_t>& bursts = {1, 7, 32, 0}) {
  const auto ts = net::TrafficSet::from_flows(flows);
  Eswitch ref_sw(cfg);
  ref_sw.install(pl);
  ASSERT_TRUE(ref_sw.fused_active()) << "plan was not published";
  const RunResult ref = run_reference(ref_sw, pl, ts, n_packets);

  CompilerConfig interp_cfg = cfg;
  interp_cfg.enable_jit = false;
  const auto check = [&](const CompilerConfig& c, uint32_t burst) {
    SCOPED_TRACE(::testing::Message() << "burst " << burst << " jit " << c.enable_jit);
    Eswitch sw(c);
    sw.install(pl);
    ASSERT_TRUE(sw.fused_active()) << "plan was not published";
    if (!c.enable_jit) {
      EXPECT_EQ(sw.datapath().fused()->program, nullptr);
    }
    const RunResult got = run_bursts(sw, ts, n_packets, burst);
    ASSERT_EQ(got.verdicts.size(), ref.verdicts.size());
    for (size_t i = 0; i < got.verdicts.size(); ++i) {
      ASSERT_EQ(got.verdicts[i], ref.verdicts[i]) << "packet " << i;
      ASSERT_EQ(got.digests[i], ref.digests[i]) << "packet " << i;
    }
    expect_stats_equal(sw, ref_sw);
  };
  for (const uint32_t burst : bursts) check(cfg, burst);
  check(interp_cfg, net::kBurstSize);
}

// --- fusability ------------------------------------------------------------

TEST(Fusion, ActiveForEveryTemplateShape) {
  struct Case {
    TableTemplate expect;
    Pipeline pl;
    CompilerConfig cfg;
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
    EXPECT_TRUE(sw.fused_active())
        << "template " << static_cast<int>(c.expect) << " blocked fusion";
    const FusedPipeline* fp = sw.datapath().fused();
    ASSERT_NE(fp, nullptr);
    EXPECT_EQ(fp->stages.size(), 1u);
    // Every table here is cache-resident, so no stage probes in bulk (see
    // ParityBatchedCuckooBetweenDirectCodeStages for one that does).
    EXPECT_FALSE(fp->stages[0].batched);
    EXPECT_TRUE(fp->batched.empty());
    // Only direct-code members get machine code; the rest is a pinned plan.
    if (c.expect == TableTemplate::kDirectCode && jit::ExecBuffer::supported()) {
      EXPECT_NE(fp->program, nullptr);
    }
  }
}

TEST(Fusion, DecomposedTableIsFusedAndCoversEverySubSlot) {
  CompilerConfig cfg;
  cfg.enable_decomposition = true;
  for (const bool jit : {true, false}) {
    SCOPED_TRACE(jit ? "jit" : "interpreter");
    cfg.enable_jit = jit;
    Eswitch sw(cfg);
    const auto uc = uc::make_load_balancer(20);
    sw.install(uc.pipeline);
    ASSERT_TRUE(sw.is_decomposed(0));
    ASSERT_TRUE(sw.fused_active());
    const FusedPipeline* fp = sw.datapath().fused();
    // One stage per decomposition table: the root first, then every
    // sub-slot, each mapped back to its stage.
    ASSERT_EQ(fp->stages.size(), sw.decomposed_table_count(0));
    EXPECT_EQ(fp->stages[0].slot, sw.root_slot(0));
    std::vector<bool> covered(static_cast<size_t>(sw.datapath().num_slots()), false);
    for (size_t k = 0; k < fp->stages.size(); ++k) {
      const int32_t slot = fp->stages[k].slot;
      EXPECT_EQ(fp->stage_of_slot[static_cast<size_t>(slot)], static_cast<int32_t>(k));
      EXPECT_EQ(fp->stages[k].impl, sw.datapath().impl(slot));
      covered[static_cast<size_t>(slot)] = true;
    }
    EXPECT_EQ(std::count(covered.begin(), covered.end(), true),
              static_cast<long>(sw.decomposed_table_count(0)));
    if (jit && jit::ExecBuffer::supported()) {
      EXPECT_NE(fp->program, nullptr) << "direct-code sub-tables not fused";
    }
    if (!jit) {
      EXPECT_EQ(fp->program, nullptr);
    }
    // The plan serves the decomposed pipeline: every internal goto is
    // forward, so no packet meets the walk's backward-edge drop.
    const auto ts = net::TrafficSet::from_flows(uc.traffic(400, 5));
    const RunResult r = run_bursts(sw, ts, 400, net::kBurstSize);
    for (size_t i = 0; i < r.verdicts.size(); ++i) {
      net::Packet spec;
      ts.load(i, spec);
      ASSERT_EQ(r.verdicts[i], uc.pipeline.run(spec)) << "packet " << i;
    }
    EXPECT_EQ(sw.datapath().stats().packets, 400u);
  }
}

/// A table whose decomposition shares a memoized leaf between two routers,
/// the second allocated after the leaf: pivot ip_dst (3 keys), then tcp_dst
/// under 10.0.0.1 and 10.0.0.2, whose tcp_dst=10 branches are one residual.
Pipeline memo_hit_pipeline() {
  Pipeline pl;
  flow::FlowTable& t = pl.table(0);
  for (const char* dst : {"10.0.0.1", "10.0.0.2"}) {
    const std::string d = dst;
    t.add(parse_rule("priority=20,ip_dst=" + d + ",tcp_dst=10,ip_src=1.0.0.1,actions=output:1"));
    t.add(parse_rule("priority=20,ip_dst=" + d + ",tcp_dst=10,ip_src=1.0.0.2,actions=output:4"));
  }
  t.add(parse_rule("priority=20,ip_dst=10.0.0.1,tcp_dst=11,ip_src=2.0.0.1,actions=output:2"));
  t.add(parse_rule("priority=20,ip_dst=10.0.0.2,tcp_dst=12,ip_src=3.0.0.1,actions=output:3"));
  t.add(parse_rule("priority=20,ip_dst=10.0.0.3,tcp_dst=13,actions=output:5"));
  return pl;
}

TEST(Fusion, ParityMemoHitDecompositionWithBackwardIndexEdge) {
  const Pipeline pl = memo_hit_pipeline();
  // The decomposition DAG has an edge from a router to a lower-indexed
  // table: index order is not a topological order.
  const core::DecomposedPipeline d = core::decompose(pl.tables().front());
  ASSERT_FALSE(d.unchanged());
  bool backward = false;
  for (size_t t = 0; t < d.tables.size(); ++t)
    for (const auto& e : d.tables[t].entries)
      backward |= e.internal_next >= 0 && static_cast<size_t>(e.internal_next) < t;
  ASSERT_TRUE(backward) << "decomposition has no backward index edge";
  const std::vector<int32_t> order = d.topological_order();
  ASSERT_EQ(order.size(), d.tables.size());
  EXPECT_EQ(order.front(), 0);
  std::vector<size_t> pos(d.tables.size());
  for (size_t k = 0; k < order.size(); ++k) pos[static_cast<size_t>(order[k])] = k;
  for (size_t t = 0; t < d.tables.size(); ++t)
    for (const auto& e : d.tables[t].entries)
      if (e.internal_next >= 0) {
        EXPECT_LT(pos[t], pos[static_cast<size_t>(e.internal_next)]);
      }

  CompilerConfig cfg;
  cfg.enable_decomposition = true;
  Eswitch probe(cfg);
  probe.install(pl);
  ASSERT_TRUE(probe.is_decomposed(0));
  ASSERT_EQ(probe.decomposed_table_count(0), d.tables.size());
  ASSERT_TRUE(probe.fused_active());

  // Traffic that reaches every leaf, the shared one from both routers.
  Rng rng(0xBAC);
  std::vector<net::FlowSpec> flows;
  const uint32_t dsts[] = {test::ip("10.0.0.1"), test::ip("10.0.0.2"),
                           test::ip("10.0.0.3"), test::ip("10.0.0.4")};
  const uint32_t srcs[] = {test::ip("1.0.0.1"), test::ip("1.0.0.2"),
                           test::ip("2.0.0.1"), test::ip("3.0.0.1"),
                           test::ip("9.9.9.9")};
  for (int i = 0; i < 600; ++i) {
    net::FlowSpec f;
    f.pkt = test::tcp_spec(srcs[rng.below(5)], dsts[rng.below(4)],
                           static_cast<uint16_t>(rng.below(0x10000)),
                           static_cast<uint16_t>(10 + rng.below(4)));
    flows.push_back(f);
  }
  expect_fused_parity(pl, flows, cfg, flows.size());
}

// --- parity: bursts vs a burst of one vs the spec interpreter ---------------

TEST(Fusion, ParityDirectCodeGotoChainWithMutationsAndControllerMiss) {
  // Three direct-code tables chained by gotos; the middle one's miss goes to
  // the controller and the chain mutates the frame twice (dec_ttl) — packet
  // bytes, action accumulation across stages and both miss policies in one
  // machine-fused graph.
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=30,eth_type=0x0800,actions=dec_ttl,goto:1"));
  pl.table(0).add(parse_rule("priority=10,eth_type=0x0806,actions=controller"));
  pl.table(1).add(parse_rule("priority=20,tcp_dst=80,actions=dec_ttl,goto:2"));
  pl.table(1).add(parse_rule("priority=15,udp_dst=53,actions=goto:2"));
  pl.table(1).set_miss_policy(flow::FlowTable::MissPolicy::kController);
  pl.table(2).add(parse_rule("priority=10,ip_dst=10.0.0.0/8,actions=output:3"));
  pl.table(2).add(parse_rule("priority=1,actions=output:9"));

  Eswitch probe;
  probe.install(pl);
  for (uint8_t t : {0, 1, 2})
    ASSERT_EQ(probe.table_template(t), TableTemplate::kDirectCode);
  if (jit::ExecBuffer::supported()) {
    ASSERT_TRUE(probe.fused_active());
    EXPECT_NE(probe.datapath().fused()->program, nullptr);
  }
  expect_fused_parity(pl, random_traffic(600, 0xFC1));
}

TEST(Fusion, ParityHashL2) {
  const auto uc = uc::make_l2(256);
  expect_fused_parity(uc.pipeline, uc.traffic(1000, 7));
}

TEST(Fusion, ParityBatchedCuckooBetweenDirectCodeStages) {
  // Direct code -> cuckoo -> direct code: the middle stage, past the private
  // caches, is probed in bulk once per walk round, between two machine-code
  // members.  Paths end at every stage (controller at 0, output at 1, output
  // at 2), misses and frames without UDP reach the cuckoo's controller miss
  // policy, and the frame is rewritten (dec_ttl) on the way.  Bursts of 1 (the scalar
  // fallback), 2 (the smallest bulk group), 7 and 32 (a full burst).
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=30,eth_type=0x0800,actions=dec_ttl,goto:1"));
  pl.table(0).add(parse_rule("priority=10,eth_type=0x0806,actions=controller"));
  for (int d = 0; d < 512; ++d)
    pl.table(1).add(parse_rule("priority=10,udp_dst=" + std::to_string(d) +
                               (d % 2 == 0 ? ",actions=dec_ttl,goto:2"
                                           : ",actions=output:" + std::to_string(4 + d % 3))));
  // Filler the traffic never reaches (its UDP ports stay below 0x400) pushes
  // the table past kPrefetchMinBytes, where the planner batches it.
  for (int d = 0x1000; d < 0x1000 + 40000; ++d)
    pl.table(1).add(parse_rule("priority=10,udp_dst=" + std::to_string(d) +
                               ",actions=output:4"));
  pl.table(1).set_miss_policy(flow::FlowTable::MissPolicy::kController);
  pl.table(2).add(parse_rule("priority=10,ip_dst=10.0.0.0/8,actions=output:3"));
  pl.table(2).add(parse_rule("priority=1,actions=output:9"));
  const CompilerConfig cfg;

  Eswitch probe(cfg);
  probe.install(pl);
  ASSERT_EQ(probe.table_template(0), TableTemplate::kDirectCode);
  ASSERT_EQ(probe.table_template(1), TableTemplate::kCuckooHash);
  ASSERT_EQ(probe.table_template(2), TableTemplate::kDirectCode);
  ASSERT_GE(probe.datapath().impl(probe.root_slot(1))->memory_bytes(),
            CompiledDatapath::kPrefetchMinBytes);
  ASSERT_TRUE(probe.fused_active());
  const FusedPipeline* fp = probe.datapath().fused();
  ASSERT_EQ(fp->batched, std::vector<uint32_t>{1});
  EXPECT_TRUE(fp->stages[1].batched);

  const auto flows = random_traffic(1200, 0xB47);
  expect_fused_parity(pl, flows, cfg, flows.size(), {1, 2, 7, 32});
}

TEST(Fusion, ParityLpmL3) {
  const auto uc = uc::make_l3(500);
  expect_fused_parity(uc.pipeline, uc.traffic(1500, 11));
}

TEST(Fusion, ParityRangeTemplate) {
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=100,udp_dst=0x100/0xFF00,actions=output:1"));
  pl.table(0).add(parse_rule("priority=20,udp_dst=0x140/0xFFC0,actions=output:2"));
  pl.table(0).add(parse_rule("priority=90,udp_dst=0x200/0xFF00,actions=output:3"));
  pl.table(0).add(parse_rule("priority=95,udp_dst=0x240/0xFFC0,actions=output:4"));
  pl.table(0).add(parse_rule("priority=1,actions=drop"));
  CompilerConfig cfg;
  cfg.direct_code_max_entries = 2;
  expect_fused_parity(pl, random_traffic(600, 0x4A), cfg);
}

TEST(Fusion, ParityLinkedListAcls) {
  Pipeline pl;
  const flow::FlowTable acls = uc::make_snort_like_acls(48);
  for (const flow::FlowEntry& e : acls.entries()) pl.table(0).add(e);
  expect_fused_parity(pl, random_traffic(800, 0x11));
}

TEST(Fusion, ParityGatewayMultiTable) {
  const auto uc = uc::make_gateway(4, 8, 200);
  expect_fused_parity(uc.pipeline, uc.traffic(1500, 31));
}

// --- churn: republish, fingerprint skip, program reuse ----------------------

TEST(Fusion, InPlaceUpdateKeepsPublishedPlan) {
  // An incremental cuckoo add mutates the impl in place — without workers
  // and under a registered one alike: the (slot, impl, miss) fingerprint is
  // unchanged, so refresh_fusion must skip the republish and the plan
  // pointer must not move.
  for (const bool with_worker : {false, true}) {
    SCOPED_TRACE(with_worker ? "registered worker" : "no workers");
    Pipeline pl;
    for (int i = 0; i < 20; ++i)
      pl.table(0).add(parse_rule("priority=5,udp_dst=" + std::to_string(i) +
                                 ",actions=output:1"));
    Eswitch sw;
    sw.install(pl);
    ASSERT_EQ(sw.table_template(0), TableTemplate::kCuckooHash);
    ASSERT_TRUE(sw.fused_active());
    Eswitch::Worker* w = with_worker ? sw.register_worker() : nullptr;
    ASSERT_EQ(w != nullptr, with_worker);
    const FusedPipeline* before = sw.datapath().fused();
    const auto rebuilds = sw.update_stats().table_rebuilds;
    const auto republishes = sw.update_stats().fusion_republishes;

    sw.apply(add_mod(0, "priority=5,udp_dst=1000,actions=output:7"));
    ASSERT_EQ(sw.update_stats().table_rebuilds, rebuilds);  // in place indeed
    EXPECT_EQ(sw.update_stats().cow_swaps, 0u);
    EXPECT_EQ(sw.update_stats().fusion_republishes, republishes);
    EXPECT_EQ(sw.datapath().fused(), before) << "unchanged fingerprint republished";

    // The live plan serves the new rule through the pinned impl.
    net::Packet p = test::make_packet(test::udp_spec(1, 2, 9, 1000));
    net::Packet* pp = &p;
    Verdict v;
    if (with_worker)
      sw.process_burst(*w, &pp, 1, &v);
    else
      sw.process_burst(&pp, 1, &v);
    EXPECT_EQ(v, Verdict::output(7));
    if (with_worker) sw.unregister_worker(w);
  }
}

TEST(Fusion, InPlaceLinkedListUpdateKeepsPublishedPlan) {
  // The linked list updates in place too: under a registered worker a
  // masked-rule add and a modify land in the published tuple space, so the
  // plan's fingerprint (and pointer) stay put and the plan serves the change.
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=10,eth_type=0x0800,actions=goto:1"));
  for (int i = 0; i < 20; ++i)
    pl.table(1).add(parse_rule("priority=5,udp_dst=" + std::to_string(i) +
                               ",actions=output:1"));
  // A masked rule breaks the hash prerequisite: table 1 is a linked list.
  pl.table(1).add(parse_rule("priority=9,udp_dst=0x100/0x100,actions=output:2"));
  Eswitch sw;
  sw.install(pl);
  ASSERT_EQ(sw.table_template(1), TableTemplate::kLinkedList);
  ASSERT_TRUE(sw.fused_active());
  Eswitch::Worker* w = sw.register_worker();
  ASSERT_NE(w, nullptr);
  const FusedPipeline* before = sw.datapath().fused();
  const core::CompiledTable* impl = sw.datapath().impl(sw.root_slot(1));
  const auto rebuilds = sw.update_stats().table_rebuilds;

  sw.apply(add_mod(1, "priority=5,udp_dst=0x2000/0xFFF0,actions=output:7"));
  sw.apply(add_mod(1, "priority=5,udp_dst=3,actions=output:8"));  // modify
  EXPECT_EQ(sw.update_stats().table_rebuilds, rebuilds);
  EXPECT_EQ(sw.datapath().impl(sw.root_slot(1)), impl);
  EXPECT_EQ(sw.datapath().fused(), before) << "unchanged fingerprint republished";

  for (const auto& [port, want] : {std::pair<uint16_t, uint32_t>{0x2001, 7}, {3, 8}}) {
    net::Packet p = test::make_packet(test::udp_spec(1, 2, 9, port));
    net::Packet* pp = &p;
    Verdict v;
    sw.process_burst(*w, &pp, 1, &v);
    EXPECT_EQ(v, Verdict::output(want)) << "udp_dst=" << port;
  }
  sw.unregister_worker(w);
}

TEST(Fusion, RebuildChurnReusesMachineProgram) {
  // Mixed pipeline: a direct-code stage chained into an LPM stage.  With a
  // worker registered, a priority-inverted route breaks the LPM prerequisite
  // and the table rebuilds — the impl pointer changes, so the plan must
  // republish (new fingerprint), but the direct-code member set is untouched
  // (same program_key), so the previous machine program must be reused, not
  // re-emitted.  A direct-code mod then changes the member set and must
  // produce a fresh program.
  if (!jit::ExecBuffer::supported()) GTEST_SKIP() << "no executable memory";
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=10,eth_type=0x0800,actions=goto:1"));
  for (int i = 0; i < 32; ++i)
    pl.table(1).add(parse_rule("priority=8,ip_dst=" + std::to_string(i) +
                               ".0.0.0/8,actions=output:1"));
  for (int i = 0; i < 8; ++i)  // mixed lengths: analysis lands on LPM
    pl.table(1).add(parse_rule("priority=16,ip_dst=40." + std::to_string(i) +
                               ".0.0/16,actions=output:3"));
  Eswitch sw;
  sw.install(pl);
  ASSERT_EQ(sw.table_template(0), TableTemplate::kDirectCode);
  ASSERT_EQ(sw.table_template(1), TableTemplate::kLpm);
  ASSERT_TRUE(sw.fused_active());

  Eswitch::Worker* w = sw.register_worker();
  ASSERT_NE(w, nullptr);

  const FusedPipeline* plan0 = sw.datapath().fused();
  ASSERT_NE(plan0, nullptr);
  ASSERT_NE(plan0->program, nullptr);
  const jit::FusedProgram* prog0 = plan0->program.get();
  const core::CompiledTable* impl0 = sw.datapath().impl(sw.root_slot(1));

  const auto rebuilds = sw.update_stats().table_rebuilds;
  // A /24 below its /8 in priority: LPM refuses, the table rebuilds.
  sw.apply(add_mod(1, "priority=2,ip_dst=3.0.5.0/24,actions=output:9"));
  EXPECT_EQ(sw.update_stats().table_rebuilds, rebuilds + 1);
  EXPECT_NE(sw.datapath().impl(sw.root_slot(1)), impl0);
  const FusedPipeline* plan1 = sw.datapath().fused();
  ASSERT_NE(plan1, nullptr);
  EXPECT_NE(plan1, plan0) << "rebuild churn did not republish";
  EXPECT_EQ(plan1->program.get(), prog0) << "unchanged member set re-emitted";

  sw.apply(add_mod(0, "priority=9,eth_type=0x0806,actions=controller"));
  const FusedPipeline* plan2 = sw.datapath().fused();
  ASSERT_NE(plan2, nullptr);
  ASSERT_NE(plan2->program, nullptr);
  EXPECT_NE(plan2->program.get(), prog0) << "stale machine code kept after dc rebuild";

  sw.unregister_worker(w);
  sw.datapath().reclaim();
  EXPECT_EQ(sw.datapath().reclaim_stats().pending, 0u);
}

// --- degradation: exec-map refusal, re-emit on the next update --------------

/// Arms the ExecBuffer failure hook for one scope (the jit.exec_map site).
struct ExecFailGuard {
  ExecFailGuard() { jit::ExecBuffer::force_failure_for_testing(true); }
  ~ExecFailGuard() { jit::ExecBuffer::force_failure_for_testing(false); }
};

TEST(Fusion, ExecMapFailureFallsBackThenRecovers) {
  if (!jit::ExecBuffer::supported()) GTEST_SKIP() << "no executable memory";
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=10,udp_dst=53,actions=goto:1"));
  pl.table(0).add(parse_rule("priority=0,actions=goto:1"));  // catch-all
  pl.table(1).add(parse_rule("priority=10,udp_dst=53,actions=output:4"));
  Eswitch sw;
  sw.install(pl);
  ASSERT_TRUE(sw.fused_active());
  ASSERT_NE(sw.datapath().fused()->program, nullptr);

  {
    ExecFailGuard guard;
    // The rebuild's fused re-compile is refused: the plan stays published,
    // without machine code, its direct-code stages interpreted.
    sw.apply(add_mod(1, "priority=9,udp_dst=99,actions=output:5"));
    ASSERT_TRUE(sw.fused_active()) << "refused compile left no plan published";
    EXPECT_EQ(sw.datapath().fused()->program, nullptr);
    EXPECT_EQ(sw.stats().fusion_fallbacks, 1u);
    // Every update while the mapper keeps refusing tries the emit once more
    // and counts one more fallback.
    sw.apply(add_mod(1, "priority=8,udp_dst=100,actions=output:6"));
    EXPECT_EQ(sw.datapath().fused()->program, nullptr);
    EXPECT_EQ(sw.stats().fusion_fallbacks, 2u);
  }

  // The program-less plan serves the same verdicts the spec gives.
  const auto expect_verdicts = [&] {
    for (const uint16_t dport : {53, 99, 100, 101, 7}) {
      net::Packet p = test::make_packet(test::udp_spec(1, 2, 9, dport));
      net::Packet spec = p;
      net::Packet* pp = &p;
      Verdict v;
      sw.process_burst(&pp, 1, &v);
      EXPECT_EQ(v, sw.pipeline().run(spec)) << "udp_dst=" << dport;
    }
  };
  expect_verdicts();
  net::Packet p = test::make_packet(test::udp_spec(1, 2, 9, 99));
  EXPECT_EQ(sw.process(p), Verdict::output(5));

  // The first healthy update re-emits the program.
  sw.apply(add_mod(1, "priority=7,udp_dst=101,actions=output:7"));
  ASSERT_TRUE(sw.fused_active());
  EXPECT_NE(sw.datapath().fused()->program, nullptr)
      << "healthy update did not re-emit the program";
  EXPECT_EQ(sw.stats().fusion_fallbacks, 2u);
  expect_verdicts();

  net::Packet p2 = test::make_packet(test::udp_spec(1, 2, 9, 53));
  net::Packet* pp2 = &p2;
  Verdict v;
  sw.process_burst(&pp2, 1, &v);
  EXPECT_EQ(v, Verdict::output(4));
}

// The fused program is the switch's only machine code: a plan emit maps one
// executable buffer however many direct-code stages it covers, and a
// rebuilt direct-code table costs one more mapping — the plan's re-emit.
TEST(Fusion, OneExecMappingPerPlanEmit) {
  if (!jit::ExecBuffer::supported()) GTEST_SKIP() << "no executable memory";
  auto& fpr = common::FailpointRegistry::instance();
  const common::Failpoint& exec_map = fpr.point("jit.exec_map");
  const uint64_t fires0 = exec_map.fires();
  CompilerConfig cfg;
  cfg.enable_decomposition = true;
  Eswitch sw(cfg);
  const auto uc = uc::make_load_balancer(16);

  ASSERT_TRUE(fpr.arm("jit.exec_map", "nth:1000000000"));  // counts, never fires
  sw.install(uc.pipeline);
  ASSERT_TRUE(sw.is_decomposed(0));
  const FusedPipeline* fp = sw.datapath().fused();
  ASSERT_NE(fp, nullptr);
  ASSERT_NE(fp->program, nullptr);
  const auto direct_code = std::count_if(
      fp->stages.begin(), fp->stages.end(), [](const FusedPipeline::Stage& st) {
        return st.impl->kind() == TableTemplate::kDirectCode;
      });
  EXPECT_GT(direct_code, 1);
  EXPECT_EQ(fp->program->n_members(), static_cast<uint32_t>(direct_code));
  EXPECT_EQ(exec_map.hits(), 1u) << "install mapped more than the fused program";
  const jit::FusedProgram* prog0 = fp->program.get();

  // One add to the decomposed table rebuilds its direct-code sub-tables.
  sw.apply(add_mod(0, "priority=20,in_port=1,ip_dst=10.1.0.99,tcp_dst=80,"
                      "ip_src=0.0.0.0/1,actions=output:99"));
  ASSERT_NE(sw.datapath().fused()->program, nullptr);
  EXPECT_NE(sw.datapath().fused()->program.get(), prog0);
  EXPECT_EQ(exec_map.hits(), 2u) << "a direct-code rebuild mapped more than the re-emit";
  fpr.disarm("jit.exec_map");
  EXPECT_EQ(exec_map.fires(), fires0);
}

// --- pathological goto graphs (shared loop-bound policy) --------------------

TEST(Fusion, GotoCycleTerminatesInBoundedDrop) {
  // Two interpreter tables hand-wired into a cycle via raw internal_next slot
  // ids — below the control-plane validator (which enforces forward gotos) —
  // under a hand-built plan with the same backward edge: the walk's
  // monotone-stage guard must drop at the first backward transition, not
  // hang.
  CompiledDatapath dp;
  const core::GotoMap gmap(256, -1);
  core::BuildCtx ctx{dp.actions(), gmap};
  const int32_t s0 = dp.add_slot();
  const int32_t s1 = dp.add_slot();
  core::BuildEntry e;  // match-all, no actions
  e.priority = 1;
  e.internal_next = s1;
  dp.set_impl(s0, core::DirectCodeTable::build({e}, ctx));
  e.internal_next = s0;
  dp.set_impl(s1, core::DirectCodeTable::build({e}, ctx));
  dp.set_start(s0);

  auto fp = std::make_unique<FusedPipeline>();
  fp->stage_of_slot.assign(static_cast<size_t>(dp.num_slots()), -1);
  fp->stages.push_back({s0, dp.impl(s0), flow::FlowTable::MissPolicy::kDrop,
                        false, false, nullptr, 0});
  fp->stages.push_back({s1, dp.impl(s1), flow::FlowTable::MissPolicy::kDrop,
                        false, false, nullptr, 1});
  fp->stage_of_slot[static_cast<size_t>(s0)] = 0;
  fp->stage_of_slot[static_cast<size_t>(s1)] = 1;
  dp.set_fused(std::move(fp));

  net::Packet p = test::make_packet(test::udp_spec(1, 2, 3, 4));
  net::Packet* pp = &p;
  Verdict v = Verdict::output(9);
  dp.process_burst(&pp, 1, &v);
  EXPECT_EQ(v, Verdict::drop());
  EXPECT_EQ(dp.process(p), Verdict::drop());  // a burst of one, same walk
  EXPECT_EQ(dp.stats().packets, 2u);
  EXPECT_EQ(dp.stats().drops, 2u);
  // Each packet hit both stages once before the backward edge dropped it.
  EXPECT_EQ(dp.table_stats(s0).lookups, 2u);
  EXPECT_EQ(dp.table_stats(s1).lookups, 2u);
}

// --- concurrent churn: epoch-safe republish ---------------------------------

TEST(Fusion, ImplPinnedByPlanOutlivesPacketPathEpochAdvance) {
  // A rebuilt impl leaves its slot before the plan that pins it is
  // republished.  Meanwhile the packet path advances the epoch (conntrack
  // expiry does) and a worker ticks in the new epoch, then walks the old
  // plan into the displaced impl.  That impl must survive the writer's next
  // reclaim and go only after the worker ticks again.
  CompiledDatapath dp;
  const core::GotoMap gmap(256, -1);
  core::BuildCtx ctx{dp.actions(), gmap};
  const int32_t s0 = dp.add_slot();
  core::BuildEntry e;  // match-all, no actions
  e.priority = 1;
  const auto plan_for = [&] {
    auto fp = std::make_unique<FusedPipeline>();
    fp->stage_of_slot.assign(static_cast<size_t>(dp.num_slots()), -1);
    fp->stages.push_back({s0, dp.impl(s0), flow::FlowTable::MissPolicy::kDrop,
                          false, false, nullptr, 0});
    fp->stage_of_slot[static_cast<size_t>(s0)] = 0;
    return fp;
  };
  dp.set_impl(s0, core::DirectCodeTable::build({e}, ctx));
  dp.set_start(s0);
  dp.set_fused(plan_for());
  dp.reclaim();
  CompiledDatapath::Worker* w = dp.register_worker();
  ASSERT_NE(w, nullptr);
  net::Packet p = test::make_packet(test::udp_spec(1, 2, 3, 4));
  const auto reclaimed_before = dp.reclaim_stats().reclaimed;

  dp.set_impl(s0, core::DirectCodeTable::build({e}, ctx));  // displaced, still pinned
  dp.domain().advance();                                   // packet-path advance
  EXPECT_EQ(dp.process(*w, p), Verdict::drop());           // ticks, walks the old plan
  dp.set_fused(plan_for());
  dp.reclaim();
  EXPECT_EQ(dp.reclaim_stats().reclaimed, reclaimed_before)
      << "an impl the worker's plan still pins was freed";
  EXPECT_EQ(dp.reclaim_stats().pending, 2u);  // the impl and its plan

  EXPECT_EQ(dp.process(*w, p), Verdict::drop());  // the next tick unpins both
  dp.reclaim();
  EXPECT_EQ(dp.reclaim_stats().pending, 0u);
  dp.unregister_worker(w);
}


TEST(Fusion, ConcurrentChurnRepublishesEpochSafely) {
  // One packet worker runs fused bursts while the control thread churns the
  // MAC table's cuckoo index in place under the pinned plan.  The
  // run must stay crash-free with exact verdict accounting, and every retired
  // plan/impl must drain once the worker is gone.
  const auto uc = uc::make_l2(2000);
  Eswitch sw;
  sw.install(uc.pipeline);
  ASSERT_TRUE(sw.fused_active());
  Eswitch::Worker* w = sw.register_worker();
  ASSERT_NE(w, nullptr);

  const auto ts = net::TrafficSet::from_flows(uc.traffic(512, 99));
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> processed{0};
  std::thread worker([&] {
    std::vector<net::Packet> bufs(net::kBurstSize);
    std::vector<net::Packet*> ptrs(bufs.size());
    Verdict verdicts[net::kBurstSize];
    for (size_t b = 0; b < bufs.size(); ++b) ptrs[b] = &bufs[b];
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (uint32_t b = 0; b < net::kBurstSize; ++b)
        ts.load((i + b) % 512, bufs[b]);
      sw.process_burst(*w, ptrs.data(), net::kBurstSize, verdicts);
      processed.fetch_add(net::kBurstSize, std::memory_order_relaxed);
      i += net::kBurstSize;
    }
  });

  for (int k = 0; k < 300; ++k) {
    FlowMod fm;
    fm.command = FlowMod::Cmd::kAdd;
    fm.table_id = 0;
    fm.priority = 5;
    fm.match.set(FieldId::kEthDst, 0x020000000000ull | static_cast<uint64_t>(k),
                 0xFFFFFFFFFFFFull);
    fm.actions.push_back(flow::Action::output(2));
    sw.apply(fm);
  }
  stop.store(true);
  worker.join();
  sw.unregister_worker(w);

  EXPECT_TRUE(sw.fused_active()) << "churn ended with the fast path lost";
  const auto st = sw.datapath().stats();
  EXPECT_EQ(st.packets, processed.load());
  EXPECT_EQ(st.packets, st.outputs + st.drops + st.to_controller);
  sw.datapath().reclaim();
  EXPECT_EQ(sw.datapath().reclaim_stats().pending, 0u)
      << "retired plans/impls stuck after the last worker left";
}

TEST(Fusion, DecomposedChurnUnderWorker) {
  // One worker runs decomposed-lb bursts while the control thread streams
  // VIP add/delete pairs.  Every mod re-decomposes table 0 onto fresh
  // sub-slots and republishes the plan, so the pipeline alternates between
  // two states; every packet's verdict must be the spec's verdict on one of
  // them, verdict accounting must be exact, and every retired sub-slot, impl
  // and plan must drain once the worker is gone.
  constexpr size_t kServices = 16;
  const auto uc = uc::make_load_balancer(kServices);
  CompilerConfig cfg;
  cfg.enable_decomposition = true;
  Eswitch sw(cfg);
  sw.install(uc.pipeline);
  ASSERT_TRUE(sw.is_decomposed(0));
  ASSERT_TRUE(sw.fused_active());

  // The churned VIP: one more web service, its first-bit-0 backend.
  const uint32_t vip = 0x0A010000u | static_cast<uint32_t>(kServices);
  FlowMod add = add_mod(0, "priority=20,in_port=1,ip_dst=" +
                               flow::format_ipv4(vip) +
                               ",tcp_dst=80,ip_src=0.0.0.0/1,actions=output:99");
  FlowMod del = add;
  del.command = FlowMod::Cmd::kDelete;
  Pipeline with_vip = uc.pipeline;
  with_vip.table(0).add(flow::entry_from(add));

  // Base traffic plus packets for the churned VIP; the two pipeline states
  // disagree on the latter.
  std::vector<net::FlowSpec> flows = uc.traffic(384, 17);
  for (uint32_t i = 0; i < 128; ++i) {
    net::FlowSpec f;
    f.pkt = test::tcp_spec(i * 0x01010101u, vip, static_cast<uint16_t>(1024 + i), 80);
    f.in_port = 1;
    flows.push_back(f);
  }
  const auto ts = net::TrafficSet::from_flows(flows);
  std::vector<Verdict> want_base(ts.size()), want_vip(ts.size());
  for (size_t i = 0; i < ts.size(); ++i) {
    net::Packet a, b;
    ts.load(i, a);
    ts.load(i, b);
    want_base[i] = uc.pipeline.run(a);
    want_vip[i] = with_vip.run(b);
  }
  ASSERT_NE(std::count(want_vip.begin(), want_vip.end(), Verdict::output(99)), 0);

  Eswitch::Worker* w = sw.register_worker();
  ASSERT_NE(w, nullptr);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> processed{0}, wrong{0};
  std::thread worker([&] {
    std::vector<net::Packet> bufs(net::kBurstSize);
    std::vector<net::Packet*> ptrs(bufs.size());
    Verdict verdicts[net::kBurstSize];
    for (size_t b = 0; b < bufs.size(); ++b) ptrs[b] = &bufs[b];
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (uint32_t b = 0; b < net::kBurstSize; ++b)
        ts.load((i + b) % ts.size(), bufs[b]);
      sw.process_burst(*w, ptrs.data(), net::kBurstSize, verdicts);
      for (uint32_t b = 0; b < net::kBurstSize; ++b) {
        const size_t k = (i + b) % ts.size();
        if (verdicts[b] != want_base[k] && verdicts[b] != want_vip[k])
          wrong.fetch_add(1, std::memory_order_relaxed);
      }
      processed.fetch_add(net::kBurstSize, std::memory_order_relaxed);
      i += net::kBurstSize;
    }
  });
  while (processed.load(std::memory_order_relaxed) == 0) std::this_thread::yield();

  const auto republishes = sw.update_stats().fusion_republishes;
  constexpr int kPairs = 40;
  for (int k = 0; k < kPairs; ++k) {
    sw.apply(add);
    sw.apply(del);
  }
  stop.store(true);
  worker.join();
  sw.unregister_worker(w);

  EXPECT_GE(sw.update_stats().fusion_republishes, republishes + 2 * kPairs)
      << "a re-decomposition did not republish the plan";
  EXPECT_TRUE(sw.is_decomposed(0));
  EXPECT_TRUE(sw.fused_active());
  EXPECT_EQ(wrong.load(), 0u) << "verdict matched neither pipeline state";
  const auto st = sw.datapath().stats();
  EXPECT_EQ(st.packets, processed.load());
  EXPECT_EQ(st.packets, st.outputs + st.drops + st.to_controller);
  sw.datapath().reclaim();
  const auto rs = sw.datapath().reclaim_stats();
  EXPECT_EQ(rs.pending, 0u) << "retired sub-slots/impls/plans stuck after the worker left";
  EXPECT_EQ(rs.retired, rs.reclaimed);
}

}  // namespace
