// End-to-end integration: full use-case pipelines, both switch
// implementations, generated traffic at scale, differential verdict checks,
// and the measurement loop plumbing benches rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "core/eswitch.hpp"
#include "netio/mbuf_pool.hpp"
#include "netio/nfpa.hpp"
#include "netio/port.hpp"
#include "ovs/ovs_switch.hpp"
#include "test_util.hpp"
#include "usecases/usecases.hpp"

namespace esw {
namespace {

using namespace esw::flow;
using core::Eswitch;

// For every use case: ESWITCH, the OVS model and the reference interpreter
// must agree verdict-for-verdict over thousands of generated packets.
struct Scenario {
  const char* name;
  std::function<uc::UseCase()> make;
};

class UseCaseDifferential : public ::testing::TestWithParam<int> {};

const Scenario kScenarios[] = {
    {"l2", [] { return uc::make_l2(100); }},
    {"l3", [] { return uc::make_l3(500); }},
    {"lb", [] { return uc::make_load_balancer(20); }},
    {"gw", [] { return uc::make_gateway(4, 10, 300); }},
};

TEST_P(UseCaseDifferential, AllDatapathsAgree) {
  const Scenario& sc = kScenarios[GetParam()];
  const auto uc = sc.make();

  core::CompilerConfig cfg;
  cfg.enable_decomposition = true;
  Eswitch es(cfg);
  es.install(uc.pipeline);
  ovs::OvsSwitch ovs_sw;
  ovs_sw.install(uc.pipeline);

  const auto ts = net::TrafficSet::from_flows(uc.traffic(512, 99));
  net::Packet a, b, c;
  for (size_t i = 0; i < 3000; ++i) {
    ts.load(i, a);
    ts.load(i, b);
    ts.load(i, c);
    const Verdict ve = es.process(a);
    const Verdict vo = ovs_sw.process(b);
    const Verdict vr = uc.pipeline.run(c);
    ASSERT_EQ(ve, vr) << sc.name << " pkt " << i;
    ASSERT_EQ(vo, vr) << sc.name << " pkt " << i;
    // Packet mutations (NAT, VLAN) must be identical too.
    ASSERT_EQ(a.len(), c.len()) << sc.name;
    ASSERT_EQ(std::memcmp(a.data(), c.data(), a.len()), 0) << sc.name;
    ASSERT_EQ(b.len(), c.len()) << sc.name;
    ASSERT_EQ(std::memcmp(b.data(), c.data(), b.len()), 0) << sc.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllUseCases, UseCaseDifferential, ::testing::Range(0, 4),
                         [](const auto& info) {
                           return std::string(kScenarios[info.param].name);
                         });

TEST(Integration, EswitchOutpacesOvsOnGatewayWithManyFlows) {
  // The headline claim, miniaturized: with many active flows the compiled
  // datapath sustains its rate while the flow-caching baseline collapses.
  const auto uc = uc::make_gateway(10, 20, 1000);
  Eswitch es;
  es.install(uc.pipeline);
  ovs::OvsSwitch::Config ocfg;
  ocfg.megaflow_flow_limit = 2000;
  ovs::OvsSwitch ovs_sw(ocfg);
  ovs_sw.install(uc.pipeline);

  const auto ts = net::TrafficSet::from_flows(uc.traffic(20000, 1));
  net::RunOpts opts;
  opts.min_seconds = 0.05;
  opts.min_packets = 5000;
  opts.warmup_packets = 2000;

  const auto es_stats = net::run_loop(ts, [&](net::Packet& p) { es.process(p); }, opts);
  const auto ovs_stats =
      net::run_loop(ts, [&](net::Packet& p) { ovs_sw.process(p); }, opts);
  EXPECT_GT(es_stats.pps, 2.0 * ovs_stats.pps)
      << "ES " << es_stats.pps << " vs OVS " << ovs_stats.pps;
}

TEST(Integration, EswitchThroughputRobustToFlowCount) {
  // Fig. 13 shape for ESWITCH alone: rate varies little from 100 to 100K
  // active flows.  Few- and many-flow windows alternate, and their medians
  // are compared, so a burst of host load skews one window, not the verdict.
  const auto uc = uc::make_gateway(10, 20, 1000);
  Eswitch es;
  es.install(uc.pipeline);

  net::RunOpts opts;
  opts.min_seconds = 0.05;
  opts.min_packets = 5000;

  const net::TrafficSet few_ts = net::TrafficSet::from_flows(uc.traffic(100, 1));
  const net::TrafficSet many_ts = net::TrafficSet::from_flows(uc.traffic(100000, 1));
  const auto pps = [&](const net::TrafficSet& ts) {
    return net::run_loop(ts, [&](net::Packet& p) { es.process(p); }, opts).pps;
  };
  constexpr int kPairs = 7;
  std::vector<double> few, many;
  for (int i = 0; i < kPairs; ++i) {  // alternate which window runs first
    if (i % 2 == 0) few.push_back(pps(few_ts));
    many.push_back(pps(many_ts));
    if (i % 2 != 0) few.push_back(pps(few_ts));
  }
  const auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  EXPECT_GT(median(many), median(few) * 0.4);
}

TEST(Integration, PortPathCarriesTraffic) {
  // RX -> switch -> TX through the netio substrate with mbuf accounting.
  const auto uc = uc::make_l2(16);
  Eswitch es;
  es.install(uc.pipeline);

  net::MbufPool pool(64);
  net::Port in_port, out_port;
  const auto ts = net::TrafficSet::from_flows(uc.traffic(64, 3));

  uint64_t forwarded = 0;
  for (size_t i = 0; i < 256; ++i) {
    net::Packet* pkt = pool.alloc();
    ASSERT_NE(pkt, nullptr);
    ts.load(i, *pkt);
    net::Packet* burst[1] = {pkt};
    ASSERT_EQ(in_port.inject_rx(burst, 1), 1u);

    net::Packet* rx[net::kBurstSize];
    const uint32_t n = in_port.rx_burst(rx, net::kBurstSize);
    for (uint32_t k = 0; k < n; ++k) {
      const Verdict v = es.process(*rx[k]);
      if (v.kind == Verdict::Kind::kOutput) {
        out_port.tx_burst_mp(&rx[k], 1);
        ++forwarded;
      }
      pool.free(rx[k]);
    }
    net::Packet* drain[net::kBurstSize];
    while (out_port.drain_tx(drain, net::kBurstSize) > 0) {
    }
  }
  EXPECT_EQ(forwarded, 256u);
  EXPECT_EQ(pool.available(), 64u);  // no leaks
  EXPECT_EQ(out_port.counters().tx_packets, 256u);
}

TEST(Integration, MemTraceProducesDifferentiatedWorkingSets) {
  // ES's traced working set per packet must be far smaller than OVS's
  // slow-path working set on a cold cache — the Fig. 15 mechanism.
  const auto uc = uc::make_gateway(4, 10, 500);
  Eswitch es;
  es.install(uc.pipeline);
  ovs::OvsSwitch::Config ocfg;
  ocfg.megaflow_flow_limit = 64;  // force slow-path recurrence
  ovs::OvsSwitch ovs_sw(ocfg);
  ovs_sw.install(uc.pipeline);

  const auto ts = net::TrafficSet::from_flows(uc.traffic(5000, 1));
  net::Packet p;
  MemTrace et, ot;
  for (size_t i = 0; i < 2000; ++i) {
    ts.load(i, p);
    es.process(p, &et);
    ts.load(i, p);
    ovs_sw.process(p, &ot);
  }
  EXPECT_LT(et.lines().size() * 5, ot.lines().size());
}

}  // namespace
}  // namespace esw
