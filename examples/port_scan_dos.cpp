// The security story (§2.3): a single tenant running an innocent-looking
// port scan degrades a flow-caching switch for everyone — every scanned port
// is a fresh flow, so the caches thrash and packets recur to the slow path —
// while the compiled datapath's per-packet cost does not depend on the
// traffic mix at all.
//
// Part two turns the same attack on the stateful layer: a SYN flood where
// every packet is a fresh connection, replayed from a pcap so the exact
// adversarial trace is reproducible.  The conntrack table saturates and
// degrades by accounted eviction — throughput holds, nothing crashes, and
// every connection the flood displaced shows up in the counters.
//
//   $ ./port_scan_dos
#include <cstdio>

#include "common/rng.hpp"
#include "core/eswitch.hpp"
#include "netio/nfpa.hpp"
#include "netio/trace_source.hpp"
#include "ovs/ovs_switch.hpp"
#include "proto/build.hpp"
#include "proto/headers.hpp"
#include "state/conntrack.hpp"
#include "usecases/usecases.hpp"

using namespace esw;

namespace {

// The victim population: well-behaved users talking to a handful of services.
net::TrafficSet innocent_traffic(const uc::UseCase& uc) {
  return net::TrafficSet::from_flows(uc.traffic(64, 1));
}

// The attacker: a port scan across one CE's uplink — every packet a new flow.
net::TrafficSet scan_traffic(const uc::UseCase& uc, size_t n) {
  auto flows = uc.traffic(n, 2);
  for (size_t i = 0; i < flows.size(); ++i) {
    flows[i].pkt.sport = static_cast<uint16_t>(i);       // sweeping ports
    flows[i].pkt.dport = static_cast<uint16_t>(i >> 16 | 1);
  }
  return net::TrafficSet::from_flows(flows);
}

double mpps(const net::RunStats& st) { return st.pps / 1e6; }

// A SYN flood serialized to a pcap: every frame opens a distinct connection
// (random source address and port), which is exactly the traffic a conntrack
// table cannot absorb past its capacity.
net::PcapWriter syn_flood_pcap(size_t n, uint64_t seed) {
  net::PcapWriter w;
  Rng rng(seed);
  uint8_t frame[256];
  for (size_t i = 0; i < n; ++i) {
    proto::PacketSpec s;
    s.kind = proto::PacketKind::kTcp;
    s.ip_src = 0x0A000000u | static_cast<uint32_t>(rng.below(1u << 24));
    s.ip_dst = 0xCB007105u;  // 203.0.113.5
    s.sport = static_cast<uint16_t>(1024 + rng.below(60000));
    s.dport = 443;
    s.tcp_flags = proto::kTcpFlagSyn;
    w.add(frame, proto::build_packet(s, frame, sizeof frame), i);
  }
  return w;
}

}  // namespace

int main() {
  const auto uc = uc::make_gateway(10, 20, 10000);
  net::RunOpts opts;
  opts.min_seconds = 0.15;
  opts.warmup_packets = 20000;

  const auto innocent = innocent_traffic(uc);
  const auto scan = scan_traffic(uc, 400000);

  // Both switches run through the burst datapath, as in production.
  ovs::OvsSwitch ovs_sw;
  ovs_sw.install(uc.pipeline);
  const auto ovs_before = net::run_loop_burst(innocent, uc::burst_fn(ovs_sw), opts);
  const auto ovs_attack = net::run_loop_burst(scan, uc::burst_fn(ovs_sw), opts);

  core::Eswitch es;
  es.install(uc.pipeline);
  const auto es_before = net::run_loop_burst(innocent, uc::burst_fn(es), opts);
  const auto es_attack = net::run_loop_burst(scan, uc::burst_fn(es), opts);

  std::printf("                         normal traffic    under port scan\n");
  std::printf("flow-caching (OVS model)   %8.2f Mpps     %8.2f Mpps  (%.0f%% lost)\n",
              mpps(ovs_before), mpps(ovs_attack),
              100.0 * (1.0 - ovs_attack.pps / ovs_before.pps));
  std::printf("compiled     (ESWITCH)     %8.2f Mpps     %8.2f Mpps  (%.0f%% lost)\n",
              mpps(es_before), mpps(es_attack),
              100.0 * (1.0 - es_attack.pps / es_before.pps));

  const auto& st = ovs_sw.cache_stats();
  std::printf("\nOVS cache levels during the scan: %llu microflow, %llu megaflow, "
              "%llu slow-path upcalls\n",
              static_cast<unsigned long long>(st.microflow_hits),
              static_cast<unsigned long long>(st.megaflow_hits),
              static_cast<unsigned long long>(st.upcalls));

  // --- Part two: the SYN flood against the stateful layer -----------------
  //
  // Round-trip the flood through the capture format (write, parse, replay) so
  // the bench runs the same bytes a `tcpreplay` of the file would.
  const auto flood_pcap = syn_flood_pcap(200000, 3);
  const auto reader = net::PcapReader::from_buffer(flood_pcap.buffer());
  const auto flood = net::traffic_from_pcap(reader, uc::kCtInsidePort, nullptr);

  uc::CtUseCase fw = uc::make_ct_firewall(/*capacity=*/8192);
  core::CompilerConfig cfg;
  cfg.ct = fw.ct;
  core::Eswitch ct_sw(cfg);
  ct_sw.install(fw.pipeline);

  const auto steady = net::TrafficSet::from_flows(fw.traffic(64, 1));
  const auto ct_before = net::run_loop_burst(steady, uc::burst_fn(ct_sw), opts);
  const auto ct_flood = net::run_loop_burst(flood, uc::burst_fn(ct_sw), opts);

  const state::Conntrack::Stats cs = ct_sw.conntrack()->stats();
  std::printf("\nstateful firewall (8K-entry conntrack, pcap-replayed flood):\n");
  std::printf("  steady state               %8.2f Mpps\n", mpps(ct_before));
  std::printf("  under SYN flood            %8.2f Mpps  (%.0f%% lost)\n",
              mpps(ct_flood), 100.0 * (1.0 - ct_flood.pps / ct_before.pps));
  std::printf("  table: %llu live, %llu commits, %llu forced evictions, "
              "%llu commit drops\n",
              static_cast<unsigned long long>(cs.live),
              static_cast<unsigned long long>(cs.commits),
              static_cast<unsigned long long>(cs.evictions_forced),
              static_cast<unsigned long long>(cs.commit_drops));

  // Degradation must be accounted, never silent: every committed connection
  // is still live, expired, or was evicted to make room.
  const bool conserved =
      cs.commits == cs.live + cs.expired + cs.evictions_forced;
  std::printf("  conservation (commits == live + expired + evicted): %s\n",
              conserved ? "holds" : "VIOLATED");
  return conserved ? 0 : 1;
}
