// Quickstart: program an ESWITCH, mount it in the port-based switch runtime
// (`core::SwitchRuntime`, driven inline from this thread) and watch packets
// flow rx → process → tx the way the switch runs in production — verdicts
// are *executed*: output goes to a TX port, flood fans out to every port
// except ingress, controller punts buffer up as packet-ins.
//
//   $ ./quickstart
#include <cstdio>
#include <iterator>

#include "core/eswitch.hpp"
#include "core/switch_runtime.hpp"
#include "flow/dsl.hpp"
#include "proto/build.hpp"

using namespace esw;

namespace {

using Host = core::SwitchRuntime<core::Eswitch>;

/// Injects one frame, runs a scheduling round and reports where it went by
/// draining the TX rings.
void probe(Host& host, const char* what, const proto::PacketSpec& spec,
           uint32_t in_port) {
  uint8_t frame[256];
  const uint32_t len = proto::build_packet(spec, frame, sizeof frame);
  host.inject(in_port, frame, len);
  host.poll();

  std::printf("%-36s ->", what);
  bool anywhere = false;
  host.ports().for_each_except(0, [&](uint32_t no, net::Port&) {
    const uint32_t n = host.drain_and_release_tx(no);
    for (uint32_t i = 0; i < n; ++i) {
      std::printf(" tx:%u", no);
      anywhere = true;
    }
  });
  if (!host.drain_packet_ins().empty()) {
    std::printf(" packet-in (to controller)");
    anywhere = true;
  }
  if (!anywhere) std::printf(" dropped");
  std::printf("\n");
}

}  // namespace

int main() {
  // 1. Declare the pipeline in the ovs-ofctl-like rule syntax.  Note the
  //    flood rule: broadcasts must reach every port except ingress.
  flow::Pipeline pl;
  pl.table(0).add(flow::parse_rule("priority=100, in_port=1, actions=,goto:1"));
  pl.table(0).add(flow::parse_rule("priority=50, actions=drop"));
  pl.table(1).add(flow::parse_rule(
      "priority=20, ip_dst=192.0.2.0/24, tcp_dst=80, actions=dec_ttl, output:2"));
  pl.table(1).add(flow::parse_rule("priority=10, ip_dst=192.0.2.0/24, actions=output:3"));
  pl.table(1).add(
      flow::parse_rule("priority=5, eth_dst=ff:ff:ff:ff:ff:ff, actions=flood"));
  pl.table(1).add(flow::parse_rule("priority=1, actions=controller"));

  // 2. Mount the switch in the runtime: four ports, an mbuf pool, and the
  //    compiling backend.  ESWITCH picks a template per table and emits
  //    machine code for the small ones.  No worker threads: this thread
  //    drives the runtime with poll() and drains the TX rings itself.
  Host::Config cfg;
  cfg.n_ports = 4;
  cfg.pool_capacity = 512;
  cfg.sink_tx = false;
  Host host(cfg);
  host.backend().install(pl);
  for (const auto& t : host.backend().pipeline().tables())
    std::printf("table %u: %zu rules -> %s template%s\n", t.id(), t.size(),
                core::to_string(host.backend().table_template(t.id())),
                host.backend().is_decomposed(t.id()) ? " (decomposed)" : "");

  // 3. Send packets.  The runtime executes the verdicts; we just look at
  //    which TX rings end up holding the frame.
  proto::PacketSpec http;
  http.kind = proto::PacketKind::kTcp;
  http.ip_dst = flow::parse_ipv4("192.0.2.7");
  http.dport = 80;
  proto::PacketSpec other_tcp = http;
  other_tcp.dport = 22;
  proto::PacketSpec elsewhere = http;
  elsewhere.ip_dst = flow::parse_ipv4("10.1.1.1");
  proto::PacketSpec broadcast;
  broadcast.kind = proto::PacketKind::kUdp;
  broadcast.eth_dst = 0xFFFFFFFFFFFF;
  broadcast.ip_dst = flow::parse_ipv4("10.255.255.255");

  probe(host, "HTTP to 192.0.2.7 from port 1", http, 1);
  probe(host, "SSH to 192.0.2.7 from port 1", other_tcp, 1);
  probe(host, "HTTP to 10.1.1.1 from port 1", elsewhere, 1);
  probe(host, "HTTP to 192.0.2.7 from port 4", http, 4);
  probe(host, "broadcast from port 1", broadcast, 1);

  // 4. Update at runtime: flow-mods apply incrementally where the template
  //    allows, otherwise the table is rebuilt and swapped atomically.
  flow::FlowMod fm;
  fm.table_id = 1;
  fm.priority = 30;
  fm.match.set(flow::FieldId::kTcpDst, 22);
  fm.actions = {flow::Action::drop()};
  host.backend().apply(fm);
  probe(host, "SSH after adding a drop rule", other_tcp, 1);

  // 5. Both the runtime and the backend keep counters; the backend's are the
  //    unified Dataplane shape every backend reports.
  const core::DataplaneStats st = host.backend().stats();
  const Host::Counters hc = host.counters();
  const net::PortCounters pc = host.ports().totals();
  std::printf("\ndatapath: %llu packets, %llu forwarded, %llu dropped, %llu punted\n",
              static_cast<unsigned long long>(st.packets),
              static_cast<unsigned long long>(st.outputs),
              static_cast<unsigned long long>(st.drops),
              static_cast<unsigned long long>(st.to_controller));
  std::printf("runtime:  %llu rx, %llu tx (%llu flood copies), %llu packet-ins\n",
              static_cast<unsigned long long>(pc.rx_packets),
              static_cast<unsigned long long>(hc.tx_packets),
              static_cast<unsigned long long>(hc.flood_copies),
              static_cast<unsigned long long>(hc.packet_ins));
  return 0;
}
