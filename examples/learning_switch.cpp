// The reactive OpenFlow classic: a MAC-learning switch where the *controller*
// holds the logic and the switch starts empty.
//
//   packet misses -> PACKET_IN to the controller over the OF 1.3 session
//   controller learns the source MAC, replies FLOW_MOD (+ PACKET_OUT so the
//   triggering frame isn't lost)
//   subsequent packets forward on the compiled fast path, controller silent
//
// Everything runs through the real machinery: `core::SwitchRuntime`, driven
// inline from this thread, executes verdicts against ports, `uc::OfAgent`
// speaks the wire protocol over an AF_UNIX socketpair, and the flow-mods land
// in ESWITCH's compiled datapath.  The run checks its own story: the
// fast-path phase sends no PACKET_IN and OFPMP_FLOW returns the learned
// flows (a violation exits nonzero).
//
//   $ ./learning_switch
#include <cstdio>
#include <map>

#include "core/eswitch.hpp"
#include "core/switch_runtime.hpp"
#include "flow/dsl.hpp"
#include "proto/build.hpp"
#include "usecases/of_agent.hpp"

using namespace esw;

namespace {

using Host = core::SwitchRuntime<core::Eswitch>;

uint64_t mac_of(uint32_t host_no) { return 0x0200'0000'0000ULL | host_no; }

/// The controller application: learn source MACs, install eth_dst flows.
class LearningApp {
 public:
  explicit LearningApp(uc::OfController& ctrl) : ctrl_(ctrl) {}

  void handle(const flow::PacketIn& pin) {
    ESW_CHECK(pin.frame.size() >= 12);
    uint64_t dst = 0, src = 0;
    for (int i = 0; i < 6; ++i) dst = (dst << 8) | pin.frame[i];
    for (int i = 0; i < 6; ++i) src = (src << 8) | pin.frame[6 + i];

    mac_to_port_[src] = pin.in_port;  // learn

    flow::PacketOut po;
    po.in_port = pin.in_port;
    po.frame = pin.frame;
    const auto it = mac_to_port_.find(dst);
    if (it != mac_to_port_.end()) {
      // Known destination: install the forwarding flow, then release the
      // buffered frame along the same path.
      flow::FlowMod fm;
      fm.table_id = 0;
      fm.priority = 10;
      fm.flags = flow::FlowMod::kFlagSendFlowRem;
      fm.match.set(flow::FieldId::kEthDst, dst);
      fm.actions = {flow::Action::output(it->second)};
      ctrl_.send_flow_mod(fm);
      ++flows_installed_;
      po.actions = {flow::Action::output(it->second)};
    } else {
      po.actions = {flow::Action::flood()};
    }
    ctrl_.send_packet_out(po);
  }

  uint64_t flows_installed() const { return flows_installed_; }

 private:
  uc::OfController& ctrl_;
  std::map<uint64_t, uint32_t> mac_to_port_;
  uint64_t flows_installed_ = 0;
};

}  // namespace

int main() {
  // The switch starts with one empty table whose miss policy punts to the
  // controller — the fully reactive configuration.  No worker threads: this
  // thread polls the runtime and drains its TX rings.
  Host::Config cfg;
  cfg.n_ports = 4;
  cfg.pool_capacity = 512;
  cfg.sink_tx = false;
  Host host(cfg);
  flow::Pipeline pl;
  pl.table(0).set_miss_policy(flow::FlowTable::MissPolicy::kController);
  host.backend().install(pl);

  // Wire the session: datapath misses become PACKET_INs, controller
  // PACKET_OUTs execute against the ports.
  uc::OfAgent::Callbacks cbs = uc::make_dataplane_callbacks(host.backend());
  cbs.on_packet_out = [&host](const flow::PacketOut& po) {
    host.packet_out(po.frame.data(), static_cast<uint32_t>(po.frame.size()),
                    po.in_port, po.actions);
  };
  uc::OfAgent agent(std::move(cbs));

  uc::OfController ctrl(agent.controller_fd());
  uc::run_handshake(agent, ctrl);
  LearningApp app(ctrl);
  std::printf("session open: datapath id 0x%llx\n",
              static_cast<unsigned long long>(agent.datapath_id()));

  // One "tick": deliver a frame, run the switch, pump the control loop.
  auto send = [&](uint32_t from_port, uint32_t src_host, uint32_t dst_host) {
    proto::PacketSpec s;
    s.kind = proto::PacketKind::kUdp;
    s.eth_src = mac_of(src_host);
    s.eth_dst = mac_of(dst_host);
    uint8_t frame[256];
    const uint32_t len = proto::build_packet(s, frame, sizeof frame);
    host.inject(from_port, frame, len);
    const auto pins_before = agent.stats().packet_ins_sent;
    host.poll();                       // datapath: forward or punt
    for (const core::RuntimePacketIn& pin : host.drain_packet_ins())
      agent.send_packet_in(pin.frame.data(), pin.frame.size(), pin.in_port);
    ctrl.poll();                       // controller: react to PACKET_IN
    for (const flow::PacketIn& pin : ctrl.take_packet_ins()) app.handle(pin);
    agent.poll();                      // switch: apply FLOW_MOD / PACKET_OUT
    const bool punted = agent.stats().packet_ins_sent > pins_before;

    std::printf("  host%u->host%u (port %u): %s,", src_host, dst_host, from_port,
                punted ? "packet-in" : "fast path");
    host.ports().for_each_except(0, [&](uint32_t no, net::Port&) {
      const uint32_t n = host.drain_and_release_tx(no);
      if (n > 0) std::printf(" tx:%u(x%u)", no, n);
    });
    std::printf("\n");
  };

  std::printf("\nreactive phase (controller in the loop):\n");
  send(1, 1, 2);  // unknown dst: flood, learn host1@1
  send(2, 2, 1);  // dst known: FLOW_MOD eth_dst=host1 -> 1, learn host2@2
  send(1, 1, 2);  // dst known: FLOW_MOD eth_dst=host2 -> 2

  std::printf("\nfast-path phase (controller silent):\n");
  const uint64_t pins_reactive = agent.stats().packet_ins_sent;
  send(2, 2, 1);  // compiled flows serve all of these — no PACKET_IN
  send(3, 3, 1);
  send(1, 1, 2);
  send(3, 3, 2);
  ESW_CHECK_MSG(agent.stats().packet_ins_sent == pins_reactive,
                "the fast-path phase sent a PACKET_IN");

  // Read the controller-installed flow table back over OFPMP_FLOW.
  ctrl.send_flow_stats_request();
  agent.poll();
  ctrl.poll();
  std::printf("\nflow table (via OFPMP_FLOW):\n");
  uint64_t learned = 0;
  for (const auto& reply : ctrl.take_flow_stats())
    for (const auto& e : reply.entries) {
      std::printf("  table %u  %s\n", e.table_id,
                  flow::format_rule({e.match, e.priority, e.actions, e.goto_table,
                                     e.cookie})
                      .c_str());
      if (e.table_id == 0 && e.priority == 10 && e.match.has(flow::FieldId::kEthDst))
        ++learned;
    }
  ESW_CHECK_MSG(learned == 2 && learned == app.flows_installed(),
                "OFPMP_FLOW does not return the learned flows");

  // Delete one learned flow; the OFPFF_SEND_FLOW_REM flag we set on install
  // brings back a FLOW_REMOVED carrying the flow's final counters.
  flow::FlowMod del;
  del.command = flow::FlowMod::Cmd::kDelete;
  del.table_id = 0;
  del.priority = 10;
  del.flags = flow::FlowMod::kFlagSendFlowRem;
  del.match.set(flow::FieldId::kEthDst, mac_of(1));
  ctrl.send_flow_mod(del);
  ctrl.send_barrier();
  agent.poll();
  ctrl.poll();
  for (const auto& fr : ctrl.take_flow_removed())
    std::printf("\nFLOW_REMOVED: %s (priority %u)\n", fr.match.to_string().c_str(),
                fr.priority);

  std::printf("\nsession: %llu msgs rx / %llu tx, %llu flow-mods, %llu packet-ins, "
              "%llu flow-removed; %llu flows installed by the app\n",
              static_cast<unsigned long long>(agent.stats().messages_rx),
              static_cast<unsigned long long>(agent.stats().messages_tx),
              static_cast<unsigned long long>(agent.stats().flow_mods),
              static_cast<unsigned long long>(agent.stats().packet_ins_sent),
              static_cast<unsigned long long>(agent.stats().flow_removed_sent),
              static_cast<unsigned long long>(app.flows_installed()));
  return 0;
}
