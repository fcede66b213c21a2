// Trace-driven workload plumbing: feed capture files into every execution
// surface the repo has.
//
//   * traffic_from_pcap — a parsed capture's frames as a TrafficSet, so the
//     packet-replay harness (netio/nfpa.hpp: the timed loop, and the
//     ReplaySource that feeds a running SwitchRuntime) replays real traces
//     round-robin exactly like generated mixes;
//   * run_pcap_through_host — drives a core::SwitchRuntime inline (any type
//     with inject/poll/ports/pool) through a TrafficSet once, capturing
//     every transmitted frame.
//
// Frames longer than Packet::kMaxFrame, empty records and snaplen-truncated
// records (the captured bytes are not the wire frame) are skipped and
// counted, never silently mangled — a replayed trace must mean what the
// capture meant.
#pragma once

#include <cstdint>

#include "netio/packet.hpp"
#include "netio/pcap.hpp"
#include "netio/pktgen.hpp"

namespace esw::net {

/// The capture's wire frames as a TrafficSet, every frame stamped with
/// ingress port `in_port`.  Snaplen-truncated, oversized and empty records
/// are skipped; their count lands in `*skipped` (nullable) before the check
/// that throws CheckError when no usable frame is left.
TrafficSet traffic_from_pcap(const PcapReader& reader, uint32_t in_port,
                             uint64_t* skipped);

struct PcapRunStats {
  uint64_t injected = 0;   // frames accepted by the host's RX path
  uint64_t rejected = 0;   // frames the host refused (pool/ring/port)
  uint64_t processed = 0;  // packets the host reports processing
  uint64_t captured = 0;   // frames drained from TX rings into the capture
};

/// Replays every frame of `traffic` once, in order, through a runtime driven
/// inline: each frame is injected on its ingress port, the host is polled,
/// and every transmitted frame (all egress ports) lands in `out` (nullable:
/// run without capturing).  The switch runs entirely from/to capture files,
/// so the host must leave its TX rings to the caller (SwitchRuntime's
/// `sink_tx` off).
template <typename Host>
PcapRunStats run_pcap_through_host(Host& host, const TrafficSet& traffic,
                                   PcapWriter* out) {
  PcapRunStats st;
  net::Packet scratch;
  uint64_t ts = 0;
  auto drain_all = [&] {
    for (uint32_t no = 1; host.ports().valid(no); ++no) {
      Packet* txed[kBurstSize];
      uint32_t n;
      while ((n = host.ports().port(no).drain_tx(txed, kBurstSize)) > 0) {
        for (uint32_t i = 0; i < n; ++i) {
          if (out != nullptr) out->add(txed[i]->data(), txed[i]->len(), ts++);
          host.pool().free(txed[i]);
          ++st.captured;
        }
      }
    }
  };
  uint32_t pending = 0;
  for (size_t i = 0; i < traffic.size(); ++i) {
    // inject() copies the frame, so one scratch buffer serves the whole run.
    traffic.load(i, scratch);
    if (host.inject(scratch.in_port(), scratch.data(), scratch.len()))
      ++st.injected;
    else
      ++st.rejected;
    if (++pending == kBurstSize) {
      st.processed += host.poll();
      drain_all();
      pending = 0;
    }
  }
  st.processed += host.poll();
  drain_all();
  return st;
}

}  // namespace esw::net
