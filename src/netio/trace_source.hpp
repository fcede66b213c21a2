// Trace-driven workload plumbing: a capture file's frames as a TrafficSet,
// so the packet-replay harness (netio/nfpa.hpp: the timed loop, and the
// ReplaySource that feeds a running SwitchRuntime) replays real traces
// round-robin exactly like generated mixes.
//
// Frames longer than Packet::kMaxFrame, empty records and snaplen-truncated
// records (the captured bytes are not the wire frame) are skipped and
// counted, never silently mangled — a replayed trace must mean what the
// capture meant.  (The differential oracle's repro loader refuses such
// records instead: an artifact must replay exactly what was written.)
#pragma once

#include <cstdint>

#include "netio/pcap.hpp"
#include "netio/pktgen.hpp"

namespace esw::net {

/// The capture's wire frames as a TrafficSet, every frame stamped with
/// ingress port `in_port`.  Snaplen-truncated, oversized and empty records
/// are skipped; their count lands in `*skipped` (nullable) before the check
/// that throws CheckError when no usable frame is left.
TrafficSet traffic_from_pcap(const PcapReader& reader, uint32_t in_port,
                             uint64_t* skipped);

}  // namespace esw::net
