// Trace-driven workload plumbing: feed capture files into every execution
// surface the repo has.
//
//   * TraceSource — a cursor over a parsed capture that fills packet buffers
//     in bursts (the RX-DMA model) or converts to a TrafficSet so the
//     packet-replay harness (netio/nfpa.hpp: the timed loop, and the
//     ReplaySource that feeds a running SwitchRuntime) replays real traces
//     round-robin exactly like generated mixes;
//   * run_pcap_through_host — drives a core::SwitchRuntime inline (any type
//     with inject/poll/ports/pool) from an input trace, capturing every
//     transmitted frame.
//
// Frames longer than Packet::kMaxFrame and snaplen-truncated records (the
// captured bytes are not the wire frame) are skipped and counted, never
// silently mangled — a replayed trace must mean what the capture meant.
#pragma once

#include <cstdint>
#include <vector>

#include "netio/packet.hpp"
#include "netio/pcap.hpp"
#include "netio/pktgen.hpp"

namespace esw::net {

class TraceSource {
 public:
  struct Options {
    uint32_t in_port = 1;  // ingress port stamped on every frame
    bool loop = false;     // rewind at end-of-trace instead of draining dry
  };

  /// Borrows nothing: usable frames are copied out of `reader` up front
  /// (skipping oversized and snaplen-truncated records).
  explicit TraceSource(const PcapReader& reader) : TraceSource(reader, Options{}) {}
  TraceSource(const PcapReader& reader, const Options& opts);

  /// A trace from raw frames (tests, generated workloads).
  explicit TraceSource(const std::vector<std::vector<uint8_t>>& frames)
      : TraceSource(frames, Options{}) {}
  TraceSource(const std::vector<std::vector<uint8_t>>& frames, const Options& opts);

  size_t size() const { return frames_.size(); }
  uint64_t skipped() const { return skipped_; }
  bool exhausted() const { return !opts_.loop && cursor_ >= frames_.size(); }
  void rewind() { cursor_ = 0; }

  /// Fills up to `n` caller-provided buffers with the next frames; returns
  /// how many were filled (0 at end-of-trace unless looping).
  uint32_t next_burst(Packet** bufs, uint32_t n);

  /// The whole trace as a TrafficSet for the measurement loops.  Throws
  /// CheckError when the trace holds no usable frames.
  TrafficSet to_traffic_set() const;

 private:
  struct Frame {
    uint32_t offset;
    uint32_t len;
  };

  void add_frame(const uint8_t* data, uint32_t len);

  Options opts_;
  std::vector<uint8_t> arena_;
  std::vector<Frame> frames_;
  size_t cursor_ = 0;
  uint64_t skipped_ = 0;
};

struct PcapRunStats {
  uint64_t injected = 0;   // frames accepted by the host's RX path
  uint64_t rejected = 0;   // frames the host refused (pool/ring/port)
  uint64_t processed = 0;  // packets the host reports processing
  uint64_t captured = 0;   // frames drained from TX rings into the capture
};

/// Replays `src` through a runtime driven inline: every frame is injected on
/// the source's ingress port, the host is polled, and every transmitted frame
/// (all egress ports) lands in `out` (nullable: run without capturing).  The
/// switch runs entirely from/to capture files, so the host must leave its TX
/// rings to the caller (SwitchRuntime's `sink_tx` off).  `src` must not be in
/// looping mode (the run ends when the trace drains).
template <typename Host>
PcapRunStats run_pcap_through_host(Host& host, TraceSource& src,
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
  while (!src.exhausted()) {
    // inject() copies the frame, so one scratch buffer serves the whole run.
    Packet* one = &scratch;
    if (src.next_burst(&one, 1) == 0) break;
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
