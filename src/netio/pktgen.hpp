// Traffic generation.
//
// A TrafficSet is a pre-built sequence of frames (stored in a compact arena so
// a million-flow mix fits in memory) that the measurement loop replays
// round-robin — the worst case for flow caches, matching how the paper sweeps
// "number of active flows".  Generation happens off the measurement path, as
// with DPDK pktgen.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "netio/packet.hpp"
#include "proto/build.hpp"

namespace esw::net {

/// One flow of the traffic mix: a frame spec plus the ingress port.
struct FlowSpec {
  proto::PacketSpec pkt;
  uint32_t in_port = 0;
};

class TrafficSet {
 public:
  /// Fixed copy width of the burst loader's fast path; the arena is padded by
  /// this much so the copy may over-read.
  static constexpr uint32_t kCopySlack = 128;

  /// Builds one frame per flow.  Throws if a spec does not serialize.
  static TrafficSet from_flows(const std::vector<FlowSpec>& flows);

  /// Builds from pre-serialized frames (trace replay: the bytes ARE the
  /// workload).  Every frame gets the same ingress port.  Throws on empty
  /// input or frames over Packet::kMaxFrame.
  static TrafficSet from_frames(
      const std::vector<std::pair<const uint8_t*, uint32_t>>& frames,
      uint32_t in_port);

  size_t size() const { return frames_.size(); }

  /// Copies frame `i % size()` into `out` (models RX DMA into an mbuf).
  void load(size_t i, Packet& out) const {
    const Frame& f = frames_[i % frames_.size()];
    out.assign(arena_.data() + f.offset, f.len);
    out.set_in_port(f.in_port);
  }

  /// Division-free round-robin loader for the burst RX path: copies frame
  /// `cursor` and advances it, wrapping by comparison.  `cursor` must be
  /// < size() (start from 0).  Minimum-size frames take a fixed-width copy
  /// that inlines to straight vector moves (the arena keeps kCopySlack bytes
  /// of tail slack so the over-read never leaves the allocation; bytes past
  /// len are dead — Packet semantics are governed by len alone).
  void load_next(size_t& cursor, Packet& out) const {
    const Frame& f = frames_[cursor];
    if (++cursor == frames_.size()) cursor = 0;
    if (ESW_LIKELY(f.len <= kCopySlack)) {
      std::memcpy(out.data(), arena_.data() + f.offset, kCopySlack);
      out.set_len(f.len);
    } else {
      out.assign(arena_.data() + f.offset, f.len);
    }
    out.set_in_port(f.in_port);
  }

 private:
  struct Frame {
    uint32_t offset;
    uint32_t len;
    uint32_t in_port;
  };
  std::vector<uint8_t> arena_;
  std::vector<Frame> frames_;
};

}  // namespace esw::net
