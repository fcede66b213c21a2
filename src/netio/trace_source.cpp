#include "netio/trace_source.hpp"

#include <vector>

#include "common/check.hpp"

namespace esw::net {

TrafficSet traffic_from_pcap(const PcapReader& reader, uint32_t in_port,
                             uint64_t* skipped) {
  std::vector<TrafficSet::RawFrame> frames;
  frames.reserve(reader.size());
  for (size_t i = 0; i < reader.size(); ++i) {
    const PcapPacket p = reader.packet(i);
    // Snaplen-truncated, oversized or empty: not a wire frame.
    if (p.len != p.orig_len || p.len > Packet::kMaxFrame || p.len == 0) continue;
    frames.push_back({p.data, p.len, in_port});
  }
  if (skipped != nullptr) *skipped = reader.size() - frames.size();
  ESW_CHECK_MSG(!frames.empty(), "trace holds no usable frames");
  return TrafficSet::from_frames(frames);
}

}  // namespace esw::net
