#include "netio/pktgen.hpp"

#include "common/check.hpp"

namespace esw::net {

TrafficSet TrafficSet::from_flows(const std::vector<FlowSpec>& flows) {
  ESW_CHECK_MSG(!flows.empty(), "traffic set needs at least one flow");
  TrafficSet ts;
  ts.frames_.reserve(flows.size());
  uint8_t buf[Packet::kMaxFrame];
  for (const FlowSpec& fs : flows) {
    const uint32_t len = proto::build_packet(fs.pkt, buf, sizeof buf);
    ESW_CHECK_MSG(len > 0, "packet spec failed to serialize");
    const uint32_t off = static_cast<uint32_t>(ts.arena_.size());
    ts.arena_.insert(ts.arena_.end(), buf, buf + len);
    ts.frames_.push_back({off, len, fs.in_port});
  }
  // Tail slack for the burst loader's fixed-width copy fast path.
  ts.arena_.resize(ts.arena_.size() + kCopySlack, 0);
  return ts;
}

TrafficSet TrafficSet::from_frames(const std::vector<RawFrame>& frames) {
  ESW_CHECK_MSG(!frames.empty(), "traffic set needs at least one frame");
  TrafficSet ts;
  ts.frames_.reserve(frames.size());
  for (const auto& [data, len, in_port] : frames) {
    ESW_CHECK_MSG(len > 0 && len <= Packet::kMaxFrame, "bad trace frame length");
    const uint32_t off = static_cast<uint32_t>(ts.arena_.size());
    ts.arena_.insert(ts.arena_.end(), data, data + len);
    ts.frames_.push_back({off, len, in_port});
  }
  ts.arena_.resize(ts.arena_.size() + kCopySlack, 0);
  return ts;
}

}  // namespace esw::net
