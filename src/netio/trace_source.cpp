#include "netio/trace_source.hpp"

#include <cstring>

#include "common/check.hpp"

namespace esw::net {

TraceSource::TraceSource(const PcapReader& reader, const Options& opts)
    : opts_(opts) {
  for (size_t i = 0; i < reader.size(); ++i) {
    const PcapPacket p = reader.packet(i);
    if (p.len != p.orig_len || p.len > Packet::kMaxFrame || p.len == 0) {
      ++skipped_;  // snaplen-truncated, oversized or empty: not a wire frame
      continue;
    }
    add_frame(p.data, p.len);
  }
}

TraceSource::TraceSource(const std::vector<std::vector<uint8_t>>& frames,
                         const Options& opts)
    : opts_(opts) {
  for (const auto& f : frames) {
    if (f.size() > Packet::kMaxFrame || f.empty()) {
      ++skipped_;
      continue;
    }
    add_frame(f.data(), static_cast<uint32_t>(f.size()));
  }
}

void TraceSource::add_frame(const uint8_t* data, uint32_t len) {
  frames_.push_back({static_cast<uint32_t>(arena_.size()), len});
  arena_.insert(arena_.end(), data, data + len);
}

uint32_t TraceSource::next_burst(Packet** bufs, uint32_t n) {
  uint32_t filled = 0;
  while (filled < n) {
    if (cursor_ >= frames_.size()) {
      if (!opts_.loop || frames_.empty()) break;
      cursor_ = 0;
    }
    const Frame& f = frames_[cursor_++];
    bufs[filled]->assign(arena_.data() + f.offset, f.len);
    bufs[filled]->set_in_port(opts_.in_port);
    ++filled;
  }
  return filled;
}

TrafficSet TraceSource::to_traffic_set() const {
  ESW_CHECK_MSG(!frames_.empty(), "trace holds no usable frames");
  std::vector<std::pair<const uint8_t*, uint32_t>> raw;
  raw.reserve(frames_.size());
  for (const Frame& f : frames_) raw.push_back({arena_.data() + f.offset, f.len});
  return TrafficSet::from_frames(raw, opts_.in_port);
}

}  // namespace esw::net
