#include "ovs/megaflow.hpp"

namespace esw::ovs {

MegaflowCache::Ref MegaflowCache::lookup(const uint8_t* pkt,
                                         const proto::ParseInfo& pi,
                                         MemTrace* trace) const {
  // Only megaflows learned from packets with this exact layer structure are
  // candidates; everything else upcalls (and installs its own shard entry).
  const auto shard = index_.find(pi.proto_mask);
  if (shard == index_.end()) return {};
  const auto* e = shard->second.lookup(pkt, pi, nullptr, trace);
  if (e == nullptr) return {};
  const size_t idx = static_cast<size_t>(e->value);
  return {static_cast<int64_t>(idx), entries_[idx].stamp};
}

MegaflowCache::Ref MegaflowCache::insert(const flow::Match& match,
                                         flow::ActionList actions,
                                         uint32_t proto_mask) {
  if (live_count_ >= flow_limit_ && !fifo_.empty()) {
    // Flow limit reached: evict the oldest megaflow.
    const size_t victim = fifo_.front();
    fifo_.pop_front();
    Entry& v = entries_[victim];
    if (v.live) {
      index_[v.proto_mask].remove(v.match, kPriority);
      v.live = false;
      --live_count_;
      ++evictions_;
      free_.push_back(victim);
    }
  }

  size_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
  } else {
    idx = entries_.size();
    entries_.emplace_back();
  }
  Entry& e = entries_[idx];
  e.match = match;
  e.actions = std::move(actions);
  e.stamp = next_stamp_++;
  e.proto_mask = proto_mask;
  e.live = true;
  index_[proto_mask].add(match, kPriority, static_cast<uint64_t>(idx));
  fifo_.push_back(idx);
  ++live_count_;
  return {static_cast<int64_t>(idx), e.stamp};
}

void MegaflowCache::invalidate_all() {
  index_.clear();
  entries_.clear();
  free_.clear();
  fifo_.clear();
  live_count_ = 0;
}

}  // namespace esw::ovs
