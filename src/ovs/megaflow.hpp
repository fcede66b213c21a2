// Megaflow cache — OVS's wildcard match store for traffic aggregates (§2.2).
//
// Entries are (wildcarded match → cached action list) pairs indexed by tuple
// space search without priorities: every megaflow takes one constant
// priority, so the tuple space's insertion sequence orders them.  A flow
// limit caps resident entries (evicting oldest first, mirroring OVS's flow
// limit + revalidator pressure); whole-cache invalidation is the paper's
// footnote-2 "brute-force strategy to invalidate the entire cache after
// essentially all changes".
//
// The cache is sharded by the packet's protocol bitmask: a real OVS flow key
// always carries the packet's layer structure (ethertype, VLAN TCI presence,
// L4 kind), so a megaflow learned from an untagged frame can never swallow a
// VLAN-tagged one even when the wildcarded fields happen to agree — the
// divergence the differential oracle caught when presence was not part of
// the key.  A Match can only require fields to be present, not absent, so
// presence must travel beside it.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "cls/tuple_space.hpp"
#include "flow/actions.hpp"

namespace esw::ovs {

class MegaflowCache {
 public:
  explicit MegaflowCache(size_t flow_limit = 200000) : flow_limit_(flow_limit) {}

  struct Entry {
    flow::Match match;
    flow::ActionList actions;  // concatenated write-actions of the slow-path walk
    uint64_t stamp = 0;        // uniquifies reused slots for microflow pointers
    uint32_t proto_mask = 0;   // layer structure of the learning packet
    bool live = false;
  };

  /// Index + stamp of the matching entry, or {-1, 0}.
  struct Ref {
    int64_t idx = -1;
    uint64_t stamp = 0;
  };
  Ref lookup(const uint8_t* pkt, const proto::ParseInfo& pi,
             MemTrace* trace = nullptr) const;

  /// Validates a microflow pointer.
  const Entry* get(int64_t idx, uint64_t stamp) const {
    if (idx < 0 || static_cast<size_t>(idx) >= entries_.size()) return nullptr;
    const Entry& e = entries_[static_cast<size_t>(idx)];
    return e.live && e.stamp == stamp ? &e : nullptr;
  }

  /// Inserts a megaflow learned from a packet with layer structure
  /// `proto_mask` (evicting the oldest entry at the flow limit); returns its
  /// reference.
  Ref insert(const flow::Match& match, flow::ActionList actions,
             uint32_t proto_mask);

  void invalidate_all();

  size_t size() const { return live_count_; }
  size_t num_masks() const {
    size_t n = 0;
    for (const auto& [mask, ts] : index_) n += ts.num_tuples();
    return n;
  }
  uint64_t evictions() const { return evictions_; }
  size_t memory_bytes() const {
    size_t idx = 0;
    for (const auto& [mask, ts] : index_) idx += ts.size() * 96;
    return entries_.size() * 128 + idx;
  }

 private:
  // One tuple space per packet layer structure (value = entry index).
  static constexpr uint16_t kPriority = 0;
  std::map<uint32_t, cls::TupleSpace<uint64_t>> index_;
  size_t flow_limit_;
  std::deque<Entry> entries_;
  std::vector<size_t> free_;
  std::deque<size_t> fifo_;  // insertion order for eviction
  size_t live_count_ = 0;
  uint64_t next_stamp_ = 1;
  uint64_t evictions_ = 0;
};

}  // namespace esw::ovs
