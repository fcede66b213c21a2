#include "flow/table.hpp"

#include <algorithm>

namespace esw::flow {

namespace {
// entries_ is priority-descending; binary-search locates the equal-priority
// band's end for new inserts.  Entry identity lookups go through index_.
struct PrioDesc {
  bool operator()(const FlowEntry& e, uint16_t p) const { return e.priority > p; }
  bool operator()(uint16_t p, const FlowEntry& e) const { return p > e.priority; }
};

/// Index key for one entry's (match, priority) identity.  Hash collisions are
/// fine — index hits verify both before trusting a position.
uint64_t identity_key(const Match& m, uint16_t priority) {
  return m.hash() ^ (0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(priority) + 1));
}
}  // namespace

void FlowTable::index_repoint(uint32_t pos, uint32_t old_pos) {
  const FlowEntry& e = entries_[pos];
  const auto [lo, hi] = index_.equal_range(identity_key(e.match, e.priority));
  for (auto it = lo; it != hi; ++it) {
    if (it->second == old_pos) {
      it->second = pos;
      return;
    }
  }
}

void FlowTable::rebuild_index() {
  index_.clear();
  index_.reserve(entries_.size());
  for (uint32_t i = 0; i < entries_.size(); ++i)
    index_.emplace(identity_key(entries_[i].match, entries_[i].priority), i);
}

void FlowTable::add(FlowEntry entry) {
  const auto [lo, hi] = index_.equal_range(identity_key(entry.match, entry.priority));
  for (auto it = lo; it != hi; ++it) {
    FlowEntry& old = entries_[it->second];
    if (old.priority == entry.priority && old.match == entry.match) {
      // Flow-mod replace: actions/goto swap, counters preserved (OF 1.3 §6.4).
      entry.n_packets = old.n_packets;
      entry.n_bytes = old.n_bytes;
      old = std::move(entry);
      return;
    }
  }
  const auto band_end =
      std::upper_bound(entries_.begin(), entries_.end(), entry.priority, PrioDesc{});
  const auto pos = static_cast<uint32_t>(band_end - entries_.begin());
  entries_.insert(band_end, std::move(entry));
  for (uint32_t i = pos + 1; i < entries_.size(); ++i) index_repoint(i, i - 1);
  index_.emplace(identity_key(entries_[pos].match, entries_[pos].priority), pos);
}

bool FlowTable::remove(const Match& match, uint16_t priority) {
  const auto [lo, hi] = index_.equal_range(identity_key(match, priority));
  for (auto it = lo; it != hi; ++it) {
    const uint32_t pos = it->second;
    if (entries_[pos].priority == priority && entries_[pos].match == match) {
      index_.erase(it);
      entries_.erase(entries_.begin() + pos);
      for (uint32_t i = pos; i < entries_.size(); ++i) index_repoint(i, i + 1);
      return true;
    }
  }
  return false;
}

const FlowEntry* FlowTable::lookup(const uint8_t* pkt, const proto::ParseInfo& pi) const {
  for (const FlowEntry& e : entries_)
    if (e.match.matches_packet(pkt, pi)) return &e;
  return nullptr;
}

void FlowTable::replace_all(std::vector<FlowEntry> entries) {
  std::stable_sort(entries.begin(), entries.end(),
                   [](const FlowEntry& a, const FlowEntry& b) {
                     return a.priority > b.priority;
                   });
  entries_ = std::move(entries);
  rebuild_index();
}

void FlowTable::clear() {
  entries_.clear();
  index_.clear();
}

}  // namespace esw::flow
