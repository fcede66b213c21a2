// Control-plane flow table: the authoritative, priority-ordered rule list of
// one OpenFlow pipeline stage.  The compiler consumes this representation;
// the reference interpreter and the OVS-model slow path classify on it
// directly (a "direct datapath" in the paper's taxonomy, §2.1).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "flow/actions.hpp"
#include "flow/match.hpp"

namespace esw::flow {

/// No-goto sentinel for FlowEntry::goto_table.
inline constexpr int16_t kNoGoto = -1;

struct FlowEntry {
  Match match;
  uint16_t priority = 0;
  ActionList actions;        // write-actions
  int16_t goto_table = kNoGoto;
  uint64_t cookie = 0;

  // Per-entry statistics, updated by whichever datapath serves the entry.
  // Single-writer per datapath instance; plain counters by design.
  mutable uint64_t n_packets = 0;
  mutable uint64_t n_bytes = 0;
};

class FlowTable {
 public:
  enum class MissPolicy : uint8_t { kDrop, kController };

  explicit FlowTable(uint8_t id = 0) : id_(id) {}

  uint8_t id() const { return id_; }

  /// Inserts keeping priority-descending order (stable for equal priorities:
  /// new entries go after existing ones).  An entry with identical
  /// (match, priority) replaces the old one, per OpenFlow flow-mod semantics.
  void add(FlowEntry entry);

  /// Removes the entry with this exact (match, priority); true if found.
  bool remove(const Match& match, uint16_t priority);

  /// Bulk load: replaces all entries at once (stable-sorted by priority
  /// descending).  O(n log n), unlike repeated add(); duplicates are the
  /// caller's responsibility.
  void replace_all(std::vector<FlowEntry> entries);

  /// Strict-priority lookup; nullptr on table miss.
  const FlowEntry* lookup(const uint8_t* pkt, const proto::ParseInfo& pi) const;

  const std::vector<FlowEntry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear();

  MissPolicy miss_policy() const { return miss_policy_; }
  void set_miss_policy(MissPolicy p) { miss_policy_ = p; }

 private:
  /// Re-points the index node that held `old_pos` at the entry's new `pos`.
  void index_repoint(uint32_t pos, uint32_t old_pos);
  void rebuild_index();

  uint8_t id_;
  MissPolicy miss_policy_ = MissPolicy::kDrop;
  std::vector<FlowEntry> entries_;
  // (match, priority) identity → position in entries_.  A flow-mod must find
  // its exact entry; without the index that was a match-equality scan of the
  // whole equal-priority band, which at million-flow scale (one L2 table, one
  // priority) made every churn mod O(table).  Positions right of an
  // insert/erase point shift by one and are fixed up in O(tail) — the same
  // cost class as the vector's own element moves, so mutation asymptotics
  // are unchanged while the band scan is gone.
  std::unordered_multimap<uint64_t, uint32_t> index_;
};

}  // namespace esw::flow
