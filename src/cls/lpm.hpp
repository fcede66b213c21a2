// Longest-prefix-match table for IPv4 — a reimplementation of DPDK's
// rte_lpm DIR-24-8 layout, which the paper's LPM template wraps (§3.1,
// "Our prototype uses the Intel DPDK built-in rte_lpm library").
//
// tbl24 resolves the top 24 bits in one access; prefixes longer than /24
// extend into per-/24 tbl8 groups, giving at most two memory accesses per
// lookup (the 13 + 2·Lx cycles atom of the paper's Fig. 20 model).
// Like rte_lpm's hugepage-backed tables, tbl24 (64 MB) sits on 2 MB pages
// (common/huge_array.hpp), so a random /24 probe costs one cache miss and
// rarely a page walk; tbl8 joins it once its group budget reaches 2 MB.
// Incremental add/delete follow the rte_lpm algorithm: a deleted rule's range
// is re-covered by its longest covering ancestor.
//
// Concurrency: like rte_lpm under RCU, the table supports one writer
// mutating *in place* while readers look up concurrently.  Every table cell
// is a single self-contained 32-bit word (valid/ext/depth/value packed
// together), stored releases / loaded acquires, so a reader always sees a
// well-formed entry — during a multi-cell range write it may see a mix of
// pre- and post-update cells, i.e. either the old or the new route per
// address, never garbage.  (add_unpublished(), for a builder that no reader
// can reach yet, stores its tbl24 route cells relaxed.)  tbl8 storage is
// preallocated to its group budget at construction so no reader-visible
// array ever reallocates.  Freed tbl8 groups are recycled without a grace
// period; the lookup therefore brackets its two-level read with a generation
// counter that every group (re)allocation bumps (seqlock-style) and retries
// when ownership changed underneath it —
// a value-compare of the tbl24 cell alone would be ABA-unsafe, since the
// LIFO freelist readily hands the same group back to the same /24.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/bits.hpp"
#include "common/huge_array.hpp"
#include "common/memtrace.hpp"

namespace esw::cls {

class LpmTable {
 public:
  static constexpr uint32_t kMaxValue = (1u << 24) - 1;

  explicit LpmTable(uint32_t max_tbl8_groups = 256);

  /// Adds/overwrites a route; `len` in [0, 32], `prefix` in host order.
  /// A /0 entry acts as the default route.  Throws when tbl8 groups run out.
  void add(uint32_t prefix, uint8_t len, uint32_t value);

  /// add() for a table no reader can reach yet: the route's range of tbl24
  /// cells is stored relaxed, and the release that later publishes the
  /// table orders them.  Same table contents as add().
  void add_unpublished(uint32_t prefix, uint8_t len, uint32_t value);

  /// Removes a route; true if it existed.  The freed range falls back to the
  /// longest covering ancestor (or to a miss).
  bool remove(uint32_t prefix, uint8_t len);

  /// Longest-prefix lookup; nullopt on miss.  Safe concurrently with one
  /// writer in add()/remove() (see the header comment for the guarantee).
  std::optional<uint32_t> lookup(uint32_t addr, MemTrace* trace = nullptr) const;

  /// Starts the tbl24 line for `addr` toward the core ahead of lookup()
  /// (burst-mode software pipelining).  The tbl8 extension, if any, still
  /// costs a demand miss; >24-bit prefixes are the rare case.
  void prefetch(uint32_t addr) const { esw_prefetch(&tbl24_[addr >> 8]); }

  size_t num_rules() const { return rules_.size(); }
  uint32_t tbl8_groups_used() const {
    return tbl8_used_.load(std::memory_order_relaxed);
  }

  /// Approximate resident bytes of the lookup structure (for working-set and
  /// cache-model accounting).  Counts the tbl8 high-water mark, matching the
  /// previous grow-on-demand accounting.  Readers call this concurrently with
  /// the writer's group allocation (the burst walker's prefetch gate), hence
  /// the relaxed atomic.
  size_t memory_bytes() const {
    return size_t{1 << 24} * 4 + size_t{tbl8_groups_used()} * 256 * 4;
  }

 private:
  // Entry encoding (host integer): bit31 valid, bit30 ext (tbl24 only),
  // bits 29..24 depth, bits 23..0 value or tbl8 group index.
  static constexpr uint32_t kValid = 1u << 31;
  static constexpr uint32_t kExt = 1u << 30;
  static uint32_t make(uint32_t value, uint8_t depth, bool ext) {
    return kValid | (ext ? kExt : 0) | (uint32_t{depth} << 24) | (value & kMaxValue);
  }
  static bool valid(uint32_t e) { return (e & kValid) != 0; }
  static bool ext(uint32_t e) { return (e & kExt) != 0; }
  static uint8_t depth(uint32_t e) { return static_cast<uint8_t>((e >> 24) & 0x3F); }
  static uint32_t value(uint32_t e) { return e & kMaxValue; }

  uint32_t alloc_tbl8(uint32_t fill_entry);
  template <std::memory_order kOrder>
  void add_route(uint32_t prefix, uint8_t len, uint32_t value);
  template <std::memory_order kOrder>
  void write_range24(uint32_t first, uint32_t last, uint32_t entry, uint8_t at_depth);
  void write_tbl8_range(uint32_t group, uint32_t first, uint32_t last, uint32_t entry,
                        uint8_t at_depth);

  // Cell accessors: the writer's read-modify-write cycles are not atomic as a
  // whole (single-writer contract); atomics only order cell *publication*
  // against concurrent readers.
  uint32_t cell24(uint32_t i) const { return tbl24_[i].load(std::memory_order_acquire); }
  void set_cell24(uint32_t i, uint32_t e) { tbl24_[i].store(e, std::memory_order_release); }
  uint32_t cell8(size_t i) const { return tbl8_[i].load(std::memory_order_acquire); }
  void set_cell8(size_t i, uint32_t e) { tbl8_[i].store(e, std::memory_order_release); }

  // Zeroed (all misses) at construction, before the table is published.
  common::HugeArray<std::atomic<uint32_t>> tbl24_;  // 2^24 entries
  common::HugeArray<std::atomic<uint32_t>> tbl8_;   // groups of 256, preallocated
  uint32_t max_tbl8_groups_;
  std::atomic<uint32_t> tbl8_used_{0};  // high-water mark; single writer
  // Bumped (release) before a freed or fresh group is refilled: the lookup's
  // ownership-stability check.  64-bit: never wraps.
  std::atomic<uint64_t> tbl8_gen_{0};
  std::vector<uint32_t> free_tbl8_;

  // Rule store for ancestor recovery on delete: key = (len, prefix).
  std::map<std::pair<uint8_t, uint32_t>, uint32_t> rules_;
};

}  // namespace esw::cls
