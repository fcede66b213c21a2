#include "cls/lpm.hpp"

#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/failpoint.hpp"

namespace esw::cls {

namespace {
uint32_t prefix_mask32(uint8_t len) {
  return len == 0 ? 0 : static_cast<uint32_t>(low_bits(len) << (32 - len));
}
}  // namespace

LpmTable::LpmTable(uint32_t max_tbl8_groups)
    : tbl24_(size_t{1} << 24),
      tbl8_(size_t{max_tbl8_groups} * 256),
      max_tbl8_groups_(max_tbl8_groups) {}

uint32_t LpmTable::alloc_tbl8(uint32_t fill_entry) {
  // Injectable exhaustion: same throw as a genuinely spent budget, so the
  // try_add -> rebuild and build -> template-fallback paths are reachable.
  ESW_CHECK_MSG(!ESW_FAILPOINT("lpm.tbl8"), "out of tbl8 groups");
  uint32_t group;
  if (!free_tbl8_.empty()) {
    group = free_tbl8_.back();
    free_tbl8_.pop_back();
  } else {
    group = tbl8_used_.load(std::memory_order_relaxed);
    ESW_CHECK_MSG(group < max_tbl8_groups_, "out of tbl8 groups");
    tbl8_used_.store(group + 1, std::memory_order_relaxed);
  }
  // Ownership of `group` changes now: bump the generation *before* refilling
  // so a reader whose tbl8 load observes any refill store also observes the
  // bump (release sequence) and retries.  Fill before any tbl24 cell can
  // point here: a reader that acquires the ext entry must find initialized
  // cells.
  tbl8_gen_.fetch_add(1, std::memory_order_release);
  for (uint32_t j = 0; j < 256; ++j) set_cell8(size_t{group} * 256 + j, fill_entry);
  return group;
}

// `kOrder` stores the range's tbl24 route cells: release for add(), relaxed
// for add_unpublished().  Both are one plain store on x86, but
// ThreadSanitizer keeps a sync object for every address ever release-stored,
// and a build's /8 routes cover 65536 cells each: gigabytes of sync state for
// one table.  A template, not a per-cell test: this loop is most of a build's
// time.
template <std::memory_order kOrder>
void LpmTable::write_range24(uint32_t first, uint32_t last, uint32_t entry,
                             uint8_t at_depth) {
  for (uint32_t i = first; i <= last; ++i) {
    const uint32_t e = cell24(i);
    if (ext(e)) {
      // Overwrite only the shallower cells of the extension group.
      const uint32_t g = value(e);
      for (uint32_t j = 0; j < 256; ++j) {
        const size_t idx = size_t{g} * 256 + j;
        const uint32_t cell = cell8(idx);
        if (!valid(cell) || depth(cell) <= at_depth) set_cell8(idx, entry);
      }
    } else if (!valid(e) || depth(e) <= at_depth) {
      tbl24_[i].store(entry, kOrder);
    }
  }
}

void LpmTable::write_tbl8_range(uint32_t group, uint32_t first, uint32_t last,
                                uint32_t entry, uint8_t at_depth) {
  for (uint32_t j = first; j <= last; ++j) {
    const size_t idx = size_t{group} * 256 + j;
    const uint32_t cell = cell8(idx);
    if (!valid(cell) || depth(cell) <= at_depth) set_cell8(idx, entry);
  }
}

void LpmTable::add(uint32_t prefix, uint8_t len, uint32_t value) {
  add_route<std::memory_order_release>(prefix, len, value);
}

void LpmTable::add_unpublished(uint32_t prefix, uint8_t len, uint32_t value) {
  add_route<std::memory_order_relaxed>(prefix, len, value);
}

template <std::memory_order kOrder>
void LpmTable::add_route(uint32_t prefix, uint8_t len, uint32_t value_in) {
  ESW_CHECK(len <= 32);
  ESW_CHECK_MSG(value_in <= kMaxValue, "LPM value exceeds 24 bits");
  prefix &= prefix_mask32(len);
  rules_[{len, prefix}] = value_in;

  if (len <= 24) {
    const uint32_t first = prefix >> 8;
    const uint32_t last = first + (1u << (24 - len)) - 1;
    write_range24<kOrder>(first, last, make(value_in, len, false), len);
    return;
  }

  const uint32_t i = prefix >> 8;
  uint32_t e = cell24(i);
  uint32_t group;
  if (ext(e)) {
    group = value(e);
  } else {
    // Seed a fresh group with whatever covered this /24 before, then publish
    // the extension pointer (release) so readers find the filled group.
    const uint32_t fill = valid(e) ? e : 0;
    group = alloc_tbl8(fill);
    set_cell24(i, make(group, 0, true));
  }
  const uint32_t lo = prefix & 0xFF;
  const uint32_t hi = lo + (1u << (32 - len)) - 1;
  write_tbl8_range(group, lo, hi, make(value_in, len, false), len);
}

bool LpmTable::remove(uint32_t prefix, uint8_t len) {
  ESW_CHECK(len <= 32);
  prefix &= prefix_mask32(len);
  if (rules_.erase({len, prefix}) == 0) return false;

  // Longest covering ancestor takes over the freed range (rte_lpm's delete).
  uint32_t repl = 0;
  for (int alen = len - 1; alen >= 0; --alen) {
    const uint32_t ap = prefix & prefix_mask32(static_cast<uint8_t>(alen));
    const auto it = rules_.find({static_cast<uint8_t>(alen), ap});
    if (it != rules_.end()) {
      repl = make(it->second, static_cast<uint8_t>(alen), false);
      break;
    }
  }

  if (len <= 24) {
    const uint32_t first = prefix >> 8;
    const uint32_t last = first + (1u << (24 - len)) - 1;
    for (uint32_t i = first; i <= last; ++i) {
      const uint32_t e = cell24(i);
      if (ext(e)) {
        const uint32_t g = value(e);
        for (uint32_t j = 0; j < 256; ++j) {
          const size_t idx = size_t{g} * 256 + j;
          const uint32_t cell = cell8(idx);
          if (valid(cell) && !ext(cell) && depth(cell) == len) set_cell8(idx, repl);
        }
      } else if (valid(e) && depth(e) == len) {
        set_cell24(i, repl);
      }
    }
    return true;
  }

  const uint32_t i = prefix >> 8;
  const uint32_t e = cell24(i);
  if (!ext(e)) return true;  // nothing materialized (shouldn't happen)
  const uint32_t g = value(e);
  const uint32_t lo = prefix & 0xFF;
  const uint32_t hi = lo + (1u << (32 - len)) - 1;
  for (uint32_t j = lo; j <= hi; ++j) {
    const size_t idx = size_t{g} * 256 + j;
    const uint32_t cell = cell8(idx);
    if (valid(cell) && depth(cell) == len) set_cell8(idx, repl);
  }

  // Fold the group back into tbl24 when no >24-depth cell remains.  All
  // remaining cells are then identical (a ≤ /24 rule always covers the whole
  // group range).  The tbl24 cell is republished first, so a reader can only
  // chase the group pointer before the fold — the group's cells stay intact
  // until a later alloc_tbl8 refills them, which republishes tbl24 again.
  bool has_deep = false;
  for (uint32_t j = 0; j < 256; ++j) {
    const uint32_t cell = cell8(size_t{g} * 256 + j);
    if (valid(cell) && depth(cell) > 24) {
      has_deep = true;
      break;
    }
  }
  if (!has_deep) {
    set_cell24(i, cell8(size_t{g} * 256));
    free_tbl8_.push_back(g);
  }
  return true;
}

std::optional<uint32_t> LpmTable::lookup(uint32_t addr, MemTrace* trace) const {
  for (;;) {
    // Generation first, tbl24 second: if a group was recycled before this
    // read, either `gen` already reflects it (and an equal re-read below
    // proves no *further* recycle raced the cell loads), or the tbl24 load
    // happens-after the bump via the acquire chain and sees the fold.
    const uint64_t gen = tbl8_gen_.load(std::memory_order_acquire);
    const uint32_t e = cell24(addr >> 8);
    if (trace) trace->touch(&tbl24_[addr >> 8], 4);
    if (!valid(e)) return std::nullopt;
    if (!ext(e)) return value(e);
    const size_t idx = size_t{value(e)} * 256 + (addr & 0xFF);
    const uint32_t cell = cell8(idx);
    if (trace) trace->touch(&tbl8_[idx], 4);
    // Freed tbl8 groups are recycled without a grace period, so the group
    // behind `e` may have been folded away and refilled for another /24
    // between our loads.  Any such ownership change bumps tbl8_gen_ before
    // the refill, and the refill stores are what the stale read would have
    // observed — so an unchanged generation proves the cell belonged to this
    // /24.  (A value-compare of the tbl24 entry would be ABA-unsafe: the
    // LIFO freelist hands the same group back to the same /24.)
    if (ESW_LIKELY(tbl8_gen_.load(std::memory_order_acquire) == gen)) {
      if (!valid(cell)) return std::nullopt;
      return value(cell);
    }
  }
}

}  // namespace esw::cls
