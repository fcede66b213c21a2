// Relaxed atomic counters shared by every concurrent stats block (datapath
// worker and slot counters, runtime worker blocks, port and conntrack
// counters).
//
// Two disciplines, one header, so the single-writer reasoning is stated once:
//   * counter_bump — the cell has exactly ONE writer (its owning worker), so
//     load+store (not an RMW) is exact and costs plain moves on x86; the
//     atomic type exists so aggregating readers are race-free.
//   * counter_add — the cell is shared across writers (per-slot table stats,
//     multi-producer TX counters): one relaxed fetch_add, amortized to once
//     per burst by the callers.
//
// CounterCells<S> is the atomic mirror of a plain snapshot struct S, so a
// counter block is written once: S names the counters, the cells hold them,
// and bump/add/add_to/clear each touch every field in one call.  A writer
// counts a burst into a local S and flushes it with one bump() (its own
// cells) or add() (shared cells).  Alignment is the owner's: the cells are
// exactly sizeof(S), and a block that needs its own cache line declares the
// member alignas(64).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace esw::common {

inline void counter_bump(std::atomic<uint64_t>& c, uint64_t d) {
  if (d != 0) c.store(c.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
}

inline void counter_add(std::atomic<uint64_t>& c, uint64_t d) {
  if (d != 0) c.fetch_add(d, std::memory_order_relaxed);
}

/// One relaxed atomic per field of `S`, a plain struct of uint64_t counters.
template <typename S>
class CounterCells {
  static_assert(std::is_trivially_copyable_v<S>, "S must be a plain struct");
  static_assert(std::has_unique_object_representations_v<S>, "S must have no padding");
  static_assert(sizeof(S) % sizeof(uint64_t) == 0 && alignof(S) == alignof(uint64_t),
                "S must hold only uint64_t counters");
  static constexpr size_t kN = sizeof(S) / sizeof(uint64_t);
  using Words = std::array<uint64_t, kN>;

 public:
  /// Single writer: adds every non-zero field of `d` by load+store.
  void bump(const S& d) {
    const Words w = std::bit_cast<Words>(d);
    for (size_t i = 0; i < kN; ++i) counter_bump(c_[i], w[i]);
  }
  void bump(uint64_t S::*field, uint64_t d) { counter_bump(c_[index(field)], d); }
  /// Shared cells: adds every non-zero field of `d` by fetch_add.
  void add(const S& d) {
    const Words w = std::bit_cast<Words>(d);
    for (size_t i = 0; i < kN; ++i) counter_add(c_[i], w[i]);
  }
  void add(uint64_t S::*field, uint64_t d) { counter_add(c_[index(field)], d); }

  /// Adds the cells into `sum` (aggregating several blocks into one).
  void add_to(S& sum) const {
    Words w = std::bit_cast<Words>(sum);
    for (size_t i = 0; i < kN; ++i) w[i] += c_[i].load(std::memory_order_relaxed);
    sum = std::bit_cast<S>(w);
  }
  S load() const {
    S s{};
    add_to(s);
    return s;
  }
  uint64_t load(uint64_t S::*field) const {
    return c_[index(field)].load(std::memory_order_relaxed);
  }
  void clear() {
    for (auto& c : c_) c.store(0, std::memory_order_relaxed);
  }

 private:
  /// The cell of a field: its position in S's object representation.
  static constexpr size_t index(uint64_t S::*field) {
    S probe{};
    probe.*field = 1;
    const Words w = std::bit_cast<Words>(probe);
    size_t i = 0;
    while (w[i] == 0) ++i;
    return i;
  }

  std::atomic<uint64_t> c_[kN]{};
};

}  // namespace esw::common
