// Epoch-based reclamation (quiescent-state flavor, QSBR) — the memory
// lifetime contract between one control-plane writer and N packet workers.
//
// The datapath publishes rebuilt tables with an atomic trampoline swap; the
// *old* table object may still be referenced by workers that snapshotted it
// at the start of their current burst.  Instead of the previous
// caller-coordinated `collect()` ("free when you know nobody is inside
// process()"), retirement now rides a global epoch counter:
//
//   * every packet worker registers a WorkerSlot and ticks `quiescent()`
//     once per burst, at a point where it holds no datapath pointers;
//   * the writer stamps each retired object with the epoch current at
//     retirement, then advances the epoch;
//   * an object is reclaimable once every registered worker has ticked in a
//     *later* epoch than the object's stamp (`min_observed()` > stamp): the
//     tick's acquire of the epoch counter synchronizes with the writer's
//     release advance, so the worker's next burst re-reads the trampoline
//     and cannot resurrect the retired pointer.
//
// Registration is control-thread-only.  advance() and min_observed() may run
// on any thread: the control-plane writer calls them, and so do packet
// workers through the conntrack layer (Conntrack::poll's expiry and reclaim,
// and commit-time eviction, advance the epoch and read the horizon from the
// packet path).  Each RetireList is owned by one lock or one thread, never by
// the domain.  Workers write only their own slot's `seen`; a slot's `active`
// flag is published with release and read with acquire, so a worker scanning
// the slots while the control thread registers another reads a whole,
// initialized slot or skips it.  With no registered workers the grace period
// is trivially satisfied and retirement degenerates to immediate
// reclamation — the single-threaded benches keep their old cost.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <utility>

#include "common/check.hpp"

namespace esw::common {

class EpochDomain {
 public:
  /// Concurrent packet workers supported per domain (control thread excluded).
  static constexpr uint32_t kMaxWorkers = 8;

  /// One registered worker's quiescence record.  Own cache line: the owner
  /// thread stores `seen` every burst; min_observed() only reads it.
  struct alignas(64) WorkerSlot {
    std::atomic<uint64_t> seen{0};
    /// Written by the control thread (release), read by any min_observed()
    /// caller (acquire) — packet workers included.
    std::atomic<bool> active{false};
  };

  /// Registers a worker (control thread only).  The slot starts quiescent at
  /// the current epoch.  Returns nullptr when kMaxWorkers are registered.
  WorkerSlot* register_worker() {
    for (WorkerSlot& s : slots_) {
      if (s.active.load(std::memory_order_relaxed)) continue;
      s.seen.store(epoch_.load(std::memory_order_relaxed), std::memory_order_relaxed);
      s.active.store(true, std::memory_order_release);
      n_active_.fetch_add(1, std::memory_order_release);
      return &s;
    }
    return nullptr;
  }

  /// Unregisters (control thread only; the worker's thread must have stopped
  /// — joined or provably past its last tick).
  void unregister_worker(WorkerSlot* s) {
    ESW_CHECK(s != nullptr && s->active.load(std::memory_order_relaxed));
    s->active.store(false, std::memory_order_release);
    n_active_.fetch_sub(1, std::memory_order_release);
  }

  /// Worker-side per-burst tick.  Must be called when the worker holds no
  /// pointers obtained from epoch-protected structures (i.e. between bursts).
  /// The acquire/release pair is what orders a later trampoline re-read after
  /// the writer's swap.
  void quiescent(WorkerSlot& s) {
    s.seen.store(epoch_.load(std::memory_order_acquire), std::memory_order_release);
  }

  /// True when at least one packet worker is registered.  Without one, no
  /// reader can hold a retiring object, so writers free it at once.
  bool has_workers() const { return n_active_.load(std::memory_order_acquire) > 0; }

  /// Epoch to stamp a retiring object with (writer side).
  uint64_t current_epoch() const { return epoch_.load(std::memory_order_relaxed); }

  /// Advances the global epoch (writer side); returns the new epoch.  The
  /// release ordering makes everything the writer did before the advance —
  /// in particular the trampoline swap that unpublished a retiring object —
  /// visible to any worker whose tick observes the new epoch.
  uint64_t advance() { return epoch_.fetch_add(1, std::memory_order_acq_rel) + 1; }

  /// Smallest epoch any registered worker has ticked in; UINT64_MAX when no
  /// workers are registered (grace trivially satisfied).  Objects stamped
  /// strictly below this are reclaimable.
  uint64_t min_observed() const {
    uint64_t min = UINT64_MAX;
    for (const WorkerSlot& s : slots_) {
      if (!s.active.load(std::memory_order_acquire)) continue;
      const uint64_t seen = s.seen.load(std::memory_order_acquire);
      if (seen < min) min = seen;
    }
    return min;
  }

  /// Writer-side convenience: advance, then report the reclamation horizon.
  uint64_t advance_and_horizon() {
    advance();
    return min_observed();
  }

 private:
  std::atomic<uint64_t> epoch_{1};
  std::atomic<uint32_t> n_active_{0};
  WorkerSlot slots_[kMaxWorkers];
};

/// Writer-side list of retired objects awaiting their grace period.  Not
/// thread-safe — lives with the single control-plane writer, like the domain's
/// retire protocol itself.
template <typename T>
class RetireList {
 public:
  void retire(T obj, uint64_t epoch) {
    q_.push_back({std::move(obj), epoch});
    ++retired_total_;
  }

  /// Destroys (or hands to `out`, see below) every entry stamped strictly
  /// below `horizon`; returns how many were reclaimed.  Entries are stamped
  /// in nondecreasing order, so the queue front is always the oldest.
  uint64_t reclaim(uint64_t horizon) {
    uint64_t n = 0;
    while (!q_.empty() && q_.front().epoch < horizon) {
      q_.pop_front();
      ++n;
    }
    reclaimed_total_ += n;
    return n;
  }

  /// Variant that moves each reclaimable object out (e.g. to recycle a slot
  /// index rather than destroy it).
  template <typename Fn>
  uint64_t reclaim_into(uint64_t horizon, Fn&& fn) {
    uint64_t n = 0;
    while (!q_.empty() && q_.front().epoch < horizon) {
      fn(std::move(q_.front().obj));
      q_.pop_front();
      ++n;
    }
    reclaimed_total_ += n;
    return n;
  }

  void clear() {
    reclaimed_total_ += q_.size();
    q_.clear();
  }

  size_t pending() const { return q_.size(); }
  uint64_t retired_total() const { return retired_total_; }
  uint64_t reclaimed_total() const { return reclaimed_total_; }

 private:
  struct Entry {
    T obj;
    uint64_t epoch;
  };
  std::deque<Entry> q_;
  uint64_t retired_total_ = 0;
  uint64_t reclaimed_total_ = 0;
};

}  // namespace esw::common
