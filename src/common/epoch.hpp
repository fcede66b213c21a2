// Epoch-based reclamation (quiescent-state flavor, QSBR) — the memory
// lifetime contract between one control-plane writer and N packet workers.
//
// The writer publishes a new structure beside the old one with one atomic
// swap (a trampoline slot, the fused plan, a cuckoo slot word or view, a
// tuple-space chain head or scan order); the *old* object may still be
// referenced by workers that loaded it at the start of their current burst.
// Its freeing rides a global epoch counter:
//
//   * every packet worker registers a WorkerSlot and ticks `quiescent()`
//     once per burst, at a point where it holds no datapath pointers;
//   * the writer hands each displaced object to retire(), which stamps it
//     with the epoch current at retirement; reclaim() advances the epoch;
//   * an object is reclaimable once every registered worker has ticked in a
//     *later* epoch than the object's stamp (`min_observed()` > stamp): the
//     tick's acquire of the epoch counter synchronizes with the writer's
//     release advance, so the worker's next burst re-reads the fused plan
//     (and every slot word) and cannot resurrect the retired pointer.
//
// The domain owns the one retire queue every control-plane structure frees
// through: the datapath's displaced impls and plans, cuckoo entries and
// views, tuple-space nodes, scan arrays and tuples.  The queue is the
// writer's alone (retire() and reclaim() run on the control thread).  A
// stamp may be later than the swap it covers, never earlier: a later stamp
// only delays the free by a pass.  Stamps are read on the writer thread
// from a monotonic counter, so the queue is in stamp order and its front
// is the oldest.
//
// Registration is control-thread-only.  advance() and min_observed() may run
// on any thread: the control-plane writer calls them, and so do packet
// workers through the conntrack layer (Conntrack::poll's expiry and reclaim,
// and commit-time eviction, advance the epoch and read the horizon from the
// packet path; conntrack keeps its own per-shard retire lists under its
// shard locks).  Workers write only their own slot's `seen`; a slot's
// `active` flag is published with release and read with acquire, so a worker
// scanning the slots while the control thread registers another reads a
// whole, initialized slot or skips it.  With no registered worker the grace
// period is trivially satisfied: retire() frees at once.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <type_traits>
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
  /// The acquire/release pair is what orders the next burst's plan re-read
  /// after the writer's swap.
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
  /// in particular the swap that unpublished a retiring object —
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

  /// Hands a displaced object to the domain (writer side).  It is stamped
  /// with the current epoch and freed by the first reclaim() whose horizon
  /// passes the stamp; with no registered worker no reader can hold it, so
  /// it is freed at once.  The owner is type-erased into a function-pointer
  /// deleter: no allocation per retire beyond the queue's own blocks.
  template <typename T>
  void retire(std::unique_ptr<T> obj) {
    if (obj == nullptr) return;
    ++retired_;
    if (!has_workers()) {
      ++reclaimed_;
      return;  // `obj` is freed here
    }
    using Elem = std::remove_extent_t<T>;
    void* raw = const_cast<void*>(static_cast<const void*>(obj.release()));
    q_.push_back({Owner(raw, [](void* p) { std::default_delete<T>()(static_cast<Elem*>(p)); }),
                  current_epoch()});
  }

  /// Writer side: advances the epoch, then frees every retiree stamped
  /// strictly below the horizon, oldest first.  Returns the horizon, so a
  /// caller can release its own epoch-stamped records (the datapath's slot
  /// ids) on the same pass.
  uint64_t reclaim() {
    advance();
    const uint64_t horizon = min_observed();
    while (!q_.empty() && q_.front().epoch < horizon) {
      // Freed after the pop: a destructor never sees a half-popped queue.
      const Owner gone = std::move(q_.front().obj);
      q_.pop_front();
      ++reclaimed_;
    }
    return horizon;
  }

  /// Retire-queue totals (writer side): every retire() counts once in
  /// `retired`, and once more in `reclaimed` when it is freed.
  uint64_t retired() const { return retired_; }
  uint64_t reclaimed() const { return reclaimed_; }
  uint64_t pending() const { return q_.size(); }

 private:
  std::atomic<uint64_t> epoch_{1};
  std::atomic<uint32_t> n_active_{0};
  WorkerSlot slots_[kMaxWorkers];

  using Owner = std::unique_ptr<void, void (*)(void*)>;
  struct Retiree {
    Owner obj;
    uint64_t epoch;
  };
  std::deque<Retiree> q_;
  uint64_t retired_ = 0;
  uint64_t reclaimed_ = 0;
};

/// A retire list owned by one lock: conntrack's per-shard lists, which packet
/// workers retire slab slots into under the shard lock.  Not thread-safe.
template <typename T>
class RetireList {
 public:
  void retire(T obj, uint64_t epoch) {
    q_.push_back({std::move(obj), epoch});
    ++retired_total_;
  }

  /// Moves every entry stamped strictly below `horizon` into `fn` (e.g. to
  /// recycle a slot index); returns how many.  Entries are stamped in
  /// nondecreasing order, so the queue front is always the oldest.
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
