// Tuple space search (Srinivasan et al., SIGCOMM '99) — the classifier behind
// the paper's *linked list* template and the OVS-model megaflow cache.
//
// Entries are grouped into tuples by their exact mask signature; each tuple
// indexes its entries with a cuckoo hash (cls::CuckooTable, created at its
// smallest size and grown in place) over the masked key — the dpcls subtable
// shape.  Lookup scans tuples best-rank-first with early exit (OVS's "tuple
// priority sorting") and can report which tuples were visited — the
// information a flow-caching switch turns into megaflow wildcards (§2.2:
// fields "that caused a match as well as those higher priority ones that did
// not, need to be taken into consideration").
//
// The tuple space owns the match order: an entry's rank is its priority, then
// a 64-bit insertion sequence (earlier wins among equals), exactly the
// reference FlowTable's order.  Re-adding an existing (match, priority)
// replaces the value and keeps the rank, as an OpenFlow modify does.
//
// One control-plane writer mutates the structure in place while packet
// workers look up concurrently, the CuckooTable contract one level up:
//   * a tuple's index maps a masked key to the head of an immutable chain of
//     nodes (same match, priority-descending).  A mod copies the chain prefix
//     in front of its change and publishes the new head with one index
//     insert/erase, so a reader sees the old chain or the new one;
//   * the scan order is an immutable {tuple, min_rank} array published with
//     one atomic store.  The published min_rank never exceeds the tuple's
//     live minimum at any instant a reader can observe, so early exit never
//     skips a better entry;
//   * displaced nodes, arrays and emptied tuples retire through the owning
//     datapath's EpochDomain.  Without a domain (or without registered
//     workers) they are freed at once.
//
// `Value` is the per-entry payload (compiled lookup results, megaflow entry
// indexes, slow-path actions).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "cls/cuckoo.hpp"
#include "common/epoch.hpp"
#include "common/memtrace.hpp"
#include "flow/match.hpp"

namespace esw::cls {

struct TupleVisitStats {
  uint32_t tuples_visited = 0;
  uint32_t fields_union = 0;                              // present-bit union
  std::array<uint64_t, flow::kNumFields> mask_union{};    // per-field mask bits
};

template <typename Value>
class TupleSpace {
 public:
  /// Total match order; lower wins: higher priority first, then earlier
  /// insertion.  Unique per entry.
  struct Rank {
    uint16_t priority = 0;
    uint64_t seq = 0;
    friend bool operator<(const Rank& a, const Rank& b) {
      return a.priority != b.priority ? a.priority > b.priority : a.seq < b.seq;
    }
  };

  /// One chain node; immutable once a reader can reach it.
  struct Entry {
    flow::Match match;
    Rank rank;
    Value value;
    const Entry* next;  // same key, next lower priority (writer side only)
  };

  TupleSpace() = default;
  ~TupleSpace() { delete[] order_.load(std::memory_order_relaxed); }
  TupleSpace(const TupleSpace&) = delete;
  TupleSpace& operator=(const TupleSpace&) = delete;

  /// Wires retirement to the datapath's epoch domain (null: free at once).
  void set_domain(common::EpochDomain* d) {
    domain_ = d;
    for (const auto& t : tuples_) t->index.set_domain(d);
  }

  /// Adds an entry, or replaces the value of the (match, priority) entry
  /// already present, keeping its rank.
  void add(const flow::Match& match, uint16_t priority, Value value) {
    std::unique_ptr<Tuple> fresh;  // a new tuple joins the scan order last
    Tuple* t = find_tuple(match);
    if (t == nullptr) {
      fresh = make_tuple(match);
      t = fresh.get();
    }
    const Spot s = locate(match, priority, t);
    if (s.found) {
      relink(s, std::make_unique<const Entry>(
                    Entry{match, s.at->rank, std::move(value), s.at->next}));
      return;
    }
    const Rank rank{priority, next_seq_++};
    if (fresh == nullptr && rank < t->min_rank) {
      t->min_rank = rank;  // lower the bound before the entry can show
      publish_order();
    }
    relink(s, std::make_unique<const Entry>(Entry{match, rank, std::move(value), s.at}));
    ++size_;
    if (fresh != nullptr) {  // complete before any reader can see it
      t->min_rank = rank;
      tuples_.push_back(std::move(fresh));
      publish_order();
    }
  }

  /// Removes the (match, priority) entry; true if it was present.
  bool remove(const flow::Match& match, uint16_t priority) {
    const Spot s = locate(match, priority, find_tuple(match));
    if (!s.found) return false;
    relink(s, nullptr);
    --size_;
    Tuple* t = s.tuple;
    if (t->nodes.empty()) {
      const auto pos = std::find_if(tuples_.begin(), tuples_.end(),
                                    [&](const auto& p) { return p.get() == t; });
      std::unique_ptr<Tuple> gone = std::move(*pos);
      tuples_.erase(pos);
      publish_order();  // unlink before the tuple retires
      retire(retired_tuples_, std::move(gone));
    } else if (t->min_rank < t->nodes.begin()->first) {
      t->min_rank = t->nodes.begin()->first;
      publish_order();
    }
    return true;
  }

  /// The (match, priority) entry, or nullptr (writer side).
  const Entry* find(const flow::Match& match, uint16_t priority) const {
    const Spot s = locate(match, priority, find_tuple(match));
    return s.found ? s.at : nullptr;
  }

  /// Best (lowest-rank) matching entry, or nullptr.  Safe concurrently with
  /// the writer; the entry stays valid until the reader's next quiescent tick.
  const Entry* lookup(const uint8_t* pkt, const proto::ParseInfo& pi,
                      TupleVisitStats* visit = nullptr, MemTrace* trace = nullptr) const {
    const Slot* s = order_.load(std::memory_order_acquire);
    if (s == nullptr) return nullptr;
    const Entry* best = nullptr;
    for (; s->tuple != nullptr; ++s) {
      if (best != nullptr && !(s->min_rank < best->rank)) break;  // early exit
      const Tuple& t = *s->tuple;
      if (visit) {
        ++visit->tuples_visited;
        visit->fields_union |= t.present;
        for (uint32_t bits = t.present; bits != 0; bits &= bits - 1) {
          const unsigned i = static_cast<unsigned>(__builtin_ctz(bits));
          visit->mask_union[i] |= t.masks[i];
        }
      }
      if ((pi.proto_mask & t.proto_required) != t.proto_required) continue;
      uint8_t key[kMaxKeyBytes];
      const uint32_t key_len = key_from_packet(t, pkt, pi, key);
      const auto found = t.index.lookup(key, key_len, trace);
      if (!found) continue;
      const Entry* e = reinterpret_cast<const Entry*>(found->value);  // chain head
      if (trace) trace->touch(e, sizeof(Entry));
      if (best == nullptr || e->rank < best->rank) best = e;
    }
    return best;
  }

  /// Starts the best-ranked tuple's index bucket toward the core ahead of
  /// lookup() (burst-mode software pipelining).  Only the first tuple is
  /// primed: it is where lookup() probes first, and with tuple priority
  /// sorting it terminates most scans.
  void prefetch(const uint8_t* pkt, const proto::ParseInfo& pi) const {
    const Slot* order = order_.load(std::memory_order_acquire);
    if (order == nullptr) return;
    const Tuple& t = *order->tuple;
    if ((pi.proto_mask & t.proto_required) != t.proto_required) return;
    uint8_t key[kMaxKeyBytes];
    const uint32_t key_len = key_from_packet(t, pkt, pi, key);
    t.index.prefetch(key, key_len);
  }

  size_t size() const { return size_; }
  size_t num_tuples() const { return tuples_.size(); }

  /// Frees retired nodes, scan arrays and tuples stamped strictly below
  /// `horizon` (control thread; rides the datapath's reclaim pass).
  uint64_t epoch_reclaim(uint64_t horizon) {
    uint64_t n = retired_nodes_.reclaim(horizon) + retired_orders_.reclaim(horizon) +
                 retired_tuples_.reclaim(horizon);
    for (const auto& t : tuples_) n += t->index.epoch_reclaim(horizon);
    return n;
  }
  size_t retired_pending() const {
    size_t n = retired_nodes_.pending() + retired_orders_.pending() +
               retired_tuples_.pending();
    for (const auto& t : tuples_) n += t->index.retired_pending();
    return n;
  }

 private:
  static constexpr uint32_t kMaxKeyBytes = 8 * flow::kNumFields;
  // Tuples start at the index's smallest size: most hold a handful of keys.
  static constexpr CuckooTable::Config kIndexConfig{.initial_buckets = 1};

  struct Tuple {
    // Immutable after creation: readers use these without synchronization.
    uint32_t present = 0;
    std::array<uint64_t, flow::kNumFields> masks{};
    uint32_t proto_required = 0;
    CuckooTable index{kIndexConfig};  // masked key -> chain head (const Entry*)
    // Writer side only: every live node by rank, and the min_rank last
    // published in the scan order.
    std::map<Rank, std::unique_ptr<const Entry>> nodes;
    Rank min_rank;
  };

  struct Slot {
    const Tuple* tuple = nullptr;  // null terminates the scan order
    Rank min_rank;
  };

  Tuple* find_tuple(const flow::Match& match) const {
    for (const auto& tp : tuples_) {
      if (tp->present != match.present_bits()) continue;
      bool same = true;
      for (flow::FieldId f : flow::MatchFields(match))
        if (tp->masks[static_cast<unsigned>(f)] != match.mask(f)) {
          same = false;
          break;
        }
      if (same) return tp.get();
    }
    return nullptr;
  }

  /// A tuple for `match`'s mask signature, not yet in the scan order.
  std::unique_ptr<Tuple> make_tuple(const flow::Match& match) {
    auto t = std::make_unique<Tuple>();
    t->present = match.present_bits();
    for (flow::FieldId f : flow::MatchFields(match))
      t->masks[static_cast<unsigned>(f)] = match.mask(f);
    t->proto_required = match.proto_required();
    t->index.set_domain(domain_);
    return t;
  }

  /// Where a (match, priority) entry sits, or would go, in its key's chain.
  struct Spot {
    Tuple* tuple = nullptr;  // null: no tuple has the mask signature
    uint8_t key[kMaxKeyBytes];
    uint32_t key_len = 0;
    const Entry* head = nullptr;
    const Entry* at = nullptr;  // first node at or below the priority
    bool found = false;         // `at` is the entry itself
  };

  Spot locate(const flow::Match& match, uint16_t priority, Tuple* t) const {
    Spot s;
    s.tuple = t;
    if (t == nullptr) return s;
    s.key_len = key_from_match(*t, match, s.key);
    if (const auto found = t->index.lookup(s.key, s.key_len))
      s.head = reinterpret_cast<const Entry*>(found->value);
    s.at = s.head;
    while (s.at != nullptr && s.at->rank.priority > priority) s.at = s.at->next;
    s.found = s.at != nullptr && s.at->rank.priority == priority;
    return s;
  }

  /// Republishes `s`'s chain with `node` (null: nothing) in place of the
  /// found entry, or else in front of `s.at`.  The nodes ahead of the change
  /// are copied and the new head goes out with one index write; then every
  /// unlinked node retires.
  void relink(const Spot& s, std::unique_ptr<const Entry> node) {
    Tuple& t = *s.tuple;
    std::vector<std::unique_ptr<const Entry>> unlinked;
    if (s.found) {
      const auto it = t.nodes.find(s.at->rank);
      unlinked.push_back(std::move(it->second));
      t.nodes.erase(it);
    }
    const Entry* rest = node != nullptr ? node.get() : s.at->next;
    if (node != nullptr) {
      const Rank r = node->rank;
      t.nodes.emplace(r, std::move(node));
    }
    std::vector<const Entry*> prefix;
    for (const Entry* e = s.head; e != s.at; e = e->next) prefix.push_back(e);
    for (size_t i = prefix.size(); i-- > 0;) {
      const Entry* p = prefix[i];
      auto copy = std::make_unique<const Entry>(Entry{p->match, p->rank, p->value, rest});
      rest = copy.get();
      std::unique_ptr<const Entry>& owned = t.nodes.at(p->rank);
      unlinked.push_back(std::move(owned));
      owned = std::move(copy);
    }
    if (rest != nullptr)
      t.index.insert(s.key, s.key_len, reinterpret_cast<uint64_t>(rest));
    else
      t.index.erase(s.key, s.key_len);
    for (auto& e : unlinked) retire(retired_nodes_, std::move(e));
  }

  /// Swaps in a freshly sorted scan order (null when no tuple is left).
  void publish_order() {
    std::unique_ptr<Slot[]> order;
    const size_t n = tuples_.size();
    if (n != 0) {
      order = std::make_unique<Slot[]>(n + 1);  // value-initialized terminator
      for (size_t i = 0; i < n; ++i) order[i] = {tuples_[i].get(), tuples_[i]->min_rank};
      std::sort(order.get(), order.get() + n,
                [](const Slot& a, const Slot& b) { return a.min_rank < b.min_rank; });
    }
    const Slot* old = order_.exchange(order.release(), std::memory_order_acq_rel);
    retire(retired_orders_, std::unique_ptr<const Slot[]>(old));
  }

  template <typename T>
  void retire(common::RetireList<std::unique_ptr<T>>& list, std::unique_ptr<T> obj) {
    if (obj != nullptr && domain_ != nullptr && domain_->has_workers())
      list.retire(std::move(obj), domain_->current_epoch());
  }  // otherwise `obj` is freed here: no reader can hold it

  static uint32_t key_from_match(const Tuple& t, const flow::Match& m, uint8_t* out) {
    uint32_t n = 0;
    for (uint32_t bits = t.present; bits != 0; bits &= bits - 1) {
      const unsigned i = static_cast<unsigned>(__builtin_ctz(bits));
      const uint64_t v = m.value(static_cast<flow::FieldId>(i));  // already masked
      std::memcpy(out + n, &v, 8);
      n += 8;
    }
    if (n == 0) out[n++] = 0;  // catch-all tuple: single sentinel key
    return n;
  }

  static uint32_t key_from_packet(const Tuple& t, const uint8_t* pkt,
                                  const proto::ParseInfo& pi, uint8_t* out) {
    uint32_t n = 0;
    for (uint32_t bits = t.present; bits != 0; bits &= bits - 1) {
      const unsigned i = static_cast<unsigned>(__builtin_ctz(bits));
      const uint64_t v =
          flow::extract_field(static_cast<flow::FieldId>(i), pkt, pi) & t.masks[i];
      std::memcpy(out + n, &v, 8);
      n += 8;
    }
    if (n == 0) out[n++] = 0;  // catch-all tuple: single sentinel key
    return n;
  }

  std::vector<std::unique_ptr<Tuple>> tuples_;  // writer's catalogue, unordered
  std::atomic<const Slot*> order_{nullptr};  // ascending min_rank
  uint64_t next_seq_ = 0;
  size_t size_ = 0;
  common::EpochDomain* domain_ = nullptr;
  common::RetireList<std::unique_ptr<const Entry>> retired_nodes_;
  common::RetireList<std::unique_ptr<const Slot[]>> retired_orders_;
  common::RetireList<std::unique_ptr<Tuple>> retired_tuples_;
};

}  // namespace esw::cls
