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
// `Value` is the per-entry payload (compiled lookup results, megaflow
// entries, …).  Rank is the total match order: lower rank wins; callers build
// it from (priority, insertion order) so results are deterministic and equal
// to the reference interpreter's.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "cls/cuckoo.hpp"
#include "common/check.hpp"
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
  struct Entry {
    flow::Match match;
    uint32_t rank;  // lower wins
    Value value;
  };

  TupleSpace() = default;
  /// Deep copy — the copy-on-write update path clones the classifier, mutates
  /// the clone and publishes it, leaving the source (still visible to
  /// concurrent readers) untouched.  Each tuple's index is rebuilt from its
  /// chain heads.
  TupleSpace(const TupleSpace& other) : size_(other.size_) {
    tuples_.reserve(other.tuples_.size());
    for (const auto& tp : other.tuples_) tuples_.push_back(tp->clone());
  }
  TupleSpace& operator=(const TupleSpace& other) {
    if (this != &other) *this = TupleSpace(other);
    return *this;
  }
  TupleSpace(TupleSpace&&) noexcept = default;
  TupleSpace& operator=(TupleSpace&&) noexcept = default;

  /// Adds an entry.  (match, rank) pairs must be unique.
  void add(const flow::Match& match, uint32_t rank, Value value) {
    Tuple* t = find_tuple(match);
    if (t == nullptr) {
      auto fresh = std::make_unique<Tuple>();
      fresh->present = match.present_bits();
      for (flow::FieldId f : flow::MatchFields(match))
        fresh->masks[static_cast<unsigned>(f)] = match.mask(f);
      fresh->proto_required = match.proto_required();
      t = fresh.get();
      tuples_.push_back(std::move(fresh));
    }
    uint8_t key[kMaxKeyBytes];
    const uint32_t key_len = key_from_match(*t, match, key);

    const int32_t slot = t->alloc_slot();
    t->entries[slot] = {match, rank, std::move(value)};

    // Insert into the per-key chain, kept sorted by rank ascending.
    int32_t head = -1;
    if (auto found = t->index.lookup(key, key_len))
      head = static_cast<int32_t>(found->value);
    if (head < 0 || t->entries[head].rank > rank) {
      t->next[slot] = head;
      t->index.insert(key, key_len, static_cast<uint64_t>(slot));
    } else {
      int32_t prev = head;
      while (t->next[prev] >= 0 && t->entries[t->next[prev]].rank < rank)
        prev = t->next[prev];
      t->next[slot] = t->next[prev];
      t->next[prev] = slot;
    }
    ++t->live;
    ++size_;
    if (rank < t->min_rank) t->min_rank = rank;
    resort();
  }

  /// Removes the entry with this (match, rank); true if found.
  bool remove(const flow::Match& match, uint32_t rank) {
    Tuple* t = find_tuple(match);
    if (t == nullptr) return false;
    uint8_t key[kMaxKeyBytes];
    const uint32_t key_len = key_from_match(*t, match, key);
    auto found = t->index.lookup(key, key_len);
    if (!found) return false;

    int32_t cur = static_cast<int32_t>(found->value);
    int32_t prev = -1;
    while (cur >= 0 && t->entries[cur].rank != rank) {
      prev = cur;
      cur = t->next[cur];
    }
    if (cur < 0) return false;
    if (prev < 0) {
      if (t->next[cur] >= 0)
        t->index.insert(key, key_len, static_cast<uint64_t>(t->next[cur]));
      else
        t->index.erase(key, key_len);
    } else {
      t->next[prev] = t->next[cur];
    }
    t->free_slot(cur);
    --t->live;
    --size_;
    if (t->live == 0) {
      tuples_.erase(std::find_if(tuples_.begin(), tuples_.end(),
                                 [&](const auto& p) { return p.get() == t; }));
    } else {
      t->recompute_min_rank();
      resort();
    }
    return true;
  }

  /// Best (lowest-rank) matching entry, or nullptr.
  const Entry* lookup(const uint8_t* pkt, const proto::ParseInfo& pi,
                      TupleVisitStats* visit = nullptr, MemTrace* trace = nullptr) const {
    const Entry* best = nullptr;
    for (const auto& tp : tuples_) {
      const Tuple& t = *tp;
      if (best != nullptr && best->rank <= t.min_rank) break;  // early exit
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
      const Entry& e = t.entries[found->value];  // chain head = lowest rank
      if (trace) trace->touch(&e, sizeof(Entry));
      if (best == nullptr || e.rank < best->rank) best = &e;
    }
    return best;
  }

  /// Starts the best-ranked tuple's index bucket toward the core ahead of
  /// lookup() (burst-mode software pipelining).  Only the first tuple is
  /// primed: it is where lookup() probes first, and with tuple priority
  /// sorting it terminates most scans.
  void prefetch(const uint8_t* pkt, const proto::ParseInfo& pi) const {
    if (tuples_.empty()) return;
    const Tuple& t = *tuples_.front();
    if ((pi.proto_mask & t.proto_required) != t.proto_required) return;
    uint8_t key[kMaxKeyBytes];
    const uint32_t key_len = key_from_packet(t, pkt, pi, key);
    t.index.prefetch(key, key_len);
  }

  size_t size() const { return size_; }
  size_t num_tuples() const { return tuples_.size(); }

  void clear() {
    tuples_.clear();
    size_ = 0;
  }

  /// Visits every live entry (eviction, invalidation, debugging).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& tp : tuples_)
      for (size_t i = 0; i < tp->entries.size(); ++i)
        if (tp->slot_live[i]) fn(tp->entries[i]);
  }

 private:
  static constexpr uint32_t kMaxKeyBytes = 8 * flow::kNumFields;
  // Tuples start at the index's smallest size: most hold a handful of keys.
  static constexpr CuckooTable::Config kIndexConfig{.initial_buckets = 1};

  struct Tuple {
    uint32_t present = 0;
    std::array<uint64_t, flow::kNumFields> masks{};
    uint32_t proto_required = 0;
    uint32_t min_rank = 0xFFFFFFFF;
    CuckooTable index{kIndexConfig};  // masked key -> chain head slot
    std::vector<Entry> entries;
    std::vector<int32_t> next;
    std::vector<bool> slot_live;
    std::vector<int32_t> free_list;
    size_t live = 0;

    int32_t alloc_slot() {
      if (!free_list.empty()) {
        const int32_t s = free_list.back();
        free_list.pop_back();
        slot_live[s] = true;
        return s;
      }
      entries.push_back({});
      next.push_back(-1);
      slot_live.push_back(true);
      return static_cast<int32_t>(entries.size() - 1);
    }
    void free_slot(int32_t s) {
      slot_live[s] = false;
      free_list.push_back(s);
    }
    void recompute_min_rank() {
      min_rank = 0xFFFFFFFF;
      for (size_t i = 0; i < entries.size(); ++i)
        if (slot_live[i] && entries[i].rank < min_rank) min_rank = entries[i].rank;
    }

    /// Deep copy; the index is not copyable, so it is rebuilt from the
    /// chain heads (live slots no other slot links to).
    std::unique_ptr<Tuple> clone() const {
      auto c = std::make_unique<Tuple>();
      c->present = present;
      c->masks = masks;
      c->proto_required = proto_required;
      c->min_rank = min_rank;
      c->entries = entries;
      c->next = next;
      c->slot_live = slot_live;
      c->free_list = free_list;
      c->live = live;
      std::vector<bool> linked(entries.size(), false);
      for (size_t i = 0; i < entries.size(); ++i)
        if (slot_live[i] && next[i] >= 0) linked[next[i]] = true;
      uint8_t key[kMaxKeyBytes];
      for (size_t i = 0; i < entries.size(); ++i) {
        if (!slot_live[i] || linked[i]) continue;
        const uint32_t key_len = key_from_match(*c, entries[i].match, key);
        c->index.insert(key, key_len, i);
      }
      return c;
    }
  };

  Tuple* find_tuple(const flow::Match& match) {
    for (auto& tp : tuples_) {
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

  void resort() {
    std::sort(tuples_.begin(), tuples_.end(),
              [](const auto& a, const auto& b) { return a->min_rank < b->min_rank; });
  }

  std::vector<std::unique_ptr<Tuple>> tuples_;
  size_t size_ = 0;
};

}  // namespace esw::cls
