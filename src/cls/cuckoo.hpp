// Resizable, reader-safe bucketized cuckoo hash over byte-string keys — the
// one exact-match index in the tree: it serves the compound hash template
// (§3.1) at every table size and each tuple of the tuple-space classifier.
//
// It follows the shared-memory cuckoo map design (tasvir's CuckooMap,
// SNIPPETS.md Snippet 1): 4-way buckets whose slots are single atomic words
// packing a 48-bit entry pointer with a 16-bit tag, so one control-plane
// writer mutates *in place* while packet workers read concurrently — a table
// never has to be cloned and republished to absorb an update.
//
// Reader safety rests on three rules:
//   * entries are immutable heap blobs published/retired through the owning
//     datapath's EpochDomain — a reader that loaded a slot word can always
//     dereference it, even if the writer just unlinked it;
//   * single-slot writes (fresh insert into an empty slot, erase, same-key
//     replace) need no further protection: a reader sees the old or the new
//     word, both valid states;
//   * multi-slot moves (displacement chains, bucket migration during grow,
//     the reseed/collapse view swap) run inside one global even/odd seqlock
//     section.  Positive hits are self-validating (immutable entries) and
//     return immediately; only a *miss* that overlapped a move re-probes, so
//     a present key is never reported absent.
//
// Growth is incremental: a doubled empty view is published as the new front
// and the old view drains behind it, a few buckets per subsequent mutation —
// no stop-the-world rehash.  Lookups probe front then back; a key is always
// in exactly one of them.  Failed displacement chains at low load reseed
// (new bucket-derivation salt, entries shared, private rebuild + view swap)
// before escalating to a grow.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/bits.hpp"
#include "common/epoch.hpp"
#include "common/memtrace.hpp"

namespace esw::cls {

class CuckooTable {
 public:
  static constexpr uint32_t kSlotsPerBucket = 4;

  struct Config {
    uint32_t initial_buckets = 1024;   // rounded up to a power of two (>= 4)
    uint32_t max_kicks = 96;           // displacement bound before reseed/grow
    double grow_load = 0.8;            // proactive incremental-grow threshold
    uint32_t migrate_per_mutation = 8; // back-view buckets drained per write
    uint64_t salt = 0x9E3779B97F4A7C15ULL;  // bucket-derivation salt seed
  };

  struct Value {
    uint64_t value;
    uint16_t aux;
  };

  CuckooTable() : CuckooTable(Config{}) {}
  explicit CuckooTable(const Config& cfg);
  ~CuckooTable();

  CuckooTable(const CuckooTable&) = delete;
  CuckooTable& operator=(const CuckooTable&) = delete;

  /// Wires retirement to the datapath's epoch domain.  Null (the default)
  /// reclaims immediately — the single-threaded build/bench path.
  void set_domain(common::EpochDomain* d) { domain_ = d; }

  /// Inserts or replaces (single control-plane writer).
  void insert(const uint8_t* key, uint32_t key_len, uint64_t value, uint16_t aux = 0);

  /// Removes a key; true if it was present.
  bool erase(const uint8_t* key, uint32_t key_len);

  /// Wait-free-on-hit concurrent lookup (any thread).
  std::optional<Value> lookup(const uint8_t* key, uint32_t key_len,
                              MemTrace* trace = nullptr) const;

  /// Prefetch-pipelined bulk lookup (any thread): probes `n` keys through a
  /// three-stage software pipeline — hash + both-bucket prefetch for the
  /// whole lane, then slot scan + entry-blob prefetch, then key verify — so
  /// up to a lane's worth of cache misses are in flight at once instead of
  /// one dependent miss per key.  That memory-level parallelism is what
  /// keeps the probe rate flat from 100K to millions of entries (the scale
  /// bench's CI gate).  Lanes whose optimistic front-view probe misses (a
  /// grow draining behind the front, a tag collision, a concurrent
  /// displacement) fall back to the seq-checked scalar lookup(), so the
  /// result is element-wise identical to n lookup() calls.  Fills out[i]
  /// and hit[i]; returns the hit count.
  uint32_t lookup_burst(const uint8_t* const* keys, const uint32_t* lens,
                        uint32_t n, Value* out, bool* hit) const;

  /// Starts both candidate buckets' cache lines toward the core ahead of
  /// lookup() (a present key is in either with equal odds).  The bucket
  /// indexes are derived from the same acquire-loaded view snapshot the
  /// lookup would use, so a concurrent grow can never make it prefetch
  /// (or index) past the live slot array.
  void prefetch(const uint8_t* key, uint32_t key_len) const {
    const View* v = front_.load(std::memory_order_acquire);
    const uint64_t hs = mix64(hash_bytes(key, key_len, kHashSeed) ^ v->salt);
    esw_prefetch(&v->slots[static_cast<size_t>(static_cast<uint32_t>(hs) & v->mask) *
                           kSlotsPerBucket]);
    esw_prefetch(&v->slots[static_cast<size_t>(static_cast<uint32_t>(hs >> 32) & v->mask) *
                           kSlotsPerBucket]);
  }

  size_t size() const { return size_; }
  uint32_t capacity() const {
    return front_.load(std::memory_order_relaxed)->n_buckets * kSlotsPerBucket;
  }
  size_t memory_bytes() const;

  uint64_t grows() const { return grows_; }
  uint64_t reseeds() const { return reseeds_; }
  uint64_t kicks() const { return kicks_; }
  uint64_t migrated() const { return migrated_; }

  /// Frees retired entries/views stamped strictly below `horizon`
  /// (control thread; rides the datapath's reclaim pass).
  uint64_t epoch_reclaim(uint64_t horizon);
  size_t retired_pending() const {
    return retired_entries_.pending() + retired_views_.pending();
  }

 private:
  // Immutable once published: a reader holding the pointer never re-checks.
  struct Entry {
    uint64_t hash;  // salt-independent key hash (valid across reseeds)
    uint64_t value;
    uint32_t key_len;
    uint16_t aux;
    const uint8_t* key() const {
      return reinterpret_cast<const uint8_t*>(this) + sizeof(Entry);
    }
    uint8_t* key_mut() { return reinterpret_cast<uint8_t*>(this) + sizeof(Entry); }
  };

  struct View {
    uint32_t n_buckets;
    uint32_t mask;
    uint64_t salt;
    uint32_t migrate_pos = 0;  // next bucket to drain when this is the back
    std::vector<std::atomic<uint64_t>> slots;  // n_buckets * kSlotsPerBucket

    View(uint32_t buckets, uint64_t s)
        : n_buckets(buckets),
          mask(buckets - 1),
          salt(s),
          slots(static_cast<size_t>(buckets) * kSlotsPerBucket) {}
  };

  static constexpr uint64_t kHashSeed = 0xC6A4A7935BD1E995ULL;
  static constexpr uint64_t kPtrMask = (uint64_t{1} << 48) - 1;

  static Entry* word_ptr(uint64_t w) { return reinterpret_cast<Entry*>(w & kPtrMask); }
  static uint16_t word_tag(uint64_t w) { return static_cast<uint16_t>(w >> 48); }
  static uint64_t pack_word(const Entry* e);
  static void free_entry(Entry* e);

  static uint32_t bucket1(const View* v, uint64_t h) {
    return static_cast<uint32_t>(mix64(h ^ v->salt)) & v->mask;
  }
  static uint32_t bucket2(const View* v, uint64_t h) {
    return static_cast<uint32_t>(mix64(h ^ v->salt) >> 32) & v->mask;
  }

  Entry* make_entry(const uint8_t* key, uint32_t key_len, uint64_t value,
                    uint16_t aux, uint64_t h);
  void retire_entry(Entry* e);
  void retire_view(View* v);

  std::atomic<uint64_t>* find_slot(View* v, uint64_t h, const uint8_t* key,
                                   uint32_t key_len);
  bool place_empty(View* v, uint32_t bucket, uint64_t word);
  bool try_place_empty(View* v, Entry* e);
  bool kick_place(View* v, Entry* e);  // caller holds the seq guard
  bool place(View* v, Entry* e) { return try_place_empty(v, e) || kick_place(v, e); }

  void seq_begin() {
    seq_.store(seq_.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  void seq_end() {
    seq_.store(seq_.load(std::memory_order_relaxed) + 1, std::memory_order_release);
  }

  void migrate_step(uint32_t max_buckets);
  void force_drain();
  void grow_incremental();
  void rebuild_collapse(uint32_t min_buckets);
  uint64_t next_salt() { return salt_ = mix64(salt_ + kHashSeed); }

  Config cfg_;
  uint64_t salt_;
  std::atomic<View*> front_;
  std::atomic<View*> back_{nullptr};
  // Global displacement/migration guard: odd while a multi-slot move is in
  // flight; readers re-probe on a miss whose window saw a change.
  std::atomic<uint64_t> seq_{0};

  common::EpochDomain* domain_ = nullptr;
  common::RetireList<Entry*> retired_entries_;
  common::RetireList<View*> retired_views_;

  size_t size_ = 0;
  size_t entry_bytes_ = 0;  // live heap bytes in Entry blobs
  uint32_t kick_rr_ = 0;    // round-robin victim-slot cursor
  uint64_t grows_ = 0;
  uint64_t reseeds_ = 0;
  uint64_t kicks_ = 0;
  uint64_t migrated_ = 0;
  struct Undo {
    uint32_t idx;
    uint64_t word;
  };
  std::vector<Undo> kick_undo_;  // scratch, reused across kick chains
};

}  // namespace esw::cls
