#include "cls/cuckoo.hpp"

#include <algorithm>
#include <cstring>
#include <new>

#include "common/check.hpp"

namespace esw::cls {

namespace {
uint32_t round_pow2(uint32_t v) {
  uint32_t p = 4;
  while (p < v) p <<= 1;
  return p;
}
}  // namespace

CuckooTable::CuckooTable(const Config& cfg) : cfg_(cfg), salt_(cfg.salt) {
  cfg_.initial_buckets = round_pow2(cfg_.initial_buckets == 0 ? 4 : cfg_.initial_buckets);
  if (cfg_.max_kicks == 0) cfg_.max_kicks = 1;
  front_.store(new View(cfg_.initial_buckets, next_salt()), std::memory_order_release);
}

CuckooTable::~CuckooTable() {
  // Destruction implies no live readers: free entries from the live views
  // (each live entry sits in exactly one slot of one view at API boundaries;
  // retired views share entries and free only their slot arrays).
  View* views[2] = {front_.load(std::memory_order_relaxed),
                    back_.load(std::memory_order_relaxed)};
  for (View* v : views) {
    if (v == nullptr) continue;
    for (auto& s : v->slots) {
      Entry* e = word_ptr(s.load(std::memory_order_relaxed));
      if (e != nullptr) free_entry(e);
    }
    delete v;
  }
  retired_entries_.reclaim_into(UINT64_MAX, [](Entry* e) { free_entry(e); });
  retired_views_.reclaim_into(UINT64_MAX, [](View* v) { delete v; });
}

uint64_t CuckooTable::pack_word(const Entry* e) {
  const uint64_t p = reinterpret_cast<uint64_t>(e);
  ESW_CHECK_MSG((p >> 48) == 0, "entry pointer exceeds 48 bits");
  return p | (e->hash >> 48 << 48);
}

void CuckooTable::free_entry(Entry* e) {
  e->~Entry();
  ::operator delete(e);
}

CuckooTable::Entry* CuckooTable::make_entry(const uint8_t* key, uint32_t key_len,
                                            uint64_t value, uint16_t aux, uint64_t h) {
  void* mem = ::operator new(sizeof(Entry) + key_len);
  Entry* e = new (mem) Entry{h, value, key_len, aux};
  std::memcpy(e->key_mut(), key, key_len);
  entry_bytes_ += sizeof(Entry) + key_len;
  return e;
}

void CuckooTable::retire_entry(Entry* e) {
  entry_bytes_ -= sizeof(Entry) + e->key_len;
  if (domain_ == nullptr || !domain_->has_workers()) {
    free_entry(e);
    return;
  }
  retired_entries_.retire(e, domain_->current_epoch());
}

void CuckooTable::retire_view(View* v) {
  if (domain_ == nullptr || !domain_->has_workers()) {
    delete v;
    return;
  }
  retired_views_.retire(v, domain_->current_epoch());
}

uint64_t CuckooTable::epoch_reclaim(uint64_t horizon) {
  uint64_t n = retired_entries_.reclaim_into(horizon, [](Entry* e) { free_entry(e); });
  n += retired_views_.reclaim_into(horizon, [](View* v) { delete v; });
  return n;
}

size_t CuckooTable::memory_bytes() const {
  const View* f = front_.load(std::memory_order_relaxed);
  const View* b = back_.load(std::memory_order_relaxed);
  size_t n = sizeof(*this) + entry_bytes_;
  n += sizeof(View) + f->slots.size() * sizeof(uint64_t);
  if (b != nullptr) n += sizeof(View) + b->slots.size() * sizeof(uint64_t);
  return n;
}

std::atomic<uint64_t>* CuckooTable::find_slot(View* v, uint64_t h, const uint8_t* key,
                                              uint32_t key_len) {
  const uint16_t tag = static_cast<uint16_t>(h >> 48);
  const uint32_t buckets[2] = {bucket1(v, h), bucket2(v, h)};
  for (uint32_t b : buckets) {
    for (uint32_t s = 0; s < kSlotsPerBucket; ++s) {
      std::atomic<uint64_t>& w = v->slots[b * kSlotsPerBucket + s];
      const uint64_t word = w.load(std::memory_order_relaxed);
      const Entry* e = word_ptr(word);
      if (e == nullptr || word_tag(word) != tag) continue;
      if (e->hash == h && e->key_len == key_len &&
          std::memcmp(e->key(), key, key_len) == 0)
        return &w;
    }
  }
  return nullptr;
}

bool CuckooTable::place_empty(View* v, uint32_t bucket, uint64_t word) {
  for (uint32_t s = 0; s < kSlotsPerBucket; ++s) {
    std::atomic<uint64_t>& w = v->slots[bucket * kSlotsPerBucket + s];
    if (w.load(std::memory_order_relaxed) == 0) {
      w.store(word, std::memory_order_release);
      return true;
    }
  }
  return false;
}

bool CuckooTable::try_place_empty(View* v, Entry* e) {
  const uint64_t word = pack_word(e);
  return place_empty(v, bucket1(v, e->hash), word) ||
         place_empty(v, bucket2(v, e->hash), word);
}

// Displacement chain with an undo log: each step overwrites one victim slot
// (a release store — the victim is transiently homeless, which is why the
// caller holds the seq guard) and carries the victim to its alternate bucket.
// On exhaustion every overwritten slot is restored, so failure leaves the
// table exactly as it was.
bool CuckooTable::kick_place(View* v, Entry* e) {
  kick_undo_.clear();
  uint64_t cur_word = pack_word(e);
  uint64_t cur_hash = e->hash;
  uint32_t bucket = bucket1(v, cur_hash);
  for (uint32_t i = 0; i < cfg_.max_kicks; ++i) {
    const uint32_t slot = (kick_rr_++) & (kSlotsPerBucket - 1);
    const uint32_t idx = bucket * kSlotsPerBucket + slot;
    const uint64_t vic = v->slots[idx].load(std::memory_order_relaxed);
    if (vic == 0) {  // raced nothing — single writer — but cheap to honor
      v->slots[idx].store(cur_word, std::memory_order_release);
      return true;
    }
    kick_undo_.push_back({idx, vic});
    v->slots[idx].store(cur_word, std::memory_order_release);
    ++kicks_;
    cur_word = vic;
    cur_hash = word_ptr(vic)->hash;
    const uint32_t b1 = bucket1(v, cur_hash);
    const uint32_t b2 = bucket2(v, cur_hash);
    bucket = (bucket == b1) ? b2 : b1;
    if (place_empty(v, bucket, cur_word)) return true;
  }
  for (auto it = kick_undo_.rbegin(); it != kick_undo_.rend(); ++it)
    v->slots[it->idx].store(it->word, std::memory_order_release);
  return false;
}

void CuckooTable::migrate_step(uint32_t max_buckets) {
  View* b = back_.load(std::memory_order_relaxed);
  if (b == nullptr) return;
  View* f = front_.load(std::memory_order_relaxed);
  uint32_t done = 0;
  while (b->migrate_pos < b->n_buckets && done < max_buckets) {
    const uint32_t base = b->migrate_pos * kSlotsPerBucket;
    bool fail = false;
    seq_begin();
    for (uint32_t s = 0; s < kSlotsPerBucket; ++s) {
      const uint64_t w = b->slots[base + s].load(std::memory_order_relaxed);
      Entry* e = word_ptr(w);
      if (e == nullptr) continue;
      if (!place(f, e)) {
        fail = true;
        break;
      }
      b->slots[base + s].store(0, std::memory_order_release);
      ++migrated_;
    }
    seq_end();
    if (fail) {
      // Front cannot absorb the drain: collapse both views into one doubled
      // rebuild (rare — the incremental path normally finishes long before
      // the front refills).
      rebuild_collapse(f->n_buckets * 2);
      return;
    }
    ++b->migrate_pos;
    ++done;
  }
  if (b->migrate_pos >= b->n_buckets) {
    back_.store(nullptr, std::memory_order_release);
    retire_view(b);
  }
}

void CuckooTable::force_drain() {
  while (back_.load(std::memory_order_relaxed) != nullptr)
    migrate_step(cfg_.migrate_per_mutation);
}

void CuckooTable::grow_incremental() {
  ESW_CHECK(back_.load(std::memory_order_relaxed) == nullptr);
  View* f = front_.load(std::memory_order_relaxed);
  View* nf = new View(f->n_buckets * 2, f->salt);
  // Publish back before front: a reader that observes the new (empty) front
  // is guaranteed to observe the old view as back, so the union it probes is
  // always the complete key set.
  back_.store(f, std::memory_order_release);
  front_.store(nf, std::memory_order_release);
  ++grows_;
}

// Private rebuild of the whole key set into one fresh view (reseed when
// same-sized, grow when larger), published with a single front/back swap
// under the seq guard.  Entries are shared — old views retire slot arrays
// only.  Escalates salt, then size, until the scatter fits.
void CuckooTable::rebuild_collapse(uint32_t min_buckets) {
  View* of = front_.load(std::memory_order_relaxed);
  View* ob = back_.load(std::memory_order_relaxed);
  std::vector<Entry*> all;
  all.reserve(size_);
  const View* views[2] = {of, ob};
  for (const View* v : views) {
    if (v == nullptr) continue;
    for (const auto& s : v->slots) {
      Entry* e = word_ptr(s.load(std::memory_order_relaxed));
      if (e != nullptr) all.push_back(e);
    }
  }
  uint32_t buckets = round_pow2(min_buckets);
  uint32_t attempts = 0;
  for (;;) {
    View* nv = new View(buckets, next_salt());
    bool ok = true;
    for (Entry* e : all) {
      if (!place(nv, e)) {
        ok = false;
        break;
      }
    }
    if (ok) {
      seq_begin();
      front_.store(nv, std::memory_order_release);
      back_.store(nullptr, std::memory_order_release);
      seq_end();
      retire_view(of);
      if (ob != nullptr) retire_view(ob);
      return;
    }
    delete nv;
    if (++attempts % 2 == 0) buckets <<= 1;  // every other salt failure, grow
  }
}

void CuckooTable::insert(const uint8_t* key, uint32_t key_len, uint64_t value,
                         uint16_t aux) {
  const uint64_t h = hash_bytes(key, key_len, kHashSeed);
  migrate_step(cfg_.migrate_per_mutation);

  View* f = front_.load(std::memory_order_relaxed);
  View* b = back_.load(std::memory_order_relaxed);

  // Same-key replace: a single slot-word swap, old or new both valid.
  if (std::atomic<uint64_t>* s = find_slot(f, h, key, key_len)) {
    Entry* old = word_ptr(s->load(std::memory_order_relaxed));
    Entry* ne = make_entry(key, key_len, value, aux, h);
    s->store(pack_word(ne), std::memory_order_release);
    retire_entry(old);
    return;
  }
  if (b != nullptr) {
    if (std::atomic<uint64_t>* s = find_slot(b, h, key, key_len)) {
      // Replace of a key still in the draining view: publish the new version
      // in front, then unlink the old — one seq section so a reader probing
      // between the two views re-probes instead of missing.
      Entry* ne = make_entry(key, key_len, value, aux, h);
      seq_begin();
      const bool ok = place(f, ne);
      if (ok) {
        Entry* old = word_ptr(s->load(std::memory_order_relaxed));
        s->store(0, std::memory_order_release);
        seq_end();
        retire_entry(old);
        return;
      }
      seq_end();
      // No room in front even with kicks: collapse, then retry as a plain
      // replace (the collapsed view contains the old version).
      entry_bytes_ -= sizeof(Entry) + ne->key_len;
      free_entry(ne);
      rebuild_collapse(f->n_buckets * 2);
      insert(key, key_len, value, aux);
      return;
    }
  }

  // Fresh key.
  if (static_cast<double>(size_ + 1) >=
      cfg_.grow_load * static_cast<double>(capacity())) {
    force_drain();
    grow_incremental();
  }
  Entry* ne = make_entry(key, key_len, value, aux, h);
  uint32_t attempts = 0;
  for (;;) {
    f = front_.load(std::memory_order_relaxed);
    if (try_place_empty(f, ne)) break;
    seq_begin();
    const bool ok = kick_place(f, ne);
    seq_end();
    if (ok) break;
    // Kicks exhausted: at real load pressure, grow; at low load this is a
    // pathological salt — reseed first, grow if that did not help.
    force_drain();
    const double load = static_cast<double>(size_) / static_cast<double>(capacity());
    if (load >= 0.5 || attempts > 0) {
      grow_incremental();
    } else {
      ++reseeds_;
      rebuild_collapse(f->n_buckets);
    }
    ++attempts;
  }
  ++size_;
}

bool CuckooTable::erase(const uint8_t* key, uint32_t key_len) {
  const uint64_t h = hash_bytes(key, key_len, kHashSeed);
  migrate_step(cfg_.migrate_per_mutation);
  View* f = front_.load(std::memory_order_relaxed);
  std::atomic<uint64_t>* s = find_slot(f, h, key, key_len);
  if (s == nullptr) {
    View* b = back_.load(std::memory_order_relaxed);
    if (b != nullptr) s = find_slot(b, h, key, key_len);
  }
  if (s == nullptr) return false;
  Entry* e = word_ptr(s->load(std::memory_order_relaxed));
  s->store(0, std::memory_order_release);
  retire_entry(e);
  --size_;
  return true;
}

std::optional<CuckooTable::Value> CuckooTable::lookup(const uint8_t* key,
                                                      uint32_t key_len,
                                                      MemTrace* trace) const {
  const uint64_t h = hash_bytes(key, key_len, kHashSeed);
  const uint16_t tag = static_cast<uint16_t>(h >> 48);
  for (;;) {
    const uint64_t s0 = seq_.load(std::memory_order_acquire);
    if (s0 & 1) continue;  // move in flight; writer sections are short
    const View* views[2] = {front_.load(std::memory_order_acquire),
                            back_.load(std::memory_order_acquire)};
    for (const View* v : views) {
      if (v == nullptr) continue;
      const uint32_t buckets[2] = {bucket1(v, h), bucket2(v, h)};
      for (uint32_t b : buckets) {
        const size_t base = static_cast<size_t>(b) * kSlotsPerBucket;
        if (trace != nullptr)
          trace->touch(&v->slots[base], kSlotsPerBucket * sizeof(uint64_t));
        for (uint32_t s = 0; s < kSlotsPerBucket; ++s) {
          const uint64_t word = v->slots[base + s].load(std::memory_order_acquire);
          const Entry* e = word_ptr(word);
          if (e == nullptr || word_tag(word) != tag) continue;
          if (trace != nullptr) trace->touch(e, sizeof(Entry) + e->key_len);
          if (e->hash == h && e->key_len == key_len &&
              std::memcmp(e->key(), key, key_len) == 0)
            return Value{e->value, e->aux};  // hits are self-validating
        }
      }
    }
    // A miss is only believable if no displacement overlapped the probe.
    if (seq_.load(std::memory_order_acquire) == s0) return std::nullopt;
  }
}

uint32_t CuckooTable::lookup_burst(const uint8_t* const* keys, const uint32_t* lens,
                                   uint32_t n, Value* out, bool* hit) const {
  constexpr uint32_t kLane = 16;
  // Rolling pipeline state: three chunks in flight, so every prefetch gets a
  // full chunk's worth of compute (hashing the next chunk, verifying the
  // previous) before its line is consumed — not just the tail of its own
  // chunk's loop.  Per-key cost stays compute-bound even when the table is
  // orders of magnitude past cache.
  struct Chunk {
    uint32_t base = 0, m = 0;
    uint64_t h[kLane];
    uint32_t b1[kLane], b2[kLane];
    const Entry* cand[kLane];
  };
  Chunk ring[3];
  // One view snapshot per burst: every optimistic probe below is against
  // this front; anything it can't prove present goes to the scalar path.
  const View* v = front_.load(std::memory_order_acquire);
  uint32_t hits = 0;

  // Stage 1: hash the chunk and start both candidate buckets' lines.
  const auto stage_hash = [&](Chunk& c, uint32_t base) {
    c.base = base;
    c.m = std::min(kLane, n - base);
    for (uint32_t i = 0; i < c.m; ++i) {
      c.h[i] = hash_bytes(keys[base + i], lens[base + i], kHashSeed);
      const uint64_t hs = mix64(c.h[i] ^ v->salt);
      c.b1[i] = static_cast<uint32_t>(hs) & v->mask;
      c.b2[i] = static_cast<uint32_t>(hs >> 32) & v->mask;
      esw_prefetch(&v->slots[static_cast<size_t>(c.b1[i]) * kSlotsPerBucket]);
      esw_prefetch(&v->slots[static_cast<size_t>(c.b2[i]) * kSlotsPerBucket]);
    }
  };
  // Stage 2: scan the (now-resident) buckets by tag, start the entry blobs.
  const auto stage_scan = [&](Chunk& c) {
    for (uint32_t i = 0; i < c.m; ++i) {
      const uint16_t tag = static_cast<uint16_t>(c.h[i] >> 48);
      c.cand[i] = nullptr;
      for (const uint32_t b : {c.b1[i], c.b2[i]}) {
        const size_t slot0 = static_cast<size_t>(b) * kSlotsPerBucket;
        for (uint32_t s = 0; s < kSlotsPerBucket; ++s) {
          const uint64_t word = v->slots[slot0 + s].load(std::memory_order_acquire);
          const Entry* e = word_ptr(word);
          if (e != nullptr && word_tag(word) == tag) {
            c.cand[i] = e;
            break;
          }
        }
        if (c.cand[i] != nullptr) break;
      }
      if (c.cand[i] != nullptr) esw_prefetch(c.cand[i]);
    }
  };
  // Stage 3: verify the (now-resident) entries; unresolved lanes take the
  // scalar path — the optimistic probe can't distinguish "absent" from
  // "moved under me" (or a first-slot tag collision shadowing the real
  // entry), so the seq-checked lookup() is the authority on misses.
  const auto stage_verify = [&](Chunk& c) {
    for (uint32_t i = 0; i < c.m; ++i) {
      const Entry* e = c.cand[i];
      if (e != nullptr && e->hash == c.h[i] && e->key_len == lens[c.base + i] &&
          std::memcmp(e->key(), keys[c.base + i], lens[c.base + i]) == 0) {
        out[c.base + i] = Value{e->value, e->aux};
        hit[c.base + i] = true;
        ++hits;
        continue;
      }
      const std::optional<Value> r = lookup(keys[c.base + i], lens[c.base + i]);
      hit[c.base + i] = r.has_value();
      if (r.has_value()) {
        out[c.base + i] = *r;
        ++hits;
      }
    }
  };

  const uint32_t n_chunks = (n + kLane - 1) / kLane;
  for (uint32_t k = 0; k < n_chunks + 2; ++k) {
    if (k < n_chunks) stage_hash(ring[k % 3], k * kLane);
    if (k >= 1 && k - 1 < n_chunks) stage_scan(ring[(k - 1) % 3]);
    if (k >= 2) stage_verify(ring[(k - 2) % 3]);
  }
  return hits;
}

}  // namespace esw::cls
