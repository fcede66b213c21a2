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

CuckooTable::CuckooTable(uint32_t initial_buckets) : salt_(kSaltSeed) {
  view_.store(new View(round_pow2(initial_buckets), next_salt()), std::memory_order_release);
}

CuckooTable::~CuckooTable() {
  // Destruction implies no live readers: free entries from the live view
  // (each live entry sits in exactly one of its slots at API boundaries).
  // Retired entries and views belong to the domain's queue.
  View* v = view_.load(std::memory_order_relaxed);
  for (auto& s : v->slots) delete word_ptr(s.load(std::memory_order_relaxed));
  delete v;
}

uint64_t CuckooTable::pack_word(const Entry* e) {
  const uint64_t p = reinterpret_cast<uint64_t>(e);
  ESW_CHECK_MSG((p >> 48) == 0, "entry pointer exceeds 48 bits");
  return p | (e->hash >> 48 << 48);
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
  std::unique_ptr<Entry> gone(e);
  if (domain_ != nullptr) domain_->retire(std::move(gone));
}

void CuckooTable::retire_view(View* v) {
  std::unique_ptr<View> gone(v);
  if (domain_ != nullptr) domain_->retire(std::move(gone));
}

size_t CuckooTable::memory_bytes() const {
  const View* v = view_.load(std::memory_order_relaxed);
  return sizeof(*this) + entry_bytes_ + sizeof(View) + v->slots.size() * sizeof(uint64_t);
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
  for (uint32_t i = 0; i < kMaxKicks; ++i) {
    const uint32_t slot = (kick_rr_++) & (kSlotsPerBucket - 1);
    const uint32_t idx = bucket * kSlotsPerBucket + slot;
    const uint64_t vic = v->slots[idx].load(std::memory_order_relaxed);
    if (vic == 0) {  // raced nothing — single writer — but cheap to honor
      v->slots[idx].store(cur_word, std::memory_order_release);
      return true;
    }
    kick_undo_.push_back({idx, vic});
    v->slots[idx].store(cur_word, std::memory_order_release);
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

// Private rebuild of the whole key set into one fresh view of at least
// `min_buckets` (a grow when larger, a reseed when the same size), published
// with a single view swap under the seq guard.  Entries are shared: only
// slot words are written, and the old view retires its slot array alone.
// Escalates salt, then size, until the scatter fits.
void CuckooTable::rebuild(uint32_t min_buckets) {
  View* old = view_.load(std::memory_order_relaxed);
  std::vector<Entry*> all;
  all.reserve(size_);
  for (const auto& s : old->slots) {
    Entry* e = word_ptr(s.load(std::memory_order_relaxed));
    if (e != nullptr) all.push_back(e);
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
      view_.store(nv, std::memory_order_release);
      seq_end();
      if (buckets > old->n_buckets)
        ++grows_;
      else
        ++reseeds_;
      retire_view(old);
      return;
    }
    delete nv;
    if (++attempts % 2 == 0) buckets <<= 1;  // every other salt failure, grow
  }
}

void CuckooTable::insert(const uint8_t* key, uint32_t key_len, uint64_t value,
                         uint16_t aux) {
  const uint64_t h = hash_bytes(key, key_len, kHashSeed);

  // Same-key replace: a single slot-word swap, old or new both valid.
  if (std::atomic<uint64_t>* s = find_slot(view_.load(std::memory_order_relaxed), h, key,
                                           key_len)) {
    Entry* old = word_ptr(s->load(std::memory_order_relaxed));
    Entry* ne = make_entry(key, key_len, value, aux, h);
    s->store(pack_word(ne), std::memory_order_release);
    retire_entry(old);
    return;
  }

  // Fresh key.
  if (static_cast<double>(size_ + 1) >= kGrowLoad * static_cast<double>(capacity()))
    rebuild(view_.load(std::memory_order_relaxed)->n_buckets * 2);
  Entry* ne = make_entry(key, key_len, value, aux, h);
  for (uint32_t attempts = 0;; ++attempts) {
    View* v = view_.load(std::memory_order_relaxed);
    if (try_place_empty(v, ne)) break;
    seq_begin();
    const bool ok = kick_place(v, ne);
    seq_end();
    if (ok) break;
    // Kicks exhausted: at real load pressure, grow; at low load this is a
    // pathological salt — reseed first, grow if that did not help.
    const double load = static_cast<double>(size_) / static_cast<double>(capacity());
    rebuild(load >= 0.5 || attempts > 0 ? v->n_buckets * 2 : v->n_buckets);
  }
  ++size_;
}

bool CuckooTable::erase(const uint8_t* key, uint32_t key_len) {
  const uint64_t h = hash_bytes(key, key_len, kHashSeed);
  std::atomic<uint64_t>* s =
      find_slot(view_.load(std::memory_order_relaxed), h, key, key_len);
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
    const View* v = view_.load(std::memory_order_acquire);
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
    // A miss is only believable if no displacement or swap overlapped the
    // probe.
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
  // it; anything it can't prove present goes to the scalar path.
  const View* v = view_.load(std::memory_order_acquire);
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
