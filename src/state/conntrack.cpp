#include "state/conntrack.hpp"

#include <algorithm>
#include <chrono>

#include "common/check.hpp"
#include "common/failpoint.hpp"
#include "flow/fields.hpp"
#include "netio/packet.hpp"

namespace esw::state {

namespace {

uint32_t round_up_pow2(uint32_t v) {
  uint32_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Locks one or two shard mutexes in index order (deadlock-free); unlocks on
/// destruction.
class ShardLocks {
 public:
  ShardLocks(std::mutex& a, std::mutex& b, bool same) : a_(a), b_(b), same_(same) {
    if (same_) {
      a_.lock();
    } else {
      std::lock(a_, b_);
    }
  }
  ~ShardLocks() {
    a_.unlock();
    if (!same_) b_.unlock();
  }
  ShardLocks(const ShardLocks&) = delete;
  ShardLocks& operator=(const ShardLocks&) = delete;

 private:
  std::mutex& a_;
  std::mutex& b_;
  bool same_;
};

uint8_t tcp_flags_of(const uint8_t* pkt, const proto::ParseInfo& pi) {
  return pi.has(proto::kProtoTcp) ? pkt[pi.l4_off + proto::kTcpFlagsOff] : 0;
}

/// Rendezvous (highest-random-weight) score of backend `i` for a flow hash.
uint64_t hrw_score(uint64_t flow_hash, uint32_t i) {
  uint64_t x = flow_hash ^ (0xA24BAED4963EE407ULL * (i + 1));
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

Conntrack::Conntrack(const CtConfig& cfg, common::EpochDomain* domain)
    : cfg_(cfg), domain_(domain) {
  ESW_CHECK(domain_ != nullptr);
  ESW_CHECK(cfg.capacity <= kMaxCapacity);
  capacity_ = std::max<uint32_t>(cfg.capacity, 2);
  const uint32_t buckets = round_up_pow2(std::max<uint32_t>(kBucketsPerSlot * capacity_, 64));
  bucket_mask_ = buckets - 1;
  shard_shift_ = static_cast<uint32_t>(__builtin_ctz(buckets / kShards));

  slab_ = common::HugeArray<Entry>(capacity_);
  buckets_ = common::HugeArray<std::atomic<uint32_t>>(buckets);
  for (uint32_t i = 0; i < buckets; ++i) buckets_[i].store(kNil, std::memory_order_relaxed);
  shards_ = std::make_unique<Shard[]>(kShards);

  const uint64_t now = now_ms();
  for (uint32_t s = 0; s < kShards; ++s) shards_[s].wheel_cursor_ms = now;

  free_.reserve(capacity_);
  for (uint32_t i = capacity_; i-- > 0;) free_.push_back(i);

  n_profiles_ = std::max<size_t>(cfg.profiles.size(), 1);
  profiles_ = std::make_unique<Profile[]>(n_profiles_);
  for (size_t i = 0; i < cfg.profiles.size(); ++i) {
    const CtProfileConfig& pc = cfg.profiles[i];
    Profile& p = profiles_[i];
    p.kind = pc.kind;
    p.snat_ip = pc.snat_ip;
    p.snat_port_lo = pc.snat_port_lo;
    p.snat_port_hi = std::max(pc.snat_port_hi, pc.snat_port_lo);
    p.backends = pc.backends;
    if (p.backends.size() > 64) p.backends.resize(64);
    p.enabled_mask.store(p.backends.empty()
                             ? 0
                             : (p.backends.size() == 64
                                    ? ~uint64_t{0}
                                    : (uint64_t{1} << p.backends.size()) - 1),
                         std::memory_order_relaxed);
  }
}

Conntrack::~Conntrack() = default;

uint64_t Conntrack::now_ms() const {
  if (cfg_.manual_clock) return manual_now_ms_.load(std::memory_order_relaxed);
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t Conntrack::timeout_ms(const Entry& e) const {
  if (e.orig.proto == proto::kIpProtoTcp) {
    switch (static_cast<TcpState>(e.tcp_state.load(std::memory_order_relaxed))) {
      case TcpState::kSynSent:
      case TcpState::kSynRecv:
        return cfg_.tcp_syn_timeout_ms;
      case TcpState::kEstablished:
      case TcpState::kFinWait:
        return cfg_.tcp_est_timeout_ms;
      default:
        return cfg_.tcp_closed_timeout_ms;
    }
  }
  if (e.orig.proto == proto::kIpProtoIcmp) return cfg_.icmp_timeout_ms;
  return cfg_.udp_timeout_ms;
}

uint32_t Conntrack::state_bits(const Entry& e, uint8_t dir) const {
  uint32_t bits = kCtTracked | (dir != 0 ? kCtReply : 0u);
  if (e.orig.proto != proto::kIpProtoTcp) return bits | kCtEstablished;
  switch (static_cast<TcpState>(e.tcp_state.load(std::memory_order_relaxed))) {
    case TcpState::kSynSent:
    case TcpState::kSynRecv:
      // Committed but mid-handshake: established in the iptables sense (the
      // firewall must admit the SYN-ACK), flagged new for rules that care.
      return bits | kCtEstablished | kCtNew;
    case TcpState::kEstablished:
    case TcpState::kFinWait:
      return bits | kCtEstablished;
    default:
      return bits | kCtInvalid;  // closed/reset: late packets
  }
}

void Conntrack::touch_tcp(Entry& e, uint8_t dir, uint8_t flags) {
  if (e.orig.proto != proto::kIpProtoTcp || flags == 0) return;
  uint8_t cur = e.tcp_state.load(std::memory_order_relaxed);
  for (;;) {
    TcpState next = static_cast<TcpState>(cur);
    if ((flags & proto::kTcpFlagRst) != 0) {
      next = TcpState::kClosed;
    } else {
      switch (static_cast<TcpState>(cur)) {
        case TcpState::kSynSent:
          // Reply-side SYN: plain SYN-ACK or a simultaneous-open bare SYN.
          if (dir == 1 && (flags & proto::kTcpFlagSyn) != 0) next = TcpState::kSynRecv;
          break;
        case TcpState::kSynRecv:
          if ((flags & proto::kTcpFlagAck) != 0 && (flags & proto::kTcpFlagSyn) == 0)
            next = TcpState::kEstablished;
          break;
        case TcpState::kEstablished:
          if ((flags & proto::kTcpFlagFin) != 0) next = TcpState::kFinWait;
          break;
        case TcpState::kFinWait:
          if ((flags & proto::kTcpFlagFin) != 0) next = TcpState::kClosed;
          break;
        default:
          break;
      }
    }
    if (next == static_cast<TcpState>(cur)) return;
    if (e.tcp_state.compare_exchange_weak(cur, static_cast<uint8_t>(next),
                                          std::memory_order_relaxed,
                                          std::memory_order_relaxed))
      return;
  }
}

Conntrack::Entry* Conntrack::lookup(uint32_t b, const FiveTuple& t,
                                    uint8_t* dir_out) const {
  for (uint32_t id = buckets_[b].load(std::memory_order_acquire); id != kNil;) {
    Entry& e = slab_[id >> 1];
    const uint8_t dir = static_cast<uint8_t>(id & 1);
    if ((dir == 0 ? e.orig : e.reply) == t && !e.dead.load(std::memory_order_acquire)) {
      *dir_out = dir;
      return &e;
    }
    id = e.next[dir].load(std::memory_order_acquire);
  }
  return nullptr;
}

void Conntrack::pre_burst(const uint8_t* const* pkts, proto::ParseInfo* pis,
                          uint32_t n, Hit* hits, uint64_t now) {
  ESW_DCHECK(n <= net::kBurstSize);
  uint32_t bucket[net::kBurstSize] = {};

  // Pass 1: extract and hash every tuple; the bucket words (an array far
  // larger than the cache at scale) come in for the whole burst at once.
  for (uint32_t i = 0; i < n; ++i) {
    Hit& hit = hits[i];
    hit = Hit{};
    hit.tuple_valid = extract_tuple(pkts[i], pis[i], &hit.tuple);
    if (!hit.tuple_valid) continue;
    bucket[i] = bucket_of(hash_tuple(hit.tuple));
    esw_prefetch(&buckets_[bucket[i]]);
  }

  // Pass 2: with the bucket words resident, start the head entry's line —
  // its tuples, chain links, `dead` and the state/last-seen words a hit
  // touches all live in that one line, and the head id names the slot with
  // no dependent load.  Prefetch only: a stale head here costs a wasted
  // line, never a wrong answer.
  for (uint32_t i = 0; i < n; ++i) {
    if (!hits[i].tuple_valid) continue;
    const uint32_t id = buckets_[bucket[i]].load(std::memory_order_relaxed);
    if (id != kNil) esw_prefetch(&slab_[id >> 1]);
  }

  // Pass 3: the scalar pre-stage in packet order.  Each walk starts from a
  // fresh head load, so an auto_commit made for packet i is seen by packet
  // j > i exactly as in a packet-at-a-time loop.
  uint64_t lookups = 0;
  uint64_t hit_count = 0;
  for (uint32_t i = 0; i < n; ++i) {
    Hit& hit = hits[i];
    proto::ParseInfo& pi = pis[i];
    if (!hit.tuple_valid) {
      pi.ct_state = 0;
      continue;
    }
    ++lookups;
    const uint8_t flags = tcp_flags_of(pkts[i], pi);
    hit.entry = lookup(bucket[i], hit.tuple, &hit.dir);
    if (hit.entry != nullptr) {
      ++hit_count;
      touch_tcp(*hit.entry, hit.dir, flags);
      hit.entry->last_seen_ms.store(now, std::memory_order_relaxed);
      pi.ct_state = state_bits(*hit.entry, hit.dir);
      continue;
    }
    const bool tcp = hit.tuple.proto == proto::kIpProtoTcp;
    const bool openable = !tcp || (flags & proto::kTcpFlagSyn) != 0 ||
                          cfg_.midstream_pickup;
    if (!openable) {
      pi.ct_state = kCtTracked | kCtInvalid;
      continue;
    }
    pi.ct_state = kCtTracked | kCtNew;
    if (cfg_.auto_commit) hit.entry = commit(hit.tuple, flags, 0, now);
  }
  c_.cells.add({.lookups = lookups, .hits = hit_count, .misses = lookups - hit_count});
}

void Conntrack::post(const Hit& hit, bool commit_requested, uint32_t profile,
                     uint8_t* pkt, proto::ParseInfo& pi, uint64_t now) {
  if (!hit.tuple_valid) return;
  Entry* e = hit.entry;
  uint8_t dir = hit.dir;
  if (e == nullptr && commit_requested) {
    // Invalid-state commits (non-SYN TCP, midstream pickup off) were stamped
    // kCtInvalid in the pre-stage; refuse them here the same way.
    const uint8_t flags = tcp_flags_of(pkt, pi);
    const bool tcp = hit.tuple.proto == proto::kIpProtoTcp;
    if (!tcp || (flags & proto::kTcpFlagSyn) != 0 || cfg_.midstream_pickup) {
      e = commit(hit.tuple, flags, profile, now);
      dir = 0;
    }
  }
  if (e == nullptr || !e->rw_active) return;

  // NAT rewrite: make the egress tuple the reverse of the *other* direction's
  // wire tuple.  store_field maintains IP and L4 checksums incrementally and
  // no-ops on unchanged values.
  const FiveTuple want = (dir == 0 ? e->reply : e->orig).reversed();
  flow::store_field(flow::FieldId::kIpSrc, want.src_ip, pkt, pi);
  flow::store_field(flow::FieldId::kIpDst, want.dst_ip, pkt, pi);
  if (pi.has(proto::kProtoTcp)) {
    flow::store_field(flow::FieldId::kTcpSrc, want.src_port, pkt, pi);
    flow::store_field(flow::FieldId::kTcpDst, want.dst_port, pkt, pi);
  } else if (pi.has(proto::kProtoUdp)) {
    flow::store_field(flow::FieldId::kUdpSrc, want.src_port, pkt, pi);
    flow::store_field(flow::FieldId::kUdpDst, want.dst_port, pkt, pi);
  }
}

bool Conntrack::alloc_slot(uint32_t* slot) {
  std::lock_guard<std::mutex> g(free_lock_);
  if (free_.empty()) return false;
  *slot = free_.back();
  free_.pop_back();
  return true;
}

Conntrack::Entry* Conntrack::commit(const FiveTuple& t, uint8_t flags,
                                    uint32_t profile, uint64_t now) {
  Profile* prof = profile < n_profiles_ ? &profiles_[profile] : &profiles_[0];

  // The `ct.insert` failpoint models an at-capacity table on a healthy one:
  // exactly one accounted forced eviction, then the commit proceeds.
  if (ESW_FAILPOINT("ct.insert")) evict_one(now);

  uint32_t slot = 0;
  if (!alloc_slot(&slot)) {
    // Capacity: force-evict an accounted victim.  Its slot only returns to
    // the freelist after the epoch grace period (a concurrent lookup may
    // still be reading it), so this commit is dropped — accounted, never a
    // crash.  Reclaim in poll() refills the freelist.
    evict_one(now);
    c_.cells.add(&Counts::commit_drops, 1);
    return nullptr;
  }

  Entry& e = slab_[slot];
  e.orig = t;
  e.rw_active = false;
  e.last_seen_ms.store(now, std::memory_order_relaxed);
  if (t.proto == proto::kIpProtoTcp) {
    e.tcp_state.store(static_cast<uint8_t>((flags & proto::kTcpFlagSyn) != 0
                                               ? TcpState::kSynSent
                                               : TcpState::kEstablished),
                      std::memory_order_relaxed);
  } else {
    e.tcp_state.store(static_cast<uint8_t>(TcpState::kNone),
                      std::memory_order_relaxed);
  }

  // Resolve the reply-direction wire tuple from the commit profile; NAT
  // rewrites are derived purely from (orig, reply), no separate state.
  uint32_t port_attempts = 0;
  const uint32_t port_range =
      static_cast<uint32_t>(prof->snat_port_hi - prof->snat_port_lo) + 1;
  for (;;) {
    switch (prof->kind) {
      case CtProfileConfig::Kind::kSnat: {
        const uint32_t off =
            prof->snat_next.fetch_add(1, std::memory_order_relaxed) % port_range;
        const uint16_t nat_port = static_cast<uint16_t>(prof->snat_port_lo + off);
        const FiveTuple post{prof->snat_ip, t.dst_ip, nat_port, t.dst_port, t.proto};
        e.reply = post.reversed();
        e.rw_active = true;
        break;
      }
      case CtProfileConfig::Kind::kLb: {
        const uint64_t mask = prof->enabled_mask.load(std::memory_order_relaxed);
        if (mask == 0 || prof->backends.empty()) {
          free_slot(slot);
          c_.cells.add(&Counts::commit_drops, 1);
          return nullptr;  // no backend up: accounted refusal
        }
        const uint64_t fh = hash_tuple(t);
        uint32_t best = 0;
        uint64_t best_score = 0;
        for (uint32_t i = 0; i < prof->backends.size(); ++i) {
          if ((mask & (uint64_t{1} << i)) == 0) continue;
          const uint64_t score = hrw_score(fh, i);
          if (score >= best_score) {
            best_score = score;
            best = i;
          }
        }
        const auto [bip, bport] = prof->backends[best];
        const FiveTuple post{t.src_ip, bip, t.src_port, bport, t.proto};
        e.reply = post.reversed();
        e.rw_active = true;
        break;
      }
      default:
        e.reply = t.reversed();
        break;
    }

    // Publish under both direction shards' locks (index order).
    const uint32_t b0 = bucket_of(hash_tuple(e.orig));
    const uint32_t b1 = bucket_of(hash_tuple(e.reply));
    const uint32_t s0 = shard_of(b0);
    const uint32_t s1 = shard_of(b1);
    {
      ShardLocks locks(shards_[std::min(s0, s1)].lock, shards_[std::max(s0, s1)].lock,
                       s0 == s1);
      // The duplicate check is the lock-free walk; its acquire loads are
      // more than the held locks need, never less.
      uint8_t dir = 0;
      if (Entry* existing = lookup(b0, e.orig, &dir)) {
        // Another worker committed the same flow first: adopt it.
        free_slot(slot);
        return existing;
      }
      if (lookup(b1, e.reply, &dir) == nullptr) {
        e.shard_pack.store((s0 << 16) | s1, std::memory_order_relaxed);
        e.dead.store(false, std::memory_order_relaxed);
        for (uint32_t d = 0; d < 2; ++d) {
          std::atomic<uint32_t>& head = buckets_[d == 0 ? b0 : b1];
          e.next[d].store(head.load(std::memory_order_relaxed), std::memory_order_relaxed);
          head.store((slot << 1) | d, std::memory_order_release);
        }
        wheel_insert_locked(shards_[s0], slot, e.gen.load(std::memory_order_relaxed),
                            now + timeout_ms(e), now);
        c_.cells.add(&Counts::commits, 1);
        c_.live.fetch_add(1, std::memory_order_relaxed);
        return &e;
      }
      // The reply tuple is taken (an SNAT port collision): retry the next port.
    }
    if (prof->kind != CtProfileConfig::Kind::kSnat ||
        ++port_attempts >= std::min<uint32_t>(port_range, 64)) {
      free_slot(slot);
      c_.cells.add({.commit_drops = 1, .nat_port_exhausted = 1});
      return nullptr;
    }
  }
}

void Conntrack::free_slot(uint32_t slot) {
  std::lock_guard<std::mutex> g(free_lock_);
  free_.push_back(slot);
}

void Conntrack::unlink_locked(uint32_t slot) {
  Entry& e = slab_[slot];
  for (uint32_t d = 0; d < 2; ++d) {
    const uint32_t self = (slot << 1) | d;
    std::atomic<uint32_t>* pp = &buckets_[bucket_of(hash_tuple(d == 0 ? e.orig : e.reply))];
    for (uint32_t id = pp->load(std::memory_order_relaxed); id != kNil;
         id = pp->load(std::memory_order_relaxed)) {
      if (id == self) {
        pp->store(e.next[d].load(std::memory_order_relaxed), std::memory_order_release);
        break;
      }
      pp = &slab_[id >> 1].next[id & 1];
    }
  }
}

bool Conntrack::remove_entry(uint32_t slot, uint32_t gen, bool expire_check,
                             uint64_t now) {
  Entry& e = slab_[slot];
  // Candidate paths must not read the (plain) tuples before validating the
  // incarnation: pick locks from the atomic shard pack, lock, re-validate.
  for (int attempt = 0; attempt < 4; ++attempt) {
    const uint32_t pack = e.shard_pack.load(std::memory_order_acquire);
    const uint32_t s0 = pack >> 16;
    const uint32_t s1 = pack & 0xFFFF;
    if (s0 >= kShards || s1 >= kShards) return false;
    ShardLocks locks(shards_[std::min(s0, s1)].lock, shards_[std::max(s0, s1)].lock,
                     s0 == s1);
    if (e.gen.load(std::memory_order_relaxed) != gen ||
        e.dead.load(std::memory_order_relaxed))
      return false;
    if (e.shard_pack.load(std::memory_order_relaxed) != pack) continue;  // re-pick

    if (expire_check) {
      const uint64_t deadline =
          e.last_seen_ms.load(std::memory_order_relaxed) + timeout_ms(e);
      if (deadline > now) {
        // Saw traffic since scheduling: push the wheel item out to the
        // refreshed deadline instead of expiring.
        wheel_insert_locked(shards_[s0], slot, gen, deadline, now);
        return false;
      }
    }

    unlink_locked(slot);
    e.dead.store(true, std::memory_order_release);
    const uint64_t stamp = domain_->current_epoch();
    shards_[s0].retired.retire(slot, stamp);
    domain_->advance();
    c_.live.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool Conntrack::evict_one(uint64_t now) {
  for (uint32_t probe = 0; probe < kEvictProbes; ++probe) {
    const uint32_t slot =
        evict_cursor_.fetch_add(1, std::memory_order_relaxed) % capacity_;
    Entry& e = slab_[slot];
    if (e.dead.load(std::memory_order_relaxed)) continue;
    const uint32_t gen = e.gen.load(std::memory_order_relaxed);
    if (remove_entry(slot, gen, /*expire_check=*/false, now)) {
      c_.cells.add(&Counts::evictions_forced, 1);
      return true;
    }
  }
  return false;
}

void Conntrack::wheel_insert_locked(Shard& s, uint32_t slot, uint32_t gen,
                                    uint64_t due_ms, uint64_t now) {
  (void)now;
  const uint64_t slot_ms = uint64_t{1} << kWheelShift;
  const uint64_t lo = s.wheel_cursor_ms + slot_ms;
  const uint64_t hi = s.wheel_cursor_ms + (uint64_t{kWheelSlots - 1} << kWheelShift);
  const uint64_t due = std::min(std::max(due_ms, lo), hi);
  s.wheel[(due >> kWheelShift) % kWheelSlots].push_back({slot, gen, due_ms});
}

void Conntrack::reclaim_locked(Shard& s) {
  const uint64_t horizon = domain_->min_observed();
  // One free_lock_ acquisition, taken at the first reclaimable slot; free_
  // has capacity_ slots reserved, so the pushes never allocate.
  std::unique_lock<std::mutex> g(free_lock_, std::defer_lock);
  s.retired.reclaim_into(horizon, [&](uint32_t slot) {
    // Bump the generation before the slot becomes allocatable: stale wheel
    // items and eviction candidates detect the reuse.
    slab_[slot].gen.fetch_add(1, std::memory_order_release);
    if (!g.owns_lock()) g.lock();
    free_.push_back(slot);
  });
}

void Conntrack::poll(uint64_t now) {
  const uint32_t si =
      poll_cursor_.fetch_add(1, std::memory_order_relaxed) % kShards;
  Shard& s = shards_[si];
  std::vector<WheelItem> due;
  {
    std::lock_guard<std::mutex> g(s.lock);
    reclaim_locked(s);
    const uint64_t slot_ms = uint64_t{1} << kWheelShift;
    uint32_t advanced = 0;
    while (s.wheel_cursor_ms + slot_ms <= now && advanced < kWheelSlots &&
           due.size() < kPollBudget) {
      s.wheel_cursor_ms += slot_ms;
      auto& v = s.wheel[(s.wheel_cursor_ms >> kWheelShift) % kWheelSlots];
      if (!v.empty()) {
        // Borrow the shard's buffer, so a due slot costs no allocation.
        if (due.capacity() == 0) due.swap(s.due_spare);
        due.insert(due.end(), v.begin(), v.end());
        v.clear();
      }
      ++advanced;
    }
    // A long idle gap: after one full rotation every slot drained, so the
    // wheel is empty — jump the cursor instead of looping seconds at a time.
    if (advanced == kWheelSlots && s.wheel_cursor_ms + slot_ms <= now)
      s.wheel_cursor_ms = now;
  }
  if (due.empty()) return;
  for (const WheelItem& it : due)
    if (remove_entry(it.slot, it.gen, /*expire_check=*/true, now))
      c_.cells.add(&Counts::expired, 1);
  // Hand the (larger) buffer back.
  due.clear();
  std::lock_guard<std::mutex> g(s.lock);
  if (s.due_spare.capacity() < due.capacity()) s.due_spare.swap(due);
}

void Conntrack::set_backend_enabled(uint32_t profile, uint32_t backend, bool enabled) {
  if (profile >= n_profiles_) return;
  Profile& p = profiles_[profile];
  if (backend >= p.backends.size()) return;
  const uint64_t bit = uint64_t{1} << backend;
  if (enabled)
    p.enabled_mask.fetch_or(bit, std::memory_order_relaxed);
  else
    p.enabled_mask.fetch_and(~bit, std::memory_order_relaxed);
}

Conntrack::Entry* Conntrack::find(const FiveTuple& t, uint8_t* dir_out) {
  uint8_t dir = 0;
  Entry* e = lookup(bucket_of(hash_tuple(t)), t, &dir);
  if (e != nullptr && dir_out != nullptr) *dir_out = dir;
  return e;
}

void Conntrack::flush_reclaim() {
  for (uint32_t i = 0; i < kShards; ++i) {
    std::lock_guard<std::mutex> g(shards_[i].lock);
    reclaim_locked(shards_[i]);
  }
}

Conntrack::Stats Conntrack::stats() const {
  Stats s;
  static_cast<Counts&>(s) = c_.cells.load();
  const int64_t live = c_.live.load(std::memory_order_relaxed);
  s.live = live > 0 ? static_cast<uint64_t>(live) : 0;
  for (uint32_t i = 0; i < kShards; ++i) {
    std::lock_guard<std::mutex> g(shards_[i].lock);
    s.retire_pending += shards_[i].retired.pending();
    s.retired_total += shards_[i].retired.retired_total();
    s.reclaimed_total += shards_[i].retired.reclaimed_total();
  }
  return s;
}

}  // namespace esw::state
