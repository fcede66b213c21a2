// Conntrack — the sharded stateful connection layer.
//
// A bounded slab of dual-keyed connection entries behind a lock-free-read
// hash table: each entry is linked into the bucket of its `orig` tuple AND
// the bucket of its `reply` tuple, so one lookup on the packet's wire tuple
// finds the connection in either direction, NAT or not.  Buckets are grouped
// into shards; mutation (insert/unlink) takes the affected shard locks in
// index order, lookups walk acquire-published chain links with no lock.
//
// Layout: one connection is one 64-byte, line-aligned slab entry holding
// both tuples, both chain links and every per-packet word, so a hit at the
// head of its chain touches one bucket word and one entry line.  Chain links are 32-bit ids,
// (slot << 1) | dir, so the entry and the direction a link keys on follow
// from the id alone.  Bucket heads are ids too, two buckets per slot (one per
// linked tuple), so a full table averages one link per bucket.  The slab and
// the bucket array are sized once, at construction, and sit on 2 MB pages
// when they are 2 MB or more (common/huge_array.hpp), so the bucket word and
// the entry line of a lookup rarely add a page walk to their cache misses.
//
// Lifetime follows the datapath's QSBR discipline (common/epoch.hpp): an
// unlinked entry is stamped with the current epoch, parked on its home
// shard's retire list, and its slab slot returns to the freelist only once
// every registered worker has ticked past the stamp — so a concurrent
// lookup can keep reading a just-removed entry's fields safely.  Slot reuse
// bumps a generation counter, which lets expiry-wheel items and eviction
// candidates (slot, gen) pairs detect staleness without pinning memory.
//
// Expiry is a per-shard lazy timeout wheel (64 slots x ~1s) drained by
// poll(): the datapath calls poll() once per burst chunk, each call advancing
// one shard's wheel cursor to the clock.  The kPollBudget item cap is checked
// only between wheel slots, so one call drains whole ~1s slots (at least one
// when due) — amortized across shards and seconds, but not bounded per call
// (docs/STATEFUL.md "Time and expiry").  Wheel items whose entry saw traffic
// are re-inserted at the refreshed deadline rather than expired.
//
// The pre-stage runs a burst at a time (pre_burst): hash every tuple and
// prefetch its bucket word, then load each bucket head and prefetch its
// entry's line, then walk in packet order from a fresh head load so a
// commit made for an earlier packet of the burst is seen by later ones.
// Lookup/hit/miss counts are flushed once per burst, so they are exact at
// burst boundaries.
//
// Degradation policy (docs/STATEFUL.md): commit at capacity force-evicts one
// accounted victim (`evictions_forced`); when no victim can be found the
// commit is dropped (`commit_drops`).  The `ct.insert` failpoint forces the
// at-capacity path on a healthy table — exactly one accounted eviction per
// fire.  Nothing in this layer throws on the packet path and nothing
// crashes at exhaustion.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/counters.hpp"
#include "common/epoch.hpp"
#include "common/huge_array.hpp"
#include "state/ct_config.hpp"
#include "state/fivetuple.hpp"

namespace esw::state {

/// ct_state bits stamped into ParseInfo::ct_state by the datapath pre-stage;
/// matchable in the DSL as `ct_state=VALUE/MASK`.
enum CtStateBits : uint32_t {
  kCtTracked = 1u << 0,      // pre-stage ran over a trackable (IPv4) packet
  kCtNew = 1u << 1,          // no committed entry yet / handshake in progress
  kCtEstablished = 1u << 2,  // packet belongs to a committed connection
  kCtReply = 1u << 3,        // reply direction of that connection
  kCtInvalid = 1u << 4,      // e.g. non-SYN TCP with no entry, midstream off
};

/// Compact TCP connection state (UDP/ICMP entries stay kNone).
enum class TcpState : uint8_t {
  kNone = 0,
  kSynSent,      // orig SYN seen (or committed)
  kSynRecv,      // reply SYN(+ACK) seen — simultaneous open lands here too
  kEstablished,  // three-way handshake completed (or midstream pickup)
  kFinWait,      // first FIN seen
  kClosed,       // FIN exchange completed or RST
};

class Conntrack {
 public:
  /// Ends a chain.  Link ids are (slot << 1) | dir, so kNil is never one.
  static constexpr uint32_t kNil = ~0u;
  /// Largest CtConfig::capacity: slot ids need 31 bits and the 2x bucket
  /// array's size must fit a uint32_t.
  static constexpr uint32_t kMaxCapacity = 1u << 30;

  /// One connection, one cache line.  The tuples are plain: written before
  /// the entry's link ids are release-published, immutable while linked.
  struct alignas(64) Entry {
    FiveTuple orig;   // committing direction's wire tuple (pre-NAT)
    FiveTuple reply;  // reply direction's wire tuple (post-NAT)
    /// Chain links, one per direction: next[d] continues the chain of the
    /// bucket this entry's direction-d tuple hashes to (a link id or kNil).
    std::atomic<uint32_t> next[2] = {kNil, kNil};
    std::atomic<uint64_t> last_seen_ms{0};
    // Control fields guarded by shard locks (see dead/gen contract below).
    std::atomic<uint32_t> gen{0};      // bumped when the slot returns to the freelist
    /// (shard0 << 16) | shard1 of the current incarnation, written at insert
    /// under both locks.  Candidate paths (eviction scan, wheel items) read
    /// this — never the plain tuples — to decide which locks to take, then
    /// re-validate gen and the pack after locking.
    std::atomic<uint32_t> shard_pack{0};
    std::atomic<uint8_t> tcp_state{0};
    std::atomic<bool> dead{true};      // write under both shard locks; read anywhere
    bool rw_active = false;  // reply != orig.reversed(): apply NAT rewrites
  };
  static_assert(sizeof(Entry) == 64 && alignof(Entry) == 64);

  /// Pre-stage result, threaded to the post-stage by the datapath.
  struct Hit {
    Entry* entry = nullptr;
    uint8_t dir = 0;
    bool tuple_valid = false;
    FiveTuple tuple;
  };

  /// The monotone counters: cumulative and relaxed.
  struct Counts {
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t commits = 0;            // entries created
    uint64_t commit_drops = 0;       // commit failed, accounted (degradation)
    uint64_t evictions_forced = 0;   // capacity- or failpoint-forced evictions
    uint64_t expired = 0;            // timeout-wheel removals
    uint64_t nat_port_exhausted = 0; // SNAT allocation gave up (accounted)
  };

  /// stats() snapshots the counts, the live entry count and the retire lists.
  struct Stats : Counts {
    uint64_t live = 0;               // current entry count
    uint64_t retire_pending = 0;     // unlinked, awaiting epoch grace
    uint64_t retired_total = 0;
    uint64_t reclaimed_total = 0;
  };

  Conntrack(const CtConfig& cfg, common::EpochDomain* domain);
  ~Conntrack();

  Conntrack(const Conntrack&) = delete;
  Conntrack& operator=(const Conntrack&) = delete;

  /// Pre-stage over a burst (n <= net::kBurstSize): lookup, TCP state
  /// transition, ct_state stamp, last-seen touch and auto_commit for each
  /// packet, in packet order.  Lock-free reads; safe from any worker.  Of
  /// its arguments, writes only pis[i].ct_state and hits[i].
  void pre_burst(const uint8_t* const* pkts, proto::ParseInfo* pis, uint32_t n,
                 Hit* hits, uint64_t now_ms);

  /// Single-packet pre-stage: pre_burst over a burst of one.
  Hit pre(const uint8_t* pkt, proto::ParseInfo& pi, uint64_t now_ms) {
    Hit hit;
    pre_burst(&pkt, &pi, 1, &hit, now_ms);
    return hit;
  }

  /// Post-stage: commit if requested (or auto_commit) and the pre-stage
  /// missed, then apply the entry's NAT rewrite to the packet (checksums
  /// maintained via flow::store_field).  Safe from any worker.
  void post(const Hit& hit, bool commit_requested, uint32_t profile,
            uint8_t* pkt, proto::ParseInfo& pi, uint64_t now_ms);

  /// Amortized maintenance: advances one shard's timeout wheel (round-robin)
  /// to `now_ms`, expiring what is due, and reclaims that shard's
  /// grace-expired retirees.  kPollBudget is checked only between wheel
  /// slots, so a call drains at least one whole due slot.  The datapath
  /// calls this once per burst chunk at a quiescent point.
  void poll(uint64_t now_ms);

  /// Wall clock for the packet path; manual mode reads the test-driven value.
  uint64_t now_ms() const;
  void set_now_ms(uint64_t ms) { manual_now_ms_.store(ms, std::memory_order_relaxed); }

  /// Runtime LB backend churn: atomically enable/disable a backend of an LB
  /// profile.  Existing connections keep their affinity (entry tuples are
  /// immutable); only new commits see the change.
  void set_backend_enabled(uint32_t profile, uint32_t backend, bool enabled);

  Stats stats() const;
  const CtConfig& config() const { return cfg_; }
  uint32_t capacity() const { return capacity_; }

  /// Direct lookup for tests/examples (lock-free, no stamping).
  Entry* find(const FiveTuple& t, uint8_t* dir_out = nullptr);

  /// Drains every shard's wheel and retire list as far as the epoch horizon
  /// allows (control side; used by teardown-order tests).
  void flush_reclaim();

 private:
  struct WheelItem {
    uint32_t slot;
    uint32_t gen;
    uint64_t due_ms;
  };

  static constexpr uint32_t kWheelSlots = 64;
  static constexpr uint32_t kWheelShift = 10;  // ~1s granularity
  static constexpr uint32_t kPollBudget = 128;
  static constexpr uint32_t kEvictProbes = 64;
  /// Hash shards: mutation locks are per shard, lookups are lock-free.
  /// Buckets number at least 64, so every shard owns a contiguous run of
  /// four or more.
  static constexpr uint32_t kShards = 16;

  struct alignas(64) Shard {
    std::mutex lock;
    std::vector<WheelItem> wheel[kWheelSlots];
    uint64_t wheel_cursor_ms = 0;
    /// poll()'s due-list buffer, lent out and returned under `lock`.
    std::vector<WheelItem> due_spare;
    common::RetireList<uint32_t> retired;  // slab slot indices
  };

  /// Buckets per slab slot: each slot links two tuples, so a full table
  /// averages one link per bucket, for 8 bytes of heads per slot.
  static constexpr uint32_t kBucketsPerSlot = 2;

  uint32_t bucket_of(uint64_t h) const { return static_cast<uint32_t>(h) & bucket_mask_; }
  uint32_t shard_of(uint32_t bucket) const { return bucket >> shard_shift_; }

  /// Lock-free walk of bucket `b` from a fresh acquire load of its head:
  /// the live entry keyed on `t` (its direction in *dir_out), or nullptr.
  Entry* lookup(uint32_t b, const FiveTuple& t, uint8_t* dir_out) const;

  uint64_t timeout_ms(const Entry& e) const;
  uint32_t state_bits(const Entry& e, uint8_t dir) const;
  void touch_tcp(Entry& e, uint8_t dir, uint8_t flags);

  Entry* commit(const FiveTuple& t, uint8_t flags, uint32_t profile, uint64_t now_ms);
  bool alloc_slot(uint32_t* slot);
  void free_slot(uint32_t slot);
  /// Unlinks + retires `slot` if its generation still matches and the entry
  /// is alive; `expire_check` additionally requires the idle deadline to
  /// have passed.  Takes both of the entry's shard locks in index order.
  bool remove_entry(uint32_t slot, uint32_t gen, bool expire_check, uint64_t now_ms);
  void unlink_locked(uint32_t slot);
  void wheel_insert_locked(Shard& s, uint32_t slot, uint32_t gen, uint64_t due_ms,
                           uint64_t now_ms);
  bool evict_one(uint64_t now_ms);
  void reclaim_locked(Shard& s);

  CtConfig cfg_;
  common::EpochDomain* domain_;
  uint32_t capacity_;
  uint32_t bucket_mask_;   // buckets - 1 (power of two)
  uint32_t shard_shift_;   // bucket index -> shard index

  common::HugeArray<Entry> slab_;
  common::HugeArray<std::atomic<uint32_t>> buckets_;  // head link id or kNil
  std::unique_ptr<Shard[]> shards_;

  std::mutex free_lock_;
  std::vector<uint32_t> free_;

  /// Runtime half of CtProfileConfig (atomic cursors/masks live here).
  struct Profile {
    CtProfileConfig::Kind kind = CtProfileConfig::Kind::kNone;
    uint32_t snat_ip = 0;
    uint16_t snat_port_lo = 0;
    uint16_t snat_port_hi = 0;
    std::atomic<uint32_t> snat_next{0};
    std::vector<std::pair<uint32_t, uint16_t>> backends;
    std::atomic<uint64_t> enabled_mask{0};
  };
  // Fixed slab (atomics are immovable, so no vector).
  std::unique_ptr<Profile[]> profiles_;
  size_t n_profiles_ = 0;

  std::atomic<uint32_t> poll_cursor_{0};
  std::atomic<uint32_t> evict_cursor_{0};
  std::atomic<uint64_t> manual_now_ms_{1};

  // Own cache line(s): packet workers flush lookups/hits/misses once per
  // burst here, apart from the per-chunk poll/evict cursors above.  `live`
  // stays an exact signed count beside the cells: commits == live + expired
  // + evictions_forced is a conservation check, not a derivation.
  struct alignas(64) Counters {
    common::CounterCells<Counts> cells;
    std::atomic<int64_t> live{0};
  };
  mutable Counters c_;
};

}  // namespace esw::state
