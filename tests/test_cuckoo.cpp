// The exact-match control plane: the resizable reader-safe cuckoo table
// (cls level), the cuckoo template's sizing, bulk probe and selection inside
// Eswitch, and the once-per-batch recompile/fusion schedule it feeds.
//
// Scale knob: ESW_CUCKOO_CHURN_KEYS sets the churn test's target entry count
// (default 200'000; the CI TSan leg runs it at 1'000'000 under 4 readers).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cls/cuckoo.hpp"
#include "common/epoch.hpp"
#include "common/rng.hpp"
#include "core/compiler.hpp"
#include "core/eswitch.hpp"
#include "test_util.hpp"
#include "testing/seed.hpp"

namespace esw {
namespace {

using namespace esw::core;
using namespace esw::flow;
using cls::CuckooTable;
using test::make_packet;

std::string key_of(uint64_t x, uint32_t len = 8) {
  std::string k(len, '\0');
  std::memcpy(k.data(), &x, std::min<uint32_t>(len, 8));
  return k;
}

const uint8_t* bytes(const std::string& s) {
  return reinterpret_cast<const uint8_t*>(s.data());
}

// The value a reader expects for key `x` — derived, so readers verify hits
// without any shared reference structure.
uint64_t value_of(uint64_t x) { return mix64(x ^ 0xE511ULL); }

TEST(Cuckoo, InsertLookupEraseReplace) {
  CuckooTable t;
  const auto k1 = key_of(111), k2 = key_of(222);
  EXPECT_FALSE(t.lookup(bytes(k1), 8).has_value());
  t.insert(bytes(k1), 8, 1, 10);
  t.insert(bytes(k2), 8, 2, 20);
  EXPECT_EQ(t.size(), 2u);
  auto v1 = t.lookup(bytes(k1), 8);
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(v1->value, 1u);
  EXPECT_EQ(v1->aux, 10u);

  t.insert(bytes(k1), 8, 99, 11);  // same-key replace: single-word swap
  v1 = t.lookup(bytes(k1), 8);
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(v1->value, 99u);
  EXPECT_EQ(v1->aux, 11u);
  EXPECT_EQ(t.size(), 2u);

  EXPECT_TRUE(t.erase(bytes(k1), 8));
  EXPECT_FALSE(t.erase(bytes(k1), 8));
  EXPECT_FALSE(t.lookup(bytes(k1), 8).has_value());
  ASSERT_TRUE(t.lookup(bytes(k2), 8).has_value());
  EXPECT_EQ(t.lookup(bytes(k2), 8)->value, 2u);

  // A traced hit reports the bucket and entry lines it touched (the cache
  // model's input).
  MemTrace trace;
  ASSERT_TRUE(t.lookup(bytes(k2), 8, &trace).has_value());
  EXPECT_GE(trace.lines().size(), 2u);
}

TEST(Cuckoo, DistinguishesKeyLengths) {
  CuckooTable t;
  const std::string a("\x01\x02", 2), b("\x01\x02\x00", 3);
  t.insert(bytes(a), 2, 1);
  t.insert(bytes(b), 3, 2);
  ASSERT_TRUE(t.lookup(bytes(a), 2).has_value());
  EXPECT_EQ(t.lookup(bytes(a), 2)->value, 1u);
  ASSERT_TRUE(t.lookup(bytes(b), 3).has_value());
  EXPECT_EQ(t.lookup(bytes(b), 3)->value, 2u);
}

TEST(Cuckoo, ChurnMatchesReference) {
  const uint64_t seed = testing::test_seed(0xC0C0ACULL, "cuckoo reference churn");
  CuckooTable t(4);  // every grow and reseed path exercised
  Rng rng(seed);
  std::unordered_map<uint64_t, uint64_t> ref;
  for (int op = 0; op < 60000; ++op) {
    const uint64_t k = rng.below(3000);  // small key space: heavy churn
    const auto key = key_of(k, 4 + (k % 9));  // lengths 4..12
    if (rng.chance(1, 3) && !ref.empty()) {
      const bool had = ref.erase(k) > 0;
      EXPECT_EQ(t.erase(bytes(key), 4 + static_cast<uint32_t>(k % 9)), had);
    } else {
      const uint64_t v = rng.below(1'000'000);
      ref[k] = v;
      t.insert(bytes(key), 4 + static_cast<uint32_t>(k % 9), v);
    }
  }
  EXPECT_EQ(t.size(), ref.size());
  for (const auto& [k, v] : ref) {
    const auto key = key_of(k, 4 + (k % 9));
    const auto got = t.lookup(bytes(key), 4 + static_cast<uint32_t>(k % 9));
    ASSERT_TRUE(got.has_value()) << k;
    ASSERT_EQ(got->value, v) << k;
  }
  for (uint64_t k = 0; k < 3000; ++k) {
    if (ref.count(k)) continue;
    const auto key = key_of(k, 4 + (k % 9));
    ASSERT_FALSE(t.lookup(bytes(key), 4 + static_cast<uint32_t>(k % 9)).has_value())
        << k;
  }
  EXPECT_GT(t.grows(), 0u);
}

TEST(Cuckoo, BurstLookupMatchesScalar) {
  const uint64_t seed = testing::test_seed(0xB0057ULL, "cuckoo burst parity");
  CuckooTable t(4);
  Rng rng(seed);
  std::vector<std::string> keys;
  for (uint64_t x = 0; x < 3000; ++x) {
    keys.push_back(key_of(x, 4 + static_cast<uint32_t>(x % 9)));
    t.insert(bytes(keys.back()), static_cast<uint32_t>(keys.back().size()),
             value_of(x));
    if (x % 64 != 0) continue;
    // Mixed present/absent probe burst mid-growth: element-wise identical
    // to scalar lookups.
    constexpr uint32_t kN = 96;
    std::vector<std::string> probe;
    std::vector<const uint8_t*> ptrs(kN);
    std::vector<uint32_t> lens(kN);
    std::vector<CuckooTable::Value> vals(kN);
    bool hits[kN];
    for (uint32_t i = 0; i < kN; ++i) {
      const uint64_t px = rng.below(2 * (x + 1));  // ~half absent
      probe.push_back(key_of(px, 4 + static_cast<uint32_t>(px % 9)));
    }
    for (uint32_t i = 0; i < kN; ++i) {
      ptrs[i] = bytes(probe[i]);
      lens[i] = static_cast<uint32_t>(probe[i].size());
    }
    const uint32_t n_hits = t.lookup_burst(ptrs.data(), lens.data(), kN,
                                           vals.data(), hits);
    uint32_t expect_hits = 0;
    for (uint32_t i = 0; i < kN; ++i) {
      const auto scalar = t.lookup(ptrs[i], lens[i]);
      ASSERT_EQ(hits[i], scalar.has_value()) << "probe " << i << " at x=" << x;
      if (scalar.has_value()) {
        ++expect_hits;
        EXPECT_EQ(vals[i].value, scalar->value);
      }
    }
    EXPECT_EQ(n_hits, expect_hits);
  }
}

TEST(Cuckoo, GrowOldOrNewVisibility) {
  // Two reader threads probe every published key while the writer grows a
  // 4-bucket table to 64K keys through every rebuild swap, with epoch
  // retirement live: a reader holding the old view or the new one must find
  // every key published before its probe.  After each swap the writer checks
  // every key itself.
  const uint64_t seed = testing::test_seed(0x6E0ULL, "cuckoo grow visibility");
  constexpr uint64_t kKeys = 1 << 16;
  common::EpochDomain domain;
  CuckooTable t(4);
  t.set_domain(&domain);

  constexpr int kReaders = 2;
  common::EpochDomain::WorkerSlot* slots[kReaders];
  for (auto& slot : slots) {
    slot = domain.register_worker();
    ASSERT_NE(slot, nullptr);
  }
  std::atomic<uint64_t> published{0};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> anomalies{0};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(seed + static_cast<uint64_t>(r));
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t n = published.load(std::memory_order_acquire);
        for (int q = 0; q < 32 && n > 0; ++q) {
          // The newest published key, then random older ones.
          const uint64_t j = q == 0 ? n - 1 : rng.below(n);
          const auto k = key_of(j);
          const auto got = t.lookup(bytes(k), 8);
          if (!got.has_value() || got->value != value_of(j))
            anomalies.fetch_add(1, std::memory_order_relaxed);
        }
        domain.quiescent(*slots[r]);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (reads.load(std::memory_order_relaxed) == 0) std::this_thread::yield();

  uint64_t grows_seen = 0;
  for (uint64_t i = 0; i < kKeys; ++i) {
    const auto k = key_of(i);
    t.insert(bytes(k), 8, value_of(i));
    published.store(i + 1, std::memory_order_release);
    if (i % 256 == 0) domain.reclaim();
    if (t.grows() == grows_seen) continue;
    grows_seen = t.grows();
    for (uint64_t j = 0; j <= i; ++j) {
      const auto kj = key_of(j);
      const auto got = t.lookup(bytes(kj), 8);
      ASSERT_TRUE(got.has_value()) << "key " << j << " lost at insert " << i;
      ASSERT_EQ(got->value, value_of(j));
    }
  }
  stop = true;
  for (auto& th : readers) th.join();
  for (auto* slot : slots) domain.unregister_worker(slot);

  EXPECT_EQ(anomalies.load(), 0u);
  EXPECT_EQ(t.size(), kKeys);
  EXPECT_GE(t.grows(), 13u);  // 4 -> 32768 buckets
  domain.reclaim();
  EXPECT_EQ(domain.pending(), 0u);
}

TEST(Cuckoo, OneViewAfterGrow) {
  // A grow leaves one slot array behind it: memory_bytes() is the table's
  // fixed bytes, one slot word per slot of capacity(), and a fixed entry
  // size per (equal-length) key — after every insert, grows included.
  CuckooTable t(4);
  const auto non_slot = [&] { return t.memory_bytes() - t.capacity() * sizeof(uint64_t); };
  const size_t fixed = non_slot();
  const auto k0 = key_of(0);
  t.insert(bytes(k0), 8, value_of(0));
  const size_t per_key = non_slot() - fixed;
  ASSERT_GT(per_key, 8u);
  for (uint64_t i = 1; i < 5000; ++i) {
    const auto k = key_of(i);
    t.insert(bytes(k), 8, value_of(i));
    ASSERT_EQ(t.memory_bytes(),
              fixed + t.capacity() * sizeof(uint64_t) + t.size() * per_key)
        << "after insert " << i << ", grow " << t.grows();
  }
  EXPECT_GE(t.grows(), 8u);
}

TEST(Cuckoo, ReseedThenGrow) {
  // Mine keys whose two candidate buckets coincide on bucket 0 (the bucket
  // derivation is public arithmetic: mix64(hash ^ salt)).  Five such keys
  // overflow the 4-slot bucket with no displacement possible — at load well
  // under 0.5 the table must *reseed* (new salt, same capacity) rather than
  // grow.  Afterwards, bulk inserts past kGrowLoad force a real grow.
  constexpr uint32_t kBuckets = 64;
  CuckooTable t(kBuckets);
  std::vector<uint64_t> colliders;
  const uint32_t mask = kBuckets - 1;
  // Replicates the table's derivation: the first view's salt is one
  // next_salt() step past kSaltSeed, and buckets come from mix64(hash ^ salt).
  constexpr uint64_t kHashSeed = 0xC6A4A7935BD1E995ULL;
  const uint64_t view_salt = mix64(CuckooTable::kSaltSeed + kHashSeed);
  for (uint64_t x = 0; colliders.size() < 5; ++x) {
    const auto k = key_of(x);
    const uint64_t hs = mix64(hash_bytes(bytes(k), 8, kHashSeed) ^ view_salt);
    if ((static_cast<uint32_t>(hs) & mask) == 0 &&
        (static_cast<uint32_t>(hs >> 32) & mask) == 0)
      colliders.push_back(x);
  }
  for (const uint64_t x : colliders) {
    const auto k = key_of(x);
    t.insert(bytes(k), 8, value_of(x));
  }
  EXPECT_GE(t.reseeds(), 1u);
  EXPECT_EQ(t.grows(), 0u);  // load was far below 0.5: reseed, not grow
  for (const uint64_t x : colliders) {
    const auto k = key_of(x);
    const auto got = t.lookup(bytes(k), 8);
    ASSERT_TRUE(got.has_value()) << x;
    ASSERT_EQ(got->value, value_of(x));
  }

  // Bulk keys from a disjoint range (colliders were mined from small x).
  const uint64_t base = uint64_t{1} << 32;
  for (uint64_t i = base; i < base + 300; ++i) {
    const auto k = key_of(i);
    t.insert(bytes(k), 8, value_of(i));
  }
  EXPECT_GE(t.grows(), 1u);
  for (uint64_t i = base; i < base + 300; ++i) {
    const auto k = key_of(i);
    ASSERT_TRUE(t.lookup(bytes(k), 8).has_value()) << i;
  }
  EXPECT_EQ(t.size(), colliders.size() + 300u);
}

TEST(Cuckoo, SeededChurnWithConcurrentReaders) {
  // The tentpole's reader-safety claim, at scale: four packet-worker threads
  // hammer lookups of a stable key set while the control-plane writer churns
  // the table through every structural transition — grows by rebuild and
  // view swap, displacement chains, erase/reinsert — with epoch-based
  // retirement live the whole time.  A stable key observed absent, or with a
  // torn value, is an anomaly.  ESW_CUCKOO_CHURN_KEYS=1000000 is the CI TSan
  // leg's million-entry setting.
  const uint64_t seed = testing::test_seed(0xC0C0C0ULL, "cuckoo reader churn");
  size_t target = 200'000;
  if (const char* env = std::getenv("ESW_CUCKOO_CHURN_KEYS");
      env != nullptr && *env != '\0')
    target = std::strtoull(env, nullptr, 0);
  const size_t n_stable = std::min<size_t>(target / 4, 50'000);

  common::EpochDomain domain;
  CuckooTable t;
  t.set_domain(&domain);
  for (uint64_t i = 0; i < n_stable; ++i) {
    const auto k = key_of(i);
    t.insert(bytes(k), 8, value_of(i), static_cast<uint16_t>(i));
  }

  constexpr int kReaders = 4;
  common::EpochDomain::WorkerSlot* slots[kReaders];
  for (int r = 0; r < kReaders; ++r) {
    slots[r] = domain.register_worker();
    ASSERT_NE(slots[r], nullptr);
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> anomalies{0};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(seed + 1000 + static_cast<uint64_t>(r));
      // Odd readers probe through the pipelined bulk path, even ones through
      // prefetch + scalar lookup: both must hold up under the same churn.
      const bool bulk = r % 2 == 1;
      constexpr uint32_t kBurst = 64;
      uint64_t ids[kBurst];
      std::string keys[kBurst];
      const uint8_t* ptrs[kBurst];
      uint32_t lens[kBurst];
      CuckooTable::Value vals[kBurst];
      bool hit[kBurst];
      while (!stop.load(std::memory_order_relaxed)) {
        for (uint32_t b = 0; b < kBurst; ++b) {
          ids[b] = rng.below(n_stable);
          keys[b] = key_of(ids[b]);
          ptrs[b] = bytes(keys[b]);
          lens[b] = 8;
          if (bulk) continue;
          t.prefetch(ptrs[b], 8);
          const auto got = t.lookup(ptrs[b], 8);
          hit[b] = got.has_value();
          if (hit[b]) vals[b] = *got;
        }
        if (bulk) t.lookup_burst(ptrs, lens, kBurst, vals, hit);
        for (uint32_t b = 0; b < kBurst; ++b)
          if (!hit[b] || vals[b].value != value_of(ids[b]) ||
              vals[b].aux != static_cast<uint16_t>(ids[b]))
            anomalies.fetch_add(1, std::memory_order_relaxed);
        domain.quiescent(*slots[r]);  // burst boundary: holds no pointers
        reads.fetch_add(kBurst, std::memory_order_relaxed);
      }
    });
  }
  while (reads.load(std::memory_order_relaxed) == 0) std::this_thread::yield();

  // Writer: grow to the target with volatile keys, churn a sliding window,
  // then shrink back — reclaiming retired entries/views as grace elapses.
  Rng rng(seed);
  uint64_t ops = 0;
  const auto maybe_reclaim = [&] {
    if (++ops % 1024 == 0) domain.reclaim();
  };
  for (uint64_t i = n_stable; i < target; ++i) {
    const auto k = key_of(i);
    t.insert(bytes(k), 8, value_of(i));
    maybe_reclaim();
    if (i % 7 == 0) {  // same-key replace on a stable key (value unchanged)
      const uint64_t s = rng.below(n_stable);
      const auto ks = key_of(s);
      t.insert(bytes(ks), 8, value_of(s), static_cast<uint16_t>(s));
      maybe_reclaim();
    }
    if (i % 5 == 0 && i > n_stable + 64) {  // delete/reinsert a volatile key
      const uint64_t d = n_stable + rng.below(i - n_stable);
      const auto kd = key_of(d);
      t.erase(bytes(kd), 8);
      maybe_reclaim();
      t.insert(bytes(kd), 8, value_of(d));
      maybe_reclaim();
    }
    if (i % 4096 == 0) std::this_thread::yield();
  }
  EXPECT_EQ(t.size(), target);
  for (uint64_t i = n_stable; i < target; ++i) {
    const auto k = key_of(i);
    t.erase(bytes(k), 8);
    maybe_reclaim();
    if (i % 4096 == 0) std::this_thread::yield();
  }

  stop = true;
  for (auto& th : readers) th.join();
  for (int r = 0; r < kReaders; ++r) domain.unregister_worker(slots[r]);

  EXPECT_EQ(anomalies.load(), 0u);
  EXPECT_EQ(t.size(), n_stable);
  EXPECT_GT(t.grows(), 0u);
  for (uint64_t i = 0; i < n_stable; ++i) {
    const auto k = key_of(i);
    const auto got = t.lookup(bytes(k), 8);
    ASSERT_TRUE(got.has_value()) << i;
    ASSERT_EQ(got->value, value_of(i)) << i;
  }
  // With every worker unregistered the grace period is trivially satisfied:
  // one reclaim pass must drain the whole retire backlog.
  domain.reclaim();
  EXPECT_EQ(domain.pending(), 0u);
}

// ---------------------------------------------------------------------------
// The cuckoo template inside Eswitch
// ---------------------------------------------------------------------------

FlowMod add_mod(uint8_t table, uint16_t dport, uint32_t out_port) {
  FlowMod fm;
  fm.table_id = table;
  fm.priority = 10;
  fm.match.set(FieldId::kUdpDst, dport);
  fm.actions = {Action::output(out_port)};
  return fm;
}

Pipeline udp_fanout(size_t n) {
  Pipeline pl;
  for (size_t i = 0; i < n; ++i) {
    FlowEntry e;
    e.priority = 10;
    e.match.set(FieldId::kUdpDst, static_cast<uint16_t>(i));
    e.actions = {Action::output(static_cast<uint32_t>(1 + i % 7))};
    pl.table(0).add(e);
  }
  return pl;
}

/// Compiles table 0 of `pl` into the cuckoo template.
std::unique_ptr<CompiledTable> build_cuckoo(Pipeline& pl, BuildCtx& ctx) {
  CompilerConfig cfg;
  TableTemplate chosen = TableTemplate::kLinkedList;
  auto impl = build_table_impl(to_build_entries(pl.table(0)), cfg, ctx, &chosen);
  EXPECT_EQ(chosen, TableTemplate::kCuckooHash);
  return impl;
}

/// A parsed probe frame the template tests hand to lookup()/lookup_burst().
struct Probe {
  net::Packet pkt;
  proto::ParseInfo pi;
  explicit Probe(const proto::PacketSpec& spec)
      : pkt(make_packet(spec)), pi(test::parse_packet(pkt)) {}
};

proto::PacketSpec kind_spec(proto::PacketKind kind) {
  proto::PacketSpec s;
  s.kind = kind;
  return s;
}

TEST(CuckooTemplate, BurstLookupMatchesScalar) {
  // Hits, misses (dports past the rule range) and frames without a UDP layer
  // (TCP, ARP, raw Ethernet), with and without a catch-all to absorb the
  // last two; group sizes straddle the template's 32-key chunking.
  const uint64_t seed = testing::test_seed(0xB1B0ULL, "cuckoo template burst parity");
  for (const bool catch_all : {false, true}) {
    Pipeline pl = udp_fanout(600);
    if (catch_all) pl.table(0).add(parse_rule("priority=1,actions=output:9"));
    ActionSetRegistry registry;
    const GotoMap gmap(256, -1);
    BuildCtx ctx{registry, gmap};
    const auto impl = build_cuckoo(pl, ctx);

    Rng rng(seed);
    std::vector<Probe> probes;
    for (int i = 0; i < 200; ++i) {
      switch (rng.below(5)) {
        case 0:
          probes.emplace_back(test::tcp_spec(1, 2, 9, static_cast<uint16_t>(rng.below(600))));
          break;
        case 1:
          probes.emplace_back(kind_spec(rng.chance(1, 2) ? proto::PacketKind::kArp
                                                         : proto::PacketKind::kRawEth));
          break;
        default:  // ~half of the UDP probes hit
          probes.emplace_back(test::udp_spec(1, 2, 9, static_cast<uint16_t>(rng.below(1200))));
      }
    }
    std::vector<const uint8_t*> data;
    std::vector<const proto::ParseInfo*> pis;
    for (const Probe& p : probes) {
      data.push_back(p.pkt.data());
      pis.push_back(&p.pi);
    }
    uint64_t misses = 0;
    for (const uint32_t m : {1u, 2u, 31u, 32u, 33u, 200u}) {
      std::vector<uint64_t> res(m);
      impl->lookup_burst(data.data(), pis.data(), m, res.data());
      for (uint32_t i = 0; i < m; ++i) {
        ASSERT_EQ(res[i], impl->lookup(data[i], *pis[i]))
            << "probe " << i << " of " << m << (catch_all ? " with" : " without")
            << " catch-all";
        misses += res[i] == jit::kMissResult;
      }
    }
    // Without a catch-all, misses and proto-absent frames both miss; with
    // one, nothing does.
    if (catch_all)
      EXPECT_EQ(misses, 0u);
    else
      EXPECT_GT(misses, 0u);
  }
}

TEST(CuckooTemplate, BurstLookupUnderConcurrentGrowth) {
  // A reader thread bulk-probes while the control-plane writer grows the
  // table from 64 entries through several grows (and erases behind itself),
  // with epoch retirement live.  Stable keys must always return their own
  // result, frames without UDP the catch-all, and churned keys one of their
  // two valid states.
  const uint64_t seed = testing::test_seed(0xB1B1ULL, "cuckoo template burst growth");
  Pipeline pl = udp_fanout(64);
  pl.table(0).add(parse_rule("priority=1,actions=output:9"));
  ActionSetRegistry registry;
  const GotoMap gmap(256, -1);
  BuildCtx ctx{registry, gmap};
  const auto impl = build_cuckoo(pl, ctx);
  auto& table = static_cast<CuckooTemplateTable&>(*impl);
  common::EpochDomain domain;
  impl->attach_epoch_domain(&domain);

  std::vector<uint64_t> stable_result(64);
  for (uint16_t d = 0; d < 64; ++d) {
    const Probe p(test::udp_spec(1, 2, 9, d));
    stable_result[d] = impl->lookup(p.pkt.data(), p.pi);
  }
  const Probe tcp(test::tcp_spec(1, 2, 9, 7));
  const uint64_t catch_all = impl->lookup(tcp.pkt.data(), tcp.pi);
  // Churned keys all output to port 2 — the same interned action set as
  // stable key 1 (1 + 1 % 7), hence the same packed result.
  const uint64_t churned_result = stable_result[1];

  constexpr uint16_t kChurnBase = 1000, kChurnKeys = 20000;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bursts{0};
  std::atomic<uint64_t> anomalies{0};
  common::EpochDomain::WorkerSlot* slot = domain.register_worker();
  ASSERT_NE(slot, nullptr);
  std::thread reader([&] {
    Rng rng(seed);
    constexpr uint32_t kBurst = 32;
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<Probe> probes;
      std::vector<uint16_t> dport;
      for (uint32_t i = 0; i < kBurst; ++i) {
        const uint64_t k = rng.below(4);
        dport.push_back(k == 0 ? static_cast<uint16_t>(rng.below(64))
                               : static_cast<uint16_t>(kChurnBase + rng.below(kChurnKeys)));
        if (k == 3)
          probes.emplace_back(test::tcp_spec(1, 2, 9, dport.back()));
        else
          probes.emplace_back(test::udp_spec(1, 2, 9, dport.back()));
      }
      const uint8_t* data[kBurst];
      const proto::ParseInfo* pis[kBurst];
      for (uint32_t i = 0; i < kBurst; ++i) {
        data[i] = probes[i].pkt.data();
        pis[i] = &probes[i].pi;
      }
      uint64_t res[kBurst];
      impl->lookup_burst(data, pis, kBurst, res);
      for (uint32_t i = 0; i < kBurst; ++i) {
        bool ok;
        if (!probes[i].pi.has(proto::kProtoUdp))
          ok = res[i] == catch_all;
        else if (dport[i] < 64)
          ok = res[i] == stable_result[dport[i]];
        else
          ok = res[i] == churned_result || res[i] == catch_all;
        if (!ok) anomalies.fetch_add(1, std::memory_order_relaxed);
      }
      domain.quiescent(*slot);  // burst boundary: holds no pointers
      bursts.fetch_add(1, std::memory_order_relaxed);
    }
  });
  while (bursts.load(std::memory_order_relaxed) == 0) std::this_thread::yield();

  const auto churn_entry = [](uint16_t d) {
    FlowEntry e;
    e.priority = 10;
    e.match.set(FieldId::kUdpDst, d);
    e.actions = {Action::output(2)};
    return e;
  };
  uint32_t refused = 0;
  for (uint16_t k = 0; k < kChurnKeys; ++k) {
    refused += table.try_add(churn_entry(kChurnBase + k), ctx) ? 0 : 1;
    if (k % 3 == 0 && k > 0) {  // erase behind the insert front
      const FlowEntry e = churn_entry(kChurnBase + k / 2);
      table.try_remove(e.match, e.priority);
    }
    if (k % 256 == 0) domain.reclaim();
    if (k % 4096 == 0) std::this_thread::yield();
  }
  stop = true;
  reader.join();
  domain.unregister_worker(slot);

  EXPECT_EQ(refused, 0u);
  EXPECT_EQ(anomalies.load(), 0u);
  EXPECT_GE(table.grows(), 2u);
  domain.reclaim();
  EXPECT_EQ(domain.pending(), 0u);
}

TEST(CuckooTemplate, Tab02ScaleParityWithLinkedList) {
  // The tab02 methodology at test scale: identical traffic through the same
  // program compiled under the cuckoo template and under the linked-list
  // reference; verdicts must agree on every packet, through churn.
  const uint64_t seed = testing::test_seed(0x7AB02ULL, "cuckoo parity");
  const Pipeline pl = udp_fanout(2048);

  Eswitch cuckoo;
  cuckoo.install(pl);
  ASSERT_EQ(cuckoo.table_template(0), TableTemplate::kCuckooHash);

  CompilerConfig list_cfg;
  list_cfg.force_template = TableTemplate::kLinkedList;
  Eswitch list(list_cfg);
  list.install(pl);
  ASSERT_EQ(list.table_template(0), TableTemplate::kLinkedList);

  Rng rng(seed);
  const auto compare = [&](int probes) {
    for (int q = 0; q < probes; ++q) {
      // Half the probes hit, half miss (dports past the rule range).
      const uint16_t dport = static_cast<uint16_t>(rng.below(4096));
      auto spec = test::udp_spec(static_cast<uint32_t>(rng.below(5)), 2, 9, dport);
      auto p1 = make_packet(spec);
      auto p2 = make_packet(spec);
      ASSERT_EQ(cuckoo.process(p1), list.process(p2)) << "dport " << dport;
    }
  };
  compare(1000);

  // Churn both the same way: delete a third, add a fresh range, re-verify.
  for (uint16_t i = 0; i < 2048; i += 3) {
    FlowMod fm = add_mod(0, i, 0);
    fm.command = FlowMod::Cmd::kDelete;
    fm.actions.clear();
    cuckoo.apply(fm);
    list.apply(fm);
  }
  for (uint16_t i = 3000; i < 3200; ++i) {
    const FlowMod fm = add_mod(0, i, 1 + i % 7);
    cuckoo.apply(fm);
    list.apply(fm);
  }
  compare(1000);
  // The cuckoo template absorbed the churn in place: no wholesale rebuilds
  // beyond the install-time compile.
  EXPECT_GT(cuckoo.update_stats().incremental, 0u);
}

TEST(CuckooTemplate, SizedFromBuildInput) {
  // The index is sized from the entries it is built with: a 20-entry table
  // stays a few hundred bytes of slots (not a default-sized slot array), and
  // a 5000-entry build lands at its final size without growing.
  ActionSetRegistry registry;
  const GotoMap gmap(256, -1);
  BuildCtx ctx{registry, gmap};
  Pipeline small = udp_fanout(20);
  const auto impl = build_cuckoo(small, ctx);
  EXPECT_LT(impl->memory_bytes(), 4096u);
  EXPECT_EQ(static_cast<const CuckooTemplateTable&>(*impl).grows(), 0u);

  Pipeline big = udp_fanout(5000);
  const auto big_impl = build_cuckoo(big, ctx);
  const auto& table = static_cast<const CuckooTemplateTable&>(*big_impl);
  EXPECT_EQ(table.grows(), 0u);
  EXPECT_EQ(table.size(), 5000u);
}

TEST(CuckooTemplate, BatchRepublishesFusionOnce) {
  // Satellite: one fused-plan republish per batch, however many mods changed
  // impls — vs one per mod on the single-mod path.
  CompilerConfig cfg;
  cfg.direct_code_max_entries = 64;  // keep rebuilds coming: every add swaps
  Eswitch sw(cfg);
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=5,udp_dst=1,actions=output:1"));
  sw.install(pl);
  ASSERT_EQ(sw.table_template(0), TableTemplate::kDirectCode);
  ASSERT_TRUE(sw.fused_active());

  const auto before = sw.update_stats().fusion_republishes;
  std::vector<FlowMod> batch;
  for (uint16_t i = 100; i < 108; ++i) batch.push_back(add_mod(0, i, 2));
  sw.apply_batch(batch);
  EXPECT_EQ(sw.update_stats().fusion_republishes, before + 1);

  const auto before_single = sw.update_stats().fusion_republishes;
  for (uint16_t i = 200; i < 204; ++i) sw.apply(add_mod(0, i, 3));
  EXPECT_EQ(sw.update_stats().fusion_republishes, before_single + 4);

  for (uint16_t i : {1u, 100u, 107u, 203u}) {
    auto p = make_packet(test::udp_spec(1, 2, 9, static_cast<uint16_t>(i)));
    EXPECT_NE(sw.process(p), Verdict::drop()) << i;
  }
}

TEST(CuckooTemplate, ApplyBatchPartialRefusesPerMod) {
  CompilerConfig cfg;
  cfg.table_capacity = 5;
  Eswitch sw(cfg);
  sw.install(Pipeline{});

  std::vector<FlowMod> batch;
  for (uint16_t i = 0; i < 8; ++i) batch.push_back(add_mod(0, i, 1));
  const std::vector<ModStatus> st = sw.apply_batch_partial(batch);
  ASSERT_EQ(st.size(), 8u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(st[i], ModStatus::kApplied) << i;
  for (size_t i = 5; i < 8; ++i) EXPECT_EQ(st[i], ModStatus::kRefusedTableFull) << i;
  EXPECT_EQ(sw.pipeline().find_table(0)->size(), 5u);
  EXPECT_EQ(sw.stats().mods_refused_table_full, 3u);

  // The applied prefix is live; the refused tail is not.
  auto hit = make_packet(test::udp_spec(1, 2, 9, 4));
  EXPECT_EQ(sw.process(hit), Verdict::output(1));
  auto refused = make_packet(test::udp_spec(1, 2, 9, 6));
  EXPECT_EQ(sw.process(refused), Verdict::drop());

  // Invalid mods refuse individually too, without poisoning the rest.
  std::vector<FlowMod> mixed;
  FlowMod del = add_mod(0, 0, 1);
  del.command = FlowMod::Cmd::kDelete;
  del.actions.clear();
  mixed.push_back(del);  // frees one capacity slot
  FlowMod bad = add_mod(0, 50, 1);
  bad.goto_table = 99;  // goto to a non-existent table
  mixed.push_back(bad);
  mixed.push_back(add_mod(0, 60, 2));  // takes the freed slot
  const std::vector<ModStatus> st2 = sw.apply_batch_partial(mixed);
  ASSERT_EQ(st2.size(), 3u);
  EXPECT_EQ(st2[0], ModStatus::kApplied);
  EXPECT_EQ(st2[1], ModStatus::kRefusedInvalid);
  EXPECT_EQ(st2[2], ModStatus::kApplied);
  auto p60 = make_packet(test::udp_spec(1, 2, 9, 60));
  EXPECT_EQ(sw.process(p60), Verdict::output(2));
  auto p0 = make_packet(test::udp_spec(1, 2, 9, 0));
  EXPECT_EQ(sw.process(p0), Verdict::drop());
}

}  // namespace
}  // namespace esw
