// Connection-tracking subsystem tests: the TCP state machine, expiry and
// eviction, NAT/LB rewrite semantics, the established-only firewall, and
// JIT-vs-interpreter parity over the stateful use cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <map>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "common/check.hpp"
#include "common/epoch.hpp"
#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "core/eswitch.hpp"
#include "proto/headers.hpp"
#include "state/conntrack.hpp"
#include "test_util.hpp"
#include "testing/seed.hpp"
#include "usecases/usecases.hpp"

namespace esw {
namespace {

using namespace esw::state;
using core::CompilerConfig;
using core::Eswitch;
using flow::Verdict;
using test::make_packet;

// --- direct-API harness ------------------------------------------------------

struct CtHarness {
  common::EpochDomain domain;
  Conntrack ct;

  explicit CtHarness(CtConfig cfg = manual_cfg()) : ct(cfg, &domain) {}

  static CtConfig manual_cfg() {
    CtConfig cfg;
    cfg.enabled = true;
    cfg.capacity = 1024;
    cfg.manual_clock = true;
    return cfg;
  }

  /// Runs the full pre/post pair the datapath would, with `commit` as the
  /// matched rule's ct:commit decision.  Returns the stamped ct_state.
  uint32_t feed(net::Packet& p, bool commit, uint32_t profile = 0) {
    proto::ParseInfo pi = test::parse_packet(p);
    const uint64_t now = ct.now_ms();
    Conntrack::Hit hit = ct.pre(p.data(), pi, now);
    ct.post(hit, commit, profile, p.data(), pi, now);
    return pi.ct_state;
  }
};

proto::PacketSpec tcp_with_flags(uint32_t src, uint32_t dst, uint16_t sport,
                                 uint16_t dport, uint8_t flags) {
  proto::PacketSpec s = test::tcp_spec(src, dst, sport, dport);
  s.tcp_flags = flags;
  return s;
}

constexpr uint32_t kClient = 0x0A000001;  // 10.0.0.1
constexpr uint32_t kServer = 0xCB007105;  // 203.0.113.5

TcpState tcp_state_of(Conntrack& ct, const FiveTuple& t) {
  Conntrack::Entry* e = ct.find(t);
  EXPECT_NE(e, nullptr);
  return e == nullptr ? TcpState::kClosed
                      : static_cast<TcpState>(e->tcp_state.load());
}

TEST(ConntrackTcp, HandshakeStateMachine) {
  CtHarness h;
  const FiveTuple orig{kClient, kServer, 40000, 443, proto::kIpProtoTcp};

  auto syn = make_packet(tcp_with_flags(kClient, kServer, 40000, 443,
                                        proto::kTcpFlagSyn));
  const uint32_t st_syn = h.feed(syn, /*commit=*/true);
  EXPECT_EQ(st_syn, kCtTracked | kCtNew);  // stamped pre-commit: miss, SYN
  EXPECT_EQ(tcp_state_of(h.ct, orig), TcpState::kSynSent);

  auto synack = make_packet(tcp_with_flags(
      kServer, kClient, 443, 40000,
      proto::kTcpFlagSyn | proto::kTcpFlagAck));
  const uint32_t st_synack = h.feed(synack, false);
  // The SYN-ACK must carry established (iptables semantics: an established-
  // only rule admits the handshake) plus reply and new.
  EXPECT_EQ(st_synack, kCtTracked | kCtEstablished | kCtNew | kCtReply);
  EXPECT_EQ(tcp_state_of(h.ct, orig), TcpState::kSynRecv);

  auto ack = make_packet(tcp_with_flags(kClient, kServer, 40000, 443,
                                        proto::kTcpFlagAck));
  const uint32_t st_ack = h.feed(ack, false);
  // Bits stamp after the transition the packet itself causes: the handshake
  // ACK completes the connection and reads as plain established.
  EXPECT_EQ(st_ack, kCtTracked | kCtEstablished);
  EXPECT_EQ(tcp_state_of(h.ct, orig), TcpState::kEstablished);

  auto data = make_packet(tcp_with_flags(kClient, kServer, 40000, 443,
                                         proto::kTcpFlagAck));
  EXPECT_EQ(h.feed(data, false), kCtTracked | kCtEstablished);

  auto fin1 = make_packet(tcp_with_flags(kClient, kServer, 40000, 443,
                                         proto::kTcpFlagFin | proto::kTcpFlagAck));
  h.feed(fin1, false);
  EXPECT_EQ(tcp_state_of(h.ct, orig), TcpState::kFinWait);
  auto fin2 = make_packet(tcp_with_flags(kServer, kClient, 443, 40000,
                                         proto::kTcpFlagFin | proto::kTcpFlagAck));
  h.feed(fin2, false);
  EXPECT_EQ(tcp_state_of(h.ct, orig), TcpState::kClosed);

  // Late packets on a closed connection stamp invalid.
  auto late = make_packet(tcp_with_flags(kClient, kServer, 40000, 443,
                                         proto::kTcpFlagAck));
  EXPECT_EQ(h.feed(late, false), kCtTracked | kCtInvalid);
}

TEST(ConntrackTcp, SimultaneousOpen) {
  CtHarness h;
  const FiveTuple orig{kClient, kServer, 41000, 7777, proto::kIpProtoTcp};

  auto syn_a = make_packet(tcp_with_flags(kClient, kServer, 41000, 7777,
                                          proto::kTcpFlagSyn));
  h.feed(syn_a, true);
  // The crossing SYN (no ACK) from the other side.
  auto syn_b = make_packet(tcp_with_flags(kServer, kClient, 7777, 41000,
                                          proto::kTcpFlagSyn));
  h.feed(syn_b, false);
  EXPECT_EQ(tcp_state_of(h.ct, orig), TcpState::kSynRecv);

  auto ack = make_packet(tcp_with_flags(kClient, kServer, 41000, 7777,
                                        proto::kTcpFlagAck));
  h.feed(ack, false);
  EXPECT_EQ(tcp_state_of(h.ct, orig), TcpState::kEstablished);
}

TEST(ConntrackTcp, RstTeardown) {
  CtHarness h;
  const FiveTuple orig{kClient, kServer, 42000, 443, proto::kIpProtoTcp};
  auto syn = make_packet(tcp_with_flags(kClient, kServer, 42000, 443,
                                        proto::kTcpFlagSyn));
  h.feed(syn, true);
  auto rst = make_packet(tcp_with_flags(kServer, kClient, 443, 42000,
                                        proto::kTcpFlagRst));
  h.feed(rst, false);
  EXPECT_EQ(tcp_state_of(h.ct, orig), TcpState::kClosed);
  auto late = make_packet(tcp_with_flags(kClient, kServer, 42000, 443,
                                         proto::kTcpFlagAck));
  EXPECT_EQ(h.feed(late, false), kCtTracked | kCtInvalid);
}

TEST(ConntrackTcp, MidstreamPickup) {
  // Off (default): a non-SYN packet stamps invalid and its commit is refused.
  {
    CtHarness h;
    auto ack = make_packet(tcp_with_flags(kClient, kServer, 43000, 443,
                                          proto::kTcpFlagAck));
    EXPECT_EQ(h.feed(ack, true), kCtTracked | kCtInvalid);
    EXPECT_EQ(h.ct.find({kClient, kServer, 43000, 443, proto::kIpProtoTcp}),
              nullptr);
    EXPECT_EQ(h.ct.stats().commits, 0u);
  }
  // On: the same packet commits straight to Established.
  {
    CtConfig cfg = CtHarness::manual_cfg();
    cfg.midstream_pickup = true;
    CtHarness h(cfg);
    auto ack = make_packet(tcp_with_flags(kClient, kServer, 43000, 443,
                                          proto::kTcpFlagAck));
    EXPECT_EQ(h.feed(ack, true), kCtTracked | kCtNew);
    EXPECT_EQ(tcp_state_of(h.ct, {kClient, kServer, 43000, 443, proto::kIpProtoTcp}),
              TcpState::kEstablished);
  }
}

TEST(Conntrack, NonTcpStatesAndIcmpKeying) {
  CtHarness h;
  auto req = make_packet(test::udp_spec(kClient, kServer, 5000, 53));
  EXPECT_EQ(h.feed(req, true), kCtTracked | kCtNew);
  // UDP replies map onto the entry and count as established.
  auto rep = make_packet(test::udp_spec(kServer, kClient, 53, 5000));
  EXPECT_EQ(h.feed(rep, false), kCtTracked | kCtEstablished | kCtReply);
}

TEST(Conntrack, ExpiryUnderManualClock) {
  CtConfig cfg = CtHarness::manual_cfg();
  cfg.udp_timeout_ms = 5'000;
  CtHarness h(cfg);
  h.ct.set_now_ms(1'000);

  auto p = make_packet(test::udp_spec(kClient, kServer, 6000, 53));
  h.feed(p, true);
  ASSERT_NE(h.ct.find({kClient, kServer, 6000, 53, proto::kIpProtoUdp}), nullptr);

  // Refresh half-way: the wheel item re-schedules instead of expiring.
  h.ct.set_now_ms(4'000);
  h.feed(p, false);

  // Before the refreshed deadline nothing expires.
  h.ct.set_now_ms(8'000);
  for (uint32_t i = 0; i < 64; ++i) h.ct.poll(h.ct.now_ms());
  EXPECT_EQ(h.ct.stats().expired, 0u);

  // Past it the wheel removes the entry.
  h.ct.set_now_ms(12'000);
  for (uint32_t i = 0; i < 64; ++i) h.ct.poll(h.ct.now_ms());
  EXPECT_EQ(h.ct.stats().expired, 1u);
  EXPECT_EQ(h.ct.find({kClient, kServer, 6000, 53, proto::kIpProtoUdp}), nullptr);
  EXPECT_EQ(h.ct.stats().live, 0u);
}

TEST(Conntrack, EvictionAtCapacity) {
  CtConfig cfg = CtHarness::manual_cfg();
  cfg.capacity = 16;
  CtHarness h(cfg);

  for (uint32_t i = 0; i < 16; ++i) {
    auto p = make_packet(test::udp_spec(kClient + i, kServer, 7000, 53));
    h.feed(p, true);
  }
  ASSERT_EQ(h.ct.stats().live, 16u);

  // Commit 17: forced eviction + accounted drop (the victim's slot waits out
  // its grace period, so this commit cannot use it).
  auto p17 = make_packet(test::udp_spec(kClient + 100, kServer, 7000, 53));
  h.feed(p17, true);
  Conntrack::Stats s = h.ct.stats();
  EXPECT_EQ(s.evictions_forced, 1u);
  EXPECT_EQ(s.commit_drops, 1u);
  EXPECT_EQ(s.live, 15u);

  // After reclaim (no workers registered: grace is immediate) the table has
  // room again.
  h.ct.flush_reclaim();
  auto p18 = make_packet(test::udp_spec(kClient + 101, kServer, 7000, 53));
  h.feed(p18, true);
  s = h.ct.stats();
  EXPECT_EQ(s.live, 16u);
  EXPECT_EQ(s.commit_drops, 1u);

  // Conservation: every commit is live, expired or evicted.
  EXPECT_EQ(s.commits, s.live + s.expired + s.evictions_forced);
}

TEST(Conntrack, InsertFailpointForcesAccountedEviction) {
  CtHarness h;
  auto p1 = make_packet(test::udp_spec(kClient, kServer, 8000, 53));
  h.feed(p1, true);

  ASSERT_TRUE(common::FailpointRegistry::instance().arm("ct.insert", "nth:1"));
  auto p2 = make_packet(test::udp_spec(kClient + 1, kServer, 8000, 53));
  h.feed(p2, true);
  common::FailpointRegistry::instance().disarm("ct.insert");

  // The fire evicted exactly one healthy entry, then the commit proceeded.
  Conntrack::Stats s = h.ct.stats();
  EXPECT_EQ(s.evictions_forced, 1u);
  EXPECT_EQ(s.commit_drops, 0u);
  EXPECT_EQ(s.commits, 2u);
  EXPECT_EQ(s.live, 1u);
  EXPECT_EQ(s.commits, s.live + s.expired + s.evictions_forced);
}

// Link ids are 31 bits and the 2x bucket array must fit a uint32_t: a larger
// capacity is refused before anything is allocated, and before the
// bucket-count rounding (which never ends past 2^31) runs.
TEST(Conntrack, CapacityAboveLimitIsRefused) {
  common::EpochDomain domain;
  for (const uint32_t capacity : {Conntrack::kMaxCapacity + 1, 0xFFFFFFFFu}) {
    CtConfig cfg = CtHarness::manual_cfg();
    cfg.capacity = capacity;
    EXPECT_THROW((Conntrack{cfg, &domain}), CheckError) << capacity;
  }
}

// Random commit / refresh / expiry / eviction / reclaim steps on a table of
// 16 slots — 64 buckets, the minimum — over tuples picked to pile into a few
// buckets, so chains run long.  After every step find() in both directions
// must agree with a model of the live connections, and the model's chains
// (new links go to the head: orig, then reply) show that unlinks at the
// head, middle and tail, same-bucket orig/reply pairs and slot reuse after
// grace all happened.
TEST(Conntrack, ChainsMatchModel) {
  const uint64_t seed = testing::test_seed(0xC7A1, "Conntrack.ChainsMatchModel");
  constexpr uint32_t kCapacity = 16;
  constexpr uint32_t kBuckets = 64;
  constexpr uint64_t kSlotMs = 1024;  // the timeout wheel's slot
  constexpr uint64_t kTimeoutSlots = 8;
  CtConfig cfg = CtHarness::manual_cfg();
  cfg.capacity = kCapacity;
  // Time moves in whole wheel slots from the construction-time clock (1), so
  // a connection last seen at slot r is expired by the polls at slot b
  // exactly when r + kTimeoutSlots <= b.
  cfg.udp_timeout_ms = kTimeoutSlots * kSlotMs;
  CtHarness h(cfg);
  Conntrack& ct = h.ct;
  auto bucket = [](const FiveTuple& t) { return hash_tuple(t) & (kBuckets - 1); };

  // The tuple universe: most keyed into 4 hot buckets, some whose orig and
  // reply share a bucket.
  std::vector<FiveTuple> universe;
  size_t same_bucket = 0;
  for (uint16_t port = 1; universe.size() < 160; ++port) {
    const FiveTuple t{kClient + (port & 7u), kServer, port, 53, proto::kIpProtoUdp};
    const bool same = bucket(t) == bucket(t.reversed());
    if (same && same_bucket < 24) {
      ++same_bucket;
      universe.push_back(t);
    } else if (bucket(t) < 4) {
      universe.push_back(t);
    }
  }

  struct Conn {
    uint64_t last_seen;  // in wheel slots
    const Conntrack::Entry* entry;
  };
  std::map<std::tuple<uint32_t, uint32_t, uint16_t, uint16_t>, Conn> live;
  auto key_of = [](const FiveTuple& t) {
    return std::make_tuple(t.src_ip, t.dst_ip, t.src_port, t.dst_port);
  };
  auto tuple_of = [](const auto& k) {
    return FiveTuple{std::get<0>(k), std::get<1>(k), std::get<2>(k), std::get<3>(k),
                     proto::kIpProtoUdp};
  };
  std::vector<std::vector<FiveTuple>> chains(kBuckets);  // front = head
  std::set<const Conntrack::Entry*> retired;
  uint64_t now = 0;  // wheel slots since construction
  uint64_t at_head = 0, in_middle = 0, at_tail = 0, same_bucket_unlinks = 0;
  uint64_t reuses = 0, expired = 0;

  auto unlink_model = [&](const FiveTuple& orig) {
    const Conn c = live.at(key_of(orig));
    live.erase(key_of(orig));
    retired.insert(c.entry);
    if (bucket(orig) == bucket(orig.reversed())) ++same_bucket_unlinks;
    for (const FiveTuple& k : {orig, orig.reversed()}) {
      std::vector<FiveTuple>& ch = chains[bucket(k)];
      const size_t pos = static_cast<size_t>(std::find(ch.begin(), ch.end(), k) - ch.begin());
      ASSERT_LT(pos, ch.size());
      if (ch.size() > 1) {
        at_head += pos == 0;
        at_tail += pos == ch.size() - 1;
        in_middle += pos > 0 && pos < ch.size() - 1;
      }
      ch.erase(ch.begin() + static_cast<std::ptrdiff_t>(pos));
    }
  };
  auto feed = [&](const FiveTuple& t, bool commit) {
    auto p = make_packet(test::udp_spec(t.src_ip, t.dst_ip, t.src_port, t.dst_port));
    h.feed(p, commit);
  };
  // Evictions pick their own victims: exactly `n` connections must be gone
  // from the table, in both directions.
  auto reconcile_evictions = [&](uint64_t n) {
    std::vector<FiveTuple> gone;
    for (const auto& [k, c] : live)
      if (ct.find(tuple_of(k)) == nullptr) gone.push_back(tuple_of(k));
    ASSERT_EQ(gone.size(), n);
    for (const FiveTuple& t : gone) unlink_model(t);
  };
  auto check = [&](size_t step) {
    for (const FiveTuple& t : universe) {
      const auto it = live.find(key_of(t));
      const auto rit = live.find(key_of(t.reversed()));
      for (const uint8_t dir : {uint8_t{0}, uint8_t{1}}) {
        const FiveTuple q = dir == 0 ? t : t.reversed();
        uint8_t got_dir = 2;
        const Conntrack::Entry* e = ct.find(q, &got_dir);
        // q is some live connection's orig (dir 0) or reply (dir 1) tuple.
        const auto& as_orig = dir == 0 ? it : rit;
        const auto& as_reply = dir == 0 ? rit : it;
        if (as_orig != live.end()) {
          ASSERT_EQ(e, as_orig->second.entry) << "step " << step;
          ASSERT_EQ(got_dir, 0) << "step " << step;
          ASSERT_EQ(e->orig, q);
        } else if (as_reply != live.end()) {
          ASSERT_EQ(e, as_reply->second.entry) << "step " << step;
          ASSERT_EQ(got_dir, 1) << "step " << step;
          ASSERT_EQ(e->reply, q);
        } else {
          ASSERT_EQ(e, nullptr) << "step " << step;
        }
      }
    }
    ASSERT_EQ(ct.stats().live, live.size()) << "step " << step;
  };

  Rng rng(seed);
  for (size_t step = 0; step < 1500; ++step) {
    const uint64_t op = rng.below(16);
    const Conntrack::Stats before = ct.stats();
    if (op < 7) {
      // Commit: a tuple whose connection (either direction) is live only
      // refreshes it.  At capacity the commit evicts and drops; an armed
      // ct.insert evicts first and proceeds.
      const FiveTuple t = universe[rng.below(universe.size())];
      if (live.count(key_of(t)) != 0 || live.count(key_of(t.reversed())) != 0) continue;
      const bool forced = rng.below(4) == 0;
      if (forced) {
        ASSERT_TRUE(common::FailpointRegistry::instance().arm("ct.insert", "nth:1"));
      }
      feed(t, /*commit=*/true);
      if (forced) common::FailpointRegistry::instance().disarm("ct.insert");
      const Conntrack::Stats after = ct.stats();
      ASSERT_NO_FATAL_FAILURE(
          reconcile_evictions(after.evictions_forced - before.evictions_forced));
      if (after.commits == before.commits + 1) {
        const Conntrack::Entry* e = ct.find(t);
        ASSERT_NE(e, nullptr);
        reuses += retired.count(e);
        live[key_of(t)] = Conn{now, e};
        chains[bucket(t)].insert(chains[bucket(t)].begin(), t);
        chains[bucket(t.reversed())].insert(chains[bucket(t.reversed())].begin(),
                                            t.reversed());
      } else {
        ASSERT_EQ(after.commit_drops, before.commit_drops + 1);
      }
    } else if (op < 11) {
      // Refresh a live connection from either side.
      if (live.empty()) continue;
      auto it = live.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.below(live.size())));
      const FiveTuple t = tuple_of(it->first);
      feed(rng.below(2) == 0 ? t : t.reversed(), /*commit=*/false);
      it->second.last_seen = now;
    } else if (op < 13) {
      // Advance one wheel slot and poll every shard once.
      ++now;
      ct.set_now_ms(1 + now * kSlotMs);
      for (uint32_t i = 0; i < 16; ++i) ct.poll(ct.now_ms());
      std::vector<FiveTuple> due;
      for (const auto& [k, c] : live)
        if (c.last_seen + kTimeoutSlots <= now) due.push_back(tuple_of(k));
      for (const FiveTuple& t : due) ASSERT_NO_FATAL_FAILURE(unlink_model(t));
      expired += due.size();
      ASSERT_EQ(ct.stats().expired, before.expired + due.size()) << "step " << step;
    } else {
      ct.flush_reclaim();
      ASSERT_EQ(ct.stats().retire_pending, 0u);
    }
    ASSERT_NO_FATAL_FAILURE(check(step));
  }
  const Conntrack::Stats s = ct.stats();
  EXPECT_EQ(s.commits, s.live + s.expired + s.evictions_forced);
  EXPECT_GT(s.evictions_forced, 0u);
  EXPECT_GT(s.commit_drops, 0u);
  EXPECT_GT(expired, 0u);
  EXPECT_GT(at_head, 0u);
  EXPECT_GT(in_middle, 0u);
  EXPECT_GT(at_tail, 0u);
  EXPECT_GT(same_bucket_unlinks, 0u);
  EXPECT_GT(reuses, 0u);
}

// --- use cases through the full switch --------------------------------------

CompilerConfig cfg_for(const uc::CtUseCase& c, bool jit = true) {
  CompilerConfig cfg;
  cfg.enable_jit = jit;
  cfg.ct = c.ct;
  return cfg;
}

TEST(CtFirewall, EstablishedOnly) {
  uc::CtUseCase c = uc::make_ct_firewall();
  Eswitch sw(cfg_for(c));
  sw.install(c.pipeline);

  // Unsolicited outside packet: dropped, no state.
  auto probe = make_packet(tcp_with_flags(kServer, kClient, 443, 50000,
                                          proto::kTcpFlagAck),
                           uc::kCtOutsidePort);
  EXPECT_EQ(sw.process(probe).kind, Verdict::Kind::kDrop);
  // Even an outside SYN must not open state through the established-only rule.
  auto osyn = make_packet(tcp_with_flags(kServer, kClient, 443, 50001,
                                         proto::kTcpFlagSyn),
                          uc::kCtOutsidePort);
  EXPECT_EQ(sw.process(osyn).kind, Verdict::Kind::kDrop);

  // Inside SYN commits and forwards out.
  auto syn = make_packet(tcp_with_flags(kClient, kServer, 50000, 443,
                                        proto::kTcpFlagSyn),
                         uc::kCtInsidePort);
  EXPECT_EQ(sw.process(syn), Verdict::output(uc::kCtOutsidePort));

  // Now the server's SYN-ACK is established traffic and passes.
  auto synack = make_packet(tcp_with_flags(
                                kServer, kClient, 443, 50000,
                                proto::kTcpFlagSyn | proto::kTcpFlagAck),
                            uc::kCtOutsidePort);
  EXPECT_EQ(sw.process(synack), Verdict::output(uc::kCtInsidePort));

  // A different outside tuple still drops.
  auto other = make_packet(tcp_with_flags(kServer, kClient, 443, 50999,
                                          proto::kTcpFlagAck),
                           uc::kCtOutsidePort);
  EXPECT_EQ(sw.process(other).kind, Verdict::Kind::kDrop);
}

TEST(CtNat, SnatRewriteAndReverse) {
  uc::CtUseCase c = uc::make_ct_nat(uc::kCtNatDefaultIp);
  Eswitch sw(cfg_for(c));
  sw.install(c.pipeline);

  auto syn = make_packet(tcp_with_flags(kClient, kServer, 51000, 443,
                                        proto::kTcpFlagSyn),
                         uc::kCtInsidePort);
  EXPECT_EQ(sw.process(syn), Verdict::output(uc::kCtOutsidePort));

  // Egress packet carries the translated source.
  proto::ParseInfo pi = test::parse_packet(syn);
  EXPECT_EQ(flow::extract_field(flow::FieldId::kIpSrc, syn.data(), pi),
            uc::kCtNatDefaultIp);
  const uint16_t nat_port = static_cast<uint16_t>(
      flow::extract_field(flow::FieldId::kTcpSrc, syn.data(), pi));
  EXPECT_NE(nat_port, 51000);  // allocated from the profile's range
  // Destination untouched.
  EXPECT_EQ(flow::extract_field(flow::FieldId::kIpDst, syn.data(), pi), kServer);

  // The reply arrives addressed to the NAT ip/port and must be un-NATed back
  // to the inside client.
  auto rep = make_packet(tcp_with_flags(kServer, uc::kCtNatDefaultIp, 443,
                                        nat_port,
                                        proto::kTcpFlagSyn | proto::kTcpFlagAck),
                         uc::kCtOutsidePort);
  EXPECT_EQ(sw.process(rep), Verdict::output(uc::kCtInsidePort));
  proto::ParseInfo rpi = test::parse_packet(rep);
  EXPECT_EQ(flow::extract_field(flow::FieldId::kIpDst, rep.data(), rpi), kClient);
  EXPECT_EQ(flow::extract_field(flow::FieldId::kTcpDst, rep.data(), rpi), 51000u);
  EXPECT_EQ(flow::extract_field(flow::FieldId::kIpSrc, rep.data(), rpi), kServer);
}

TEST(CtLb, AffinityAcrossBackendChurn) {
  uc::CtUseCase c = uc::make_ct_lb(4);
  Eswitch sw(cfg_for(c));
  sw.install(c.pipeline);

  auto backend_of = [&](net::Packet& p) {
    proto::ParseInfo pi = test::parse_packet(p);
    return static_cast<uint32_t>(
        flow::extract_field(flow::FieldId::kIpDst, p.data(), pi));
  };

  auto syn = make_packet(tcp_with_flags(kClient, uc::kCtLbVip, 52000,
                                        uc::kCtLbVipPort, proto::kTcpFlagSyn),
                         uc::kCtInsidePort);
  EXPECT_EQ(sw.process(syn), Verdict::output(uc::kCtOutsidePort));
  const uint32_t chosen = backend_of(syn);
  EXPECT_GE(chosen, uc::kCtLbBackendBase);
  EXPECT_LT(chosen, uc::kCtLbBackendBase + 4);

  // Follow-up packet of the same connection: same backend (affinity).
  auto ack = make_packet(tcp_with_flags(kClient, uc::kCtLbVip, 52000,
                                        uc::kCtLbVipPort, proto::kTcpFlagAck),
                         uc::kCtInsidePort);
  EXPECT_EQ(sw.process(ack), Verdict::output(uc::kCtOutsidePort));
  EXPECT_EQ(backend_of(ack), chosen);

  // Disable the chosen backend: the committed connection keeps its affinity…
  const uint32_t chosen_idx = chosen - uc::kCtLbBackendBase;
  sw.conntrack()->set_backend_enabled(1, chosen_idx, false);
  auto ack2 = make_packet(tcp_with_flags(kClient, uc::kCtLbVip, 52000,
                                         uc::kCtLbVipPort, proto::kTcpFlagAck),
                          uc::kCtInsidePort);
  sw.process(ack2);
  EXPECT_EQ(backend_of(ack2), chosen);

  // …while new connections avoid the disabled backend entirely.
  for (uint32_t i = 0; i < 64; ++i) {
    auto nsyn = make_packet(tcp_with_flags(kClient + 1 + i, uc::kCtLbVip, 53000,
                                           uc::kCtLbVipPort, proto::kTcpFlagSyn),
                            uc::kCtInsidePort);
    ASSERT_EQ(sw.process(nsyn), Verdict::output(uc::kCtOutsidePort));
    EXPECT_NE(backend_of(nsyn), chosen);
  }

  // Backend replies un-NAT back to the VIP.
  Conntrack::Entry* e =
      sw.conntrack()->find({kClient, uc::kCtLbVip, 52000, uc::kCtLbVipPort,
                            proto::kIpProtoTcp});
  ASSERT_NE(e, nullptr);
  auto rep = make_packet(tcp_with_flags(e->reply.src_ip, e->reply.dst_ip,
                                        e->reply.src_port, e->reply.dst_port,
                                        proto::kTcpFlagSyn | proto::kTcpFlagAck),
                         uc::kCtOutsidePort);
  EXPECT_EQ(sw.process(rep), Verdict::output(uc::kCtInsidePort));
  proto::ParseInfo rpi = test::parse_packet(rep);
  EXPECT_EQ(flow::extract_field(flow::FieldId::kIpSrc, rep.data(), rpi),
            uc::kCtLbVip);
  EXPECT_EQ(flow::extract_field(flow::FieldId::kTcpSrc, rep.data(), rpi),
            uc::kCtLbVipPort);
}

// --- JIT vs interpreter parity over the stateful use cases -------------------

void expect_parity(uc::CtUseCase c, size_t n_flows, size_t n_packets,
                   uint64_t seed) {
  Eswitch sw_jit(cfg_for(c, /*jit=*/true));
  Eswitch sw_int(cfg_for(c, /*jit=*/false));
  sw_jit.install(c.pipeline);
  sw_int.install(c.pipeline);

  const auto flows = c.traffic(n_flows, seed);
  ASSERT_FALSE(flows.empty());
  for (size_t i = 0; i < n_packets; ++i) {
    const net::FlowSpec& fs = flows[i % flows.size()];
    auto pa = make_packet(fs.pkt, fs.in_port);
    auto pb = make_packet(fs.pkt, fs.in_port);
    const Verdict va = sw_jit.process(pa);
    const Verdict vb = sw_int.process(pb);
    ASSERT_EQ(va, vb) << "packet " << i;
    ASSERT_EQ(pa.len(), pb.len()) << "packet " << i;
    ASSERT_EQ(std::memcmp(pa.data(), pb.data(), pa.len()), 0)
        << "post-NAT bytes diverge at packet " << i;
  }
  // The two switches also evolved identical connection tables.
  const Conntrack::Stats sa = sw_jit.conntrack()->stats();
  const Conntrack::Stats sb = sw_int.conntrack()->stats();
  EXPECT_EQ(sa.commits, sb.commits);
  EXPECT_EQ(sa.live, sb.live);
  EXPECT_EQ(sa.hits, sb.hits);
}

TEST(CtParity, FirewallJitVsInterpreter) {
  const uint64_t seed = testing::test_seed(0xC7F1, "CtParity.Firewall");
  expect_parity(uc::make_ct_firewall(), 256, 2048, seed);
}

TEST(CtParity, NatJitVsInterpreter) {
  const uint64_t seed = testing::test_seed(0xC7F2, "CtParity.Nat");
  expect_parity(uc::make_ct_nat(uc::kCtNatDefaultIp), 256, 2048, seed);
}

TEST(CtParity, LbJitVsInterpreter) {
  const uint64_t seed = testing::test_seed(0xC7F3, "CtParity.Lb");
  expect_parity(uc::make_ct_lb(4), 256, 2048, seed);
}

// --- burst pre-stage vs a burst of one --------------------------------------

struct CtOutcome {
  std::vector<Verdict> verdicts;
  std::vector<std::vector<uint8_t>> frames;  // post-NAT bytes
  Conntrack::Stats stats;
};

// Replays `n_packets` round-robin over `flows`: packet-at-a-time through
// process() (a burst of one) when `burst` is 0, else through process_burst in
// chunks of `burst`.  `jit` picks the plan with or without a machine program.
CtOutcome replay_ct(const uc::CtUseCase& c, const std::vector<net::FlowSpec>& flows,
                    size_t n_packets, uint32_t burst, bool jit) {
  CompilerConfig cfg = cfg_for(c, jit);
  cfg.ct.manual_clock = true;
  Eswitch sw(cfg);
  sw.install(c.pipeline);

  std::vector<net::Packet> storage(n_packets);
  for (size_t i = 0; i < n_packets; ++i) {
    const net::FlowSpec& fs = flows[i % flows.size()];
    storage[i] = make_packet(fs.pkt, fs.in_port);
  }
  CtOutcome out;
  out.verdicts.resize(n_packets);
  if (burst == 0) {
    for (size_t i = 0; i < n_packets; ++i) out.verdicts[i] = sw.process(storage[i]);
  } else {
    std::vector<net::Packet*> ptrs(n_packets);
    for (size_t i = 0; i < n_packets; ++i) ptrs[i] = &storage[i];
    for (size_t i = 0; i < n_packets; i += burst) {
      const uint32_t m = static_cast<uint32_t>(std::min<size_t>(burst, n_packets - i));
      sw.process_burst(&ptrs[i], m, &out.verdicts[i]);
    }
  }
  for (const net::Packet& p : storage)
    out.frames.emplace_back(p.data(), p.data() + p.len());
  out.stats = sw.conntrack()->stats();
  return out;
}

/// Direction-free connection identity of a generated flow.
FiveTuple conn_of(const net::FlowSpec& fs) {
  const FiveTuple t{fs.pkt.ip_src, fs.pkt.ip_dst, fs.pkt.sport, fs.pkt.dport,
                    proto::kIpProtoTcp};
  const FiveTuple r = t.reversed();
  return std::tie(t.src_ip, t.src_port) < std::tie(r.src_ip, r.src_port) ? t : r;
}

// The burst contract (docs/STATEFUL.md "Pipeline integration"): every
// pre-stage of a burst runs before any of its post-stages, so a connection
// that a ct(commit) action opens is visible from the next burst on.  Packet
// i is "post-commit dependent" when its connection first appeared at an
// earlier packet of the same burst: a burst of one sees that commit, a
// larger burst does not.  Every other packet must match the burst of one
// bit-for-bit, and the hit/miss counters differ by exactly the dependents.
void expect_burst_parity(const uc::CtUseCase& c, uint64_t seed) {
  const auto flows = c.traffic(256, seed);
  ASSERT_FALSE(flows.empty());
  constexpr size_t kPackets = 2048;
  const CtOutcome ref = replay_ct(c, flows, kPackets, 0, true);
  for (const bool jit : {true, false}) {
    for (const uint32_t burst : {1u, 7u, 32u}) {
      SCOPED_TRACE(::testing::Message() << "burst=" << burst << " jit=" << jit);
      const CtOutcome got = replay_ct(c, flows, kPackets, burst, jit);
      std::vector<bool> seen(flows.size(), false);
      std::vector<FiveTuple> first_in_burst;
      uint64_t dependents = 0;
      size_t bad = 0;
      for (size_t i = 0; i < kPackets; ++i) {
        if (i % burst == 0) first_in_burst.clear();
        const size_t f = i % flows.size();
        const FiveTuple conn = conn_of(flows[f]);
        bool dependent = false;
        if (!seen[f]) {
          seen[f] = true;
          dependent = std::find(first_in_burst.begin(), first_in_burst.end(), conn) !=
                      first_in_burst.end();
          first_in_burst.push_back(conn);
        }
        if (dependent) {
          ++dependents;
          continue;
        }
        if (got.verdicts[i] != ref.verdicts[i] || got.frames[i] != ref.frames[i]) {
          if (bad++ < 5) ADD_FAILURE() << "packet " << i << " diverges";
        }
      }
      EXPECT_EQ(bad, 0u);
      if (burst == 1) {
        EXPECT_EQ(dependents, 0u);
      }
      EXPECT_EQ(got.stats.lookups, ref.stats.lookups);
      EXPECT_EQ(got.stats.hits + dependents, ref.stats.hits);
      EXPECT_EQ(got.stats.misses, ref.stats.misses + dependents);
      EXPECT_EQ(got.stats.commits, ref.stats.commits);
      EXPECT_EQ(got.stats.commit_drops, ref.stats.commit_drops);
      EXPECT_EQ(got.stats.live, ref.stats.live);
    }
  }
}

TEST(CtParity, BurstVsScalar) {
  const uint64_t seed = testing::test_seed(0xC7F4, "CtParity.BurstVsScalar");
  expect_burst_parity(uc::make_ct_firewall(), seed);
  expect_burst_parity(uc::make_ct_nat(uc::kCtNatDefaultIp), seed);
  expect_burst_parity(uc::make_ct_lb(4), seed);
}

/// One output port per ct_state value of a TCP handshake, so a verdict shows
/// exactly what the pre-stage stamped.
flow::Pipeline ct_state_mirror_pipeline() {
  constexpr uint32_t kAllBits =
      kCtTracked | kCtNew | kCtEstablished | kCtReply | kCtInvalid;
  const uint32_t states[] = {kCtTracked | kCtNew,
                             kCtTracked | kCtEstablished | kCtNew,
                             kCtTracked | kCtEstablished | kCtNew | kCtReply};
  std::vector<flow::FlowEntry> entries;
  for (uint32_t k = 0; k < 3; ++k) {
    flow::FlowEntry e;
    e.match.set(flow::FieldId::kCtState, states[k], kAllBits);
    e.priority = 200;
    e.actions = {flow::Action::output(k + 1)};
    entries.push_back(std::move(e));
  }
  flow::FlowEntry drop;
  drop.priority = 100;
  drop.actions = {flow::Action::drop()};
  entries.push_back(std::move(drop));
  flow::Pipeline pl;
  pl.table(0).replace_all(std::move(entries));
  return pl;
}

// auto_commit commits in the pre-stage, so unlike a ct(commit) action it is
// visible to the later packets of the same burst: a burst of SYN, the same
// SYN again and the SYN-ACK must stamp what a packet-at-a-time replay
// stamps.  The burst pre-stage's in-order pass must re-load each bucket head
// rather than reuse one loaded before the commit.
TEST(Conntrack, BurstPreSeesEarlierAutoCommit) {
  CompilerConfig cfg;
  cfg.ct = CtHarness::manual_cfg();
  cfg.ct.auto_commit = true;
  std::vector<net::Packet> scalar_pkts;
  scalar_pkts.push_back(make_packet(tcp_with_flags(kClient, kServer, 41000, 443,
                                                   proto::kTcpFlagSyn)));
  scalar_pkts.push_back(scalar_pkts.front());
  scalar_pkts.push_back(make_packet(tcp_with_flags(
      kServer, kClient, 443, 41000, proto::kTcpFlagSyn | proto::kTcpFlagAck)));
  std::vector<net::Packet> burst_pkts = scalar_pkts;
  const uint32_t n = static_cast<uint32_t>(burst_pkts.size());

  Eswitch scalar(cfg);
  scalar.install(ct_state_mirror_pipeline());
  std::vector<Verdict> want;
  for (net::Packet& p : scalar_pkts) want.push_back(scalar.process(p));
  EXPECT_EQ(want[0], Verdict::output(1));  // miss: new, committed in pre
  EXPECT_EQ(want[1], Verdict::output(2));  // hit on that commit
  EXPECT_EQ(want[2], Verdict::output(3));  // reply direction of it

  Eswitch batched(cfg);
  batched.install(ct_state_mirror_pipeline());
  net::Packet* ptrs[3];
  Verdict got[3];
  for (uint32_t i = 0; i < n; ++i) ptrs[i] = &burst_pkts[i];
  batched.process_burst(ptrs, n, got);
  for (uint32_t i = 0; i < n; ++i) EXPECT_EQ(got[i], want[i]) << "packet " << i;

  for (Eswitch* sw : {&scalar, &batched}) {
    const Conntrack::Stats s = sw->conntrack()->stats();
    EXPECT_EQ(s.commits, 1u);
    EXPECT_EQ(s.lookups, 3u);
    EXPECT_EQ(s.hits, 2u);
    EXPECT_EQ(s.misses, 1u);
  }
}

// --- concurrent churn --------------------------------------------------------

// Workers hammer a small table with short-timeout flows while expiry,
// eviction and epoch reclamation run underneath.  The assertions are the
// conservation laws; TSan owns the data-race half of this test.
TEST(CtConcurrency, ChurnConservation) {
  const uint64_t seed = testing::test_seed(0xC7C0, "CtConcurrency.Churn");
  const int scale = [] {
    const char* s = std::getenv("ESW_CONC_SCALE");
    return s != nullptr ? std::max(1, std::atoi(s)) : 4;
  }();

  uc::CtUseCase c = uc::make_ct_firewall(/*capacity=*/512);
  c.ct.auto_commit = true;         // every miss inserts: maximal churn
  c.ct.udp_timeout_ms = 1;         // immediate expiry pressure
  c.ct.tcp_syn_timeout_ms = 1;
  c.ct.tcp_est_timeout_ms = 1;
  CompilerConfig cfg = cfg_for(c);
  Eswitch sw(cfg);
  sw.install(c.pipeline);

  constexpr int kWorkers = 3;
  const int bursts = 200 * scale;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    Eswitch::Worker* ctx = sw.register_worker();
    ASSERT_NE(ctx, nullptr);
    threads.emplace_back([&, ctx, w] {
      Rng rng(seed ^ (w * 0x9E3779B97F4A7C15ULL));
      const auto flows = c.traffic(2048, seed + w);
      std::vector<net::Packet> storage(net::kBurstSize);
      net::Packet* pkts[net::kBurstSize];
      flow::Verdict verdicts[net::kBurstSize];
      for (int b = 0; b < bursts; ++b) {
        for (uint32_t i = 0; i < net::kBurstSize; ++i) {
          const net::FlowSpec& fs = flows[rng.below(flows.size())];
          storage[i] = make_packet(fs.pkt, fs.in_port);
          pkts[i] = &storage[i];
        }
        sw.process_burst(*ctx, pkts, net::kBurstSize, verdicts);
      }
    });
  }
  for (auto& t : threads) t.join();

  Conntrack& ct = *sw.conntrack();
  ct.flush_reclaim();
  const Conntrack::Stats s = ct.stats();
  EXPECT_GT(s.commits, 0u);
  // Conservation: every committed entry is live, expired or evicted; every
  // retirement is pending or reclaimed.
  EXPECT_EQ(s.commits, s.live + s.expired + s.evictions_forced);
  EXPECT_EQ(s.retired_total, s.retire_pending + s.reclaimed_total);
  EXPECT_LE(s.live, 512u);
}

// A packet worker's poll() reads every epoch slot's registration flag (via
// min_observed) while the control thread registers and unregisters other
// workers.  TSan owns the verdict on the flag; the assertions are the
// conservation laws over the churn the worker drives meanwhile.
TEST(CtConcurrency, RegisterWorkerWhileConntrackPolls) {
  const uint64_t seed = testing::test_seed(0xC7C1, "CtConcurrency.RegisterWhilePolls");
  const int scale = [] {
    const char* s = std::getenv("ESW_CONC_SCALE");
    return s != nullptr ? std::max(1, std::atoi(s)) : 4;
  }();

  uc::CtUseCase c = uc::make_ct_firewall(/*capacity=*/512);
  c.ct.auto_commit = true;
  c.ct.udp_timeout_ms = 1;
  c.ct.tcp_syn_timeout_ms = 1;
  c.ct.tcp_est_timeout_ms = 1;
  Eswitch sw(cfg_for(c));
  sw.install(c.pipeline);

  Eswitch::Worker* ctx = sw.register_worker();
  ASSERT_NE(ctx, nullptr);
  std::atomic<bool> stop{false};
  std::atomic<int> bursts_done{0};
  std::thread worker([&] {
    Rng rng(seed);
    const auto flows = c.traffic(2048, seed);
    std::vector<net::Packet> storage(net::kBurstSize);
    net::Packet* pkts[net::kBurstSize];
    flow::Verdict verdicts[net::kBurstSize];
    while (!stop.load(std::memory_order_relaxed)) {
      for (uint32_t i = 0; i < net::kBurstSize; ++i) {
        const net::FlowSpec& fs = flows[rng.below(flows.size())];
        storage[i] = make_packet(fs.pkt, fs.in_port);
        pkts[i] = &storage[i];
      }
      sw.process_burst(*ctx, pkts, net::kBurstSize, verdicts);
      bursts_done.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Register only once the worker is polling, and keep going until it has
  // polled through a stretch of registrations.
  while (bursts_done.load(std::memory_order_relaxed) == 0) std::this_thread::yield();
  const int rounds = 200 * scale;
  for (int r = 0; r < rounds || bursts_done.load(std::memory_order_relaxed) < 50; ++r) {
    Eswitch::Worker* extra = sw.register_worker();
    EXPECT_NE(extra, nullptr);
    if (extra == nullptr) break;
    std::this_thread::yield();
    sw.unregister_worker(extra);
  }
  stop.store(true, std::memory_order_relaxed);
  worker.join();

  Conntrack& ct = *sw.conntrack();
  ct.flush_reclaim();
  const Conntrack::Stats s = ct.stats();
  EXPECT_GT(s.commits, 0u);
  EXPECT_EQ(s.commits, s.live + s.expired + s.evictions_forced);
  EXPECT_EQ(s.retired_total, s.retire_pending + s.reclaimed_total);
  EXPECT_EQ(s.lookups, s.hits + s.misses);
}

}  // namespace
}  // namespace esw
