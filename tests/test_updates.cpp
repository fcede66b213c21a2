#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

#include "common/rng.hpp"
#include "core/eswitch.hpp"
#include "test_util.hpp"

namespace esw {
namespace {

using namespace esw::core;
using namespace esw::flow;
using test::ip;
using test::make_packet;

FlowMod add_mod(uint8_t table, const char* rule) {
  const FlowEntry e = parse_rule(rule);
  FlowMod fm;
  fm.command = FlowMod::Cmd::kAdd;
  fm.table_id = table;
  fm.priority = e.priority;
  fm.match = e.match;
  fm.actions = e.actions;
  fm.goto_table = e.goto_table;
  return fm;
}

FlowMod del_mod(uint8_t table, const char* rule) {
  FlowMod fm = add_mod(table, rule);
  fm.command = FlowMod::Cmd::kDelete;
  fm.actions.clear();
  return fm;
}

TEST(Updates, HashTemplateIncrementalAddRemove) {
  Pipeline pl;
  for (int i = 0; i < 20; ++i)
    pl.table(0).add(parse_rule("priority=5,udp_dst=" + std::to_string(i) +
                               ",actions=output:1"));
  Eswitch sw;
  sw.install(pl);
  ASSERT_EQ(sw.table_template(0), TableTemplate::kCuckooHash);
  const auto rebuilds_before = sw.update_stats().table_rebuilds;

  sw.apply(add_mod(0, "priority=5,udp_dst=1000,actions=output:7"));
  auto p = make_packet(test::udp_spec(1, 2, 9, 1000));
  EXPECT_EQ(sw.process(p), Verdict::output(7));
  // Non-destructive: same template object updated, no rebuild (§3.4).
  EXPECT_EQ(sw.update_stats().table_rebuilds, rebuilds_before);
  EXPECT_GE(sw.update_stats().incremental, 1u);

  sw.apply(del_mod(0, "priority=5,udp_dst=1000,actions=output:7"));
  auto p2 = make_packet(test::udp_spec(1, 2, 9, 1000));
  EXPECT_EQ(sw.process(p2), Verdict::drop());
  EXPECT_EQ(sw.update_stats().table_rebuilds, rebuilds_before);
}

TEST(Updates, ShadowedEntrySurvivesIncrementalDelete) {
  // The exact-match index holds one entry per key.  Adding a higher-priority
  // duplicate and deleting it again must leave the shadowed lower-priority
  // entry serving — for a specific key and for the catch-all — with and
  // without a registered worker (in-place shape under readers).
  for (const bool with_worker : {false, true}) {
    SCOPED_TRACE(with_worker ? "registered worker" : "no workers");
    Pipeline pl;
    for (int i = 0; i < 10; ++i)
      pl.table(0).add(parse_rule("priority=5,udp_dst=" + std::to_string(i) +
                                 ",actions=output:1"));
    pl.table(0).add(parse_rule("priority=1,actions=output:4"));
    Eswitch sw;
    sw.install(pl);
    ASSERT_EQ(sw.table_template(0), TableTemplate::kCuckooHash);
    Eswitch::Worker* w = with_worker ? sw.register_worker() : nullptr;
    ASSERT_EQ(w != nullptr, with_worker);
    const auto verdict = [&](uint16_t dport) {
      auto p = make_packet(test::udp_spec(1, 2, 9, dport));
      return with_worker ? sw.process(*w, p) : sw.process(p);
    };

    sw.apply(add_mod(0, "priority=9,udp_dst=3,actions=output:7"));
    EXPECT_EQ(verdict(3), Verdict::output(7));
    sw.apply(del_mod(0, "priority=9,udp_dst=3,actions=output:7"));
    EXPECT_EQ(verdict(3), Verdict::output(1)) << "shadowed entry lost";

    sw.apply(add_mod(0, "priority=2,actions=output:6"));
    EXPECT_EQ(verdict(500), Verdict::output(6));
    sw.apply(del_mod(0, "priority=2,actions=output:6"));
    EXPECT_EQ(verdict(500), Verdict::output(4)) << "shadowed catch-all lost";
    EXPECT_EQ(verdict(3), Verdict::output(1));
    if (with_worker) sw.unregister_worker(w);
  }
}

TEST(Updates, PrerequisiteViolationFallsBack) {
  Pipeline pl;
  for (int i = 0; i < 20; ++i)
    pl.table(0).add(parse_rule("priority=5,udp_dst=" + std::to_string(i) +
                               ",actions=output:1"));
  Eswitch sw;
  sw.install(pl);
  ASSERT_EQ(sw.table_template(0), TableTemplate::kCuckooHash);

  // A masked rule breaks the global-mask prerequisite: the table must be
  // rebuilt under a fallback template, atomically, without losing rules.
  sw.apply(add_mod(0, "priority=9,udp_dst=0x100/0x100,actions=output:2"));
  EXPECT_EQ(sw.table_template(0), TableTemplate::kLinkedList);

  auto old_rule = make_packet(test::udp_spec(1, 2, 9, 3));
  auto new_rule = make_packet(test::udp_spec(1, 2, 9, 0x1F0));
  EXPECT_EQ(sw.process(old_rule), Verdict::output(1));
  EXPECT_EQ(sw.process(new_rule), Verdict::output(2));
}

TEST(Updates, DirectCodeAlwaysRebuilds) {
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=5,udp_dst=1,actions=output:1"));
  Eswitch sw;
  sw.install(pl);
  ASSERT_EQ(sw.table_template(0), TableTemplate::kDirectCode);
  const auto before = sw.update_stats().table_rebuilds;
  sw.apply(add_mod(0, "priority=5,udp_dst=2,actions=output:2"));
  EXPECT_GT(sw.update_stats().table_rebuilds, before);
  auto p = make_packet(test::udp_spec(1, 2, 9, 2));
  EXPECT_EQ(sw.process(p), Verdict::output(2));
}

TEST(Updates, GrowthPromotesDirectCodeToHash) {
  Eswitch sw;
  sw.install(Pipeline{});
  for (int i = 0; i < 10; ++i)
    sw.apply(add_mod(0, ("priority=5,udp_dst=" + std::to_string(i) +
                         ",actions=output:1").c_str()));
  EXPECT_EQ(sw.table_template(0), TableTemplate::kCuckooHash);
  for (int i = 0; i < 10; ++i) {
    auto p = make_packet(test::udp_spec(1, 2, 9, static_cast<uint16_t>(i)));
    EXPECT_EQ(sw.process(p), Verdict::output(1));
  }
}

TEST(Updates, LpmIncrementalChurn) {
  Pipeline pl;
  for (int i = 0; i < 32; ++i) {
    FlowEntry e;
    e.match.set(FieldId::kIpDst, static_cast<uint32_t>(i) << 24, 0xFF000000);
    e.priority = 8;
    e.actions = {Action::output(1)};
    pl.table(0).add(e);
  }
  for (int i = 0; i < 8; ++i) {
    // Mixed prefix lengths: breaks the (faster) global-mask hash prerequisite
    // so analysis lands on LPM, as in a real RIB.
    FlowEntry e;
    e.match.set(FieldId::kIpDst, (40u << 24) | (static_cast<uint32_t>(i) << 16),
                0xFFFF0000);
    e.priority = 16;
    e.actions = {Action::output(3)};
    pl.table(0).add(e);
  }
  Eswitch sw;
  sw.install(pl);
  ASSERT_EQ(sw.table_template(0), TableTemplate::kLpm);
  const auto rebuilds_before = sw.update_stats().table_rebuilds;

  // Route churn: add/remove more-specific prefixes (priority-consistent).
  for (int i = 0; i < 200; ++i) {
    FlowMod fm;
    fm.table_id = 0;
    fm.priority = 24;
    fm.match.set(FieldId::kIpDst, (5u << 24) | (static_cast<uint32_t>(i) << 8),
                 0xFFFFFF00);
    fm.actions = {Action::output(2)};
    sw.apply(fm);
  }
  auto p = make_packet(test::udp_spec(1, (5u << 24) | (77u << 8) | 3, 4, 4));
  EXPECT_EQ(sw.process(p), Verdict::output(2));
  EXPECT_EQ(sw.update_stats().table_rebuilds, rebuilds_before);

  for (int i = 0; i < 200; ++i) {
    FlowMod fm;
    fm.command = FlowMod::Cmd::kDelete;
    fm.table_id = 0;
    fm.priority = 24;
    fm.match.set(FieldId::kIpDst, (5u << 24) | (static_cast<uint32_t>(i) << 8),
                 0xFFFFFF00);
    sw.apply(fm);
  }
  auto p2 = make_packet(test::udp_spec(1, (5u << 24) | (77u << 8) | 3, 4, 4));
  EXPECT_EQ(sw.process(p2), Verdict::output(1));
  EXPECT_EQ(sw.update_stats().table_rebuilds, rebuilds_before);
}

TEST(Updates, LpmPriorityInversionFallsBack) {
  Pipeline pl;
  for (int i = 0; i < 32; ++i) {
    FlowEntry e;
    e.match.set(FieldId::kIpDst, static_cast<uint32_t>(i) << 24, 0xFF000000);
    e.priority = 8;
    e.actions = {Action::output(1)};
    pl.table(0).add(e);
  }
  for (int i = 0; i < 8; ++i) {
    // Mixed prefix lengths: breaks the (faster) global-mask hash prerequisite
    // so analysis lands on LPM, as in a real RIB.
    FlowEntry e;
    e.match.set(FieldId::kIpDst, (40u << 24) | (static_cast<uint32_t>(i) << 16),
                0xFFFF0000);
    e.priority = 16;
    e.actions = {Action::output(3)};
    pl.table(0).add(e);
  }
  Eswitch sw;
  sw.install(pl);
  ASSERT_EQ(sw.table_template(0), TableTemplate::kLpm);

  // A /24 *below* the /8s in priority violates the LPM ordering prerequisite.
  FlowMod fm;
  fm.table_id = 0;
  fm.priority = 2;
  fm.match.set(FieldId::kIpDst, 3u << 24 | 5u << 8, 0xFFFFFF00);
  fm.actions = {Action::output(9)};
  sw.apply(fm);
  // The priority-inverted prefix table fails LPM's prerequisite but fits the
  // range extension template (which bakes priorities into the intervals).
  EXPECT_EQ(sw.table_template(0), TableTemplate::kRange);
  // Reference semantics: the /8 still wins (higher priority).
  auto p = make_packet(test::udp_spec(1, 3u << 24 | 5u << 8 | 1, 4, 4));
  EXPECT_EQ(sw.process(p), Verdict::output(1));
}

TEST(Updates, BatchIsTransactional) {
  Eswitch sw;
  sw.install(Pipeline{});
  sw.apply(add_mod(0, "priority=5,udp_dst=1,actions=output:1"));

  // Second mod is invalid (goto to non-existent table): nothing may change.
  std::vector<FlowMod> batch;
  batch.push_back(add_mod(0, "priority=6,udp_dst=2,actions=output:2"));
  batch.push_back(add_mod(0, "priority=7,udp_dst=3,actions=,goto:99"));
  EXPECT_THROW(sw.apply_batch(batch), CheckError);

  auto p = make_packet(test::udp_spec(1, 2, 9, 2));
  EXPECT_EQ(sw.process(p), Verdict::drop());  // mod 1 was rolled back
  EXPECT_EQ(sw.pipeline().find_table(0)->size(), 1u);

  // Valid batch applies atomically.
  batch.pop_back();
  batch.push_back(add_mod(0, "priority=7,udp_dst=3,actions=output:3"));
  sw.apply_batch(batch);
  auto p2 = make_packet(test::udp_spec(1, 2, 9, 2));
  auto p3 = make_packet(test::udp_spec(1, 2, 9, 3));
  EXPECT_EQ(sw.process(p2), Verdict::output(2));
  EXPECT_EQ(sw.process(p3), Verdict::output(3));
}

TEST(Updates, InvalidGotoRejectedCleanly) {
  Eswitch sw;
  sw.install(Pipeline{});
  EXPECT_THROW(sw.apply(add_mod(0, "priority=5,udp_dst=1,actions=,goto:0")), CheckError);
  EXPECT_THROW(sw.apply(add_mod(5, "priority=5,udp_dst=1,actions=,goto:3")), CheckError);
  EXPECT_TRUE(sw.pipeline().empty());
}

TEST(Updates, ConcurrentReadersSurviveTableSwaps) {
  // A registered worker hammers the datapath while the control plane rebuilds
  // the table via trampoline swaps; every lookup must see either the old or
  // the new table, never garbage.  Retired tables are freed by the epoch
  // layer only after the worker ticks past the retirement — with the worker
  // live the whole time, reclamation itself is part of what is under test.
  Pipeline pl;
  for (int i = 0; i < 10; ++i)
    pl.table(0).add(parse_rule("priority=5,udp_dst=" + std::to_string(i) +
                               ",actions=output:1"));
  CompilerConfig cfg;
  cfg.direct_code_max_entries = 64;  // keep the table direct-code: every
                                     // update is a rebuild + trampoline swap
  Eswitch sw(cfg);
  sw.install(pl);
  ASSERT_EQ(sw.table_template(0), TableTemplate::kDirectCode);

  Eswitch::Worker* worker = sw.register_worker();
  ASSERT_NE(worker, nullptr);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> anomalies{0};
  std::atomic<uint64_t> ticks{0};
  std::thread reader([&] {
    auto p = make_packet(test::udp_spec(1, 2, 9, 3));
    while (!stop.load(std::memory_order_relaxed)) {
      net::Packet copy = p;
      const Verdict v = sw.process(*worker, copy);
      if (!(v == Verdict::output(1))) anomalies.fetch_add(1);
      ticks.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Progress-driven (a fixed churn count can finish before the reader thread
  // is ever scheduled on a loaded single-core machine): wait for the reader,
  // then churn until the epoch layer has reclaimed with the reader live.
  while (ticks.load(std::memory_order_relaxed) == 0) std::this_thread::yield();

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  int applied = 0;
  for (; (applied < 300 || sw.reclaim_stats().reclaimed == 0) &&
         std::chrono::steady_clock::now() < deadline;
       ++applied) {
    FlowMod fm;
    fm.table_id = 0;
    fm.priority = static_cast<uint16_t>(100 + applied % 7);
    fm.match.set(FieldId::kUdpDst, 0x8000 + applied % 7);
    fm.actions = {Action::output(2)};
    sw.apply(fm);
    fm.command = FlowMod::Cmd::kDelete;
    sw.apply(fm);
    if (applied % 16 == 15) std::this_thread::yield();
  }
  const auto reclaimed_live = sw.reclaim_stats().reclaimed;
  stop = true;
  reader.join();
  sw.unregister_worker(worker);
  EXPECT_EQ(anomalies.load(), 0u);
  EXPECT_GE(sw.update_stats().table_rebuilds, static_cast<uint64_t>(2 * applied));
  // Grace periods elapsed while the reader was running: the epoch layer
  // reclaimed rebuilt tables without any quiescence from the caller.
  EXPECT_GT(reclaimed_live, 0u);
}

TEST(Updates, RandomChurnStaysEquivalent) {
  // Adds (fresh and re-adds of live rules, i.e. modifies), deletes, and
  // priorities from a small set so equal-priority overlaps are common.  The
  // default compiler and a forced linked list, each with and without a
  // registered worker, must all agree with the reference flow table.
  struct Leg {
    const char* name;
    std::optional<TableTemplate> force;
    bool worker;
  };
  for (const Leg& leg : {Leg{"default", std::nullopt, false},
                         Leg{"default+worker", std::nullopt, true},
                         Leg{"linked-list", TableTemplate::kLinkedList, false},
                         Leg{"linked-list+worker", TableTemplate::kLinkedList, true}}) {
    SCOPED_TRACE(leg.name);
    Rng rng(31337);
    CompilerConfig cfg;
    cfg.force_template = leg.force;
    Eswitch sw(cfg);
    sw.install(Pipeline{});
    Eswitch::Worker* w = leg.worker ? sw.register_worker() : nullptr;
    Pipeline ref;

    std::vector<FlowEntry> live;
    for (int op = 0; op < 400; ++op) {
      if (!live.empty() && rng.chance(1, 3)) {
        const size_t k = rng.below(live.size());
        FlowMod fm;
        fm.command = FlowMod::Cmd::kDelete;
        fm.table_id = 0;
        fm.priority = live[k].priority;
        fm.match = live[k].match;
        sw.apply(fm);
        ref.table(0).remove(live[k].match, live[k].priority);
        live[k] = live.back();
        live.pop_back();
      } else {
        FlowMod fm;
        fm.table_id = 0;
        const bool readd = !live.empty() && rng.chance(1, 3);
        if (readd) {
          const FlowEntry& old = live[rng.below(live.size())];
          fm.match = old.match;
          fm.priority = old.priority;
        } else {
          if (rng.chance(2, 3)) fm.match.set(FieldId::kUdpDst, rng.below(40));
          if (rng.chance(1, 4)) fm.match.set(FieldId::kIpSrc, rng.below(4));
          fm.priority = static_cast<uint16_t>(10 * rng.below(4));
        }
        fm.actions = {Action::output(static_cast<uint32_t>(rng.below(6)))};
        sw.apply(fm);
        FlowEntry e;
        e.match = fm.match;
        e.priority = fm.priority;
        e.actions = fm.actions;
        ref.table(0).add(e);
        if (std::none_of(live.begin(), live.end(), [&](const FlowEntry& l) {
              return l.priority == e.priority && l.match == e.match;
            }))
          live.push_back(e);
      }

      if (op % 10 == 0) {
        for (int q = 0; q < 40; ++q) {
          auto spec = test::udp_spec(static_cast<uint32_t>(rng.below(5)), 2, 9,
                                     static_cast<uint16_t>(rng.below(42)));
          auto p1 = make_packet(spec);
          auto p2 = make_packet(spec);
          const Verdict got = w != nullptr ? sw.process(*w, p1) : sw.process(p1);
          ASSERT_EQ(got, ref.run(p2)) << "op " << op;
        }
      }
    }
    if (leg.force.has_value()) {
      EXPECT_EQ(sw.table_template(0), *leg.force);
    }
    if (w != nullptr) sw.unregister_worker(w);
  }
}

TEST(Updates, LinkedListModifyKeepsEqualPriorityOrder) {
  // An OpenFlow modify replaces actions in place: the rule keeps its place
  // ahead of a later equal-priority rule that overlaps it.
  for (const bool with_worker : {false, true}) {
    SCOPED_TRACE(with_worker ? "registered worker" : "no workers");
    CompilerConfig cfg;
    cfg.force_template = TableTemplate::kLinkedList;
    Eswitch sw(cfg);
    sw.install(Pipeline{});
    Eswitch::Worker* w = with_worker ? sw.register_worker() : nullptr;
    Pipeline ref;
    for (const char* rule : {"priority=10,udp_dst=5,actions=output:1",
                             "priority=10,ip_src=10.0.0.1,actions=output:2",
                             "priority=10,udp_dst=5,actions=output:3"}) {
      sw.apply(add_mod(0, rule));
      ref.table(0).add(parse_rule(rule));
    }
    ASSERT_EQ(sw.table_template(0), TableTemplate::kLinkedList);
    auto p1 = make_packet(test::udp_spec(ip("10.0.0.1"), 2, 9, 5));
    auto p2 = p1;
    const Verdict got = w != nullptr ? sw.process(*w, p1) : sw.process(p1);
    EXPECT_EQ(ref.run(p2), Verdict::output(3));
    EXPECT_EQ(got, Verdict::output(3));
    if (w != nullptr) sw.unregister_worker(w);
  }
}

TEST(Updates, LinkedListOrderSurvives64KAdds) {
  // The insertion sequence that orders equal-priority entries must not wrap:
  // after 64K incremental adds, a new rule still ranks behind an older
  // overlapping rule of the same priority.
  Pipeline pl;
  for (const char* rule : {"priority=20,udp_dst=0x100/0x100,actions=output:9",
                           "priority=20,udp_src=0x100/0x100,actions=output:9",
                           "priority=20,ip_dst=11.0.0.0/8,actions=output:9",
                           "priority=20,ip_src=12.0.0.0/8,actions=output:9",
                           "priority=10,udp_dst=5,actions=output:1",
                           "priority=1,actions=drop"})
    pl.table(0).add(parse_rule(rule));
  Eswitch sw;
  sw.install(pl);
  ASSERT_EQ(sw.table_template(0), TableTemplate::kLinkedList);
  const CompiledTable* impl = sw.datapath().impl(sw.root_slot(0));

  const FlowMod add = add_mod(0, "priority=10,udp_dst=7,actions=output:4");
  const FlowMod del = del_mod(0, "priority=10,udp_dst=7,actions=output:4");
  // The build ranked six entries; this many more adds would wrap a 16-bit
  // sequence to 0, ahead of the older udp_dst=5 rule.
  for (int i = 0; i < 65536 - 6; ++i) sw.apply_batch({add, del});
  const char* newer = "priority=10,ip_src=10.0.0.1,actions=output:2";
  sw.apply(add_mod(0, newer));
  pl.table(0).add(parse_rule(newer));
  EXPECT_EQ(sw.datapath().impl(sw.root_slot(0)), impl) << "churn rebuilt the table";

  auto p1 = make_packet(test::udp_spec(ip("10.0.0.1"), 2, 9, 5));
  auto p2 = p1;
  EXPECT_EQ(pl.run(p2), Verdict::output(1));
  EXPECT_EQ(sw.process(p1), Verdict::output(1));
}

}  // namespace
}  // namespace esw
