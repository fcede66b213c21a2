// Concurrent correctness of the multicore runtime: registered workers spin
// process_burst while the control thread streams apply/apply_batch through
// the in-place incremental shape (cuckoo hash, LPM, linked list) and the
// rebuild path (direct code).  Asserts verdict conservation (nothing lost or
// duplicated), old-or-new verdict consistency, eventual visibility of
// installed rules, and that retired tables are reclaimed via the epoch grace
// period — while readers are live — rather than via caller quiescence.
//
// Designed to run under ASan and TSan: iteration counts are modest and
// scalable via ESW_CONC_SCALE (CI's TSan job runs with the default).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "core/eswitch.hpp"
#include "core/switch_runtime.hpp"
#include "test_util.hpp"
#include "testing/seed.hpp"

namespace esw {
namespace {

using namespace esw::core;
using namespace esw::flow;
using test::make_packet;

int conc_scale() {
  const char* s = std::getenv("ESW_CONC_SCALE");
  const int v = s != nullptr ? std::atoi(s) : 1;
  return v > 0 ? v : 1;
}

/// Blocks until the reader has pushed at least one burst: on a single-CPU
/// machine a Release-mode control loop can otherwise finish its whole churn
/// before the reader threads are ever scheduled, voiding the test.
void wait_for_progress(const std::atomic<uint64_t>& processed,
                       uint64_t floor = net::kBurstSize) {
  while (processed.load(std::memory_order_relaxed) < floor)
    std::this_thread::yield();
}

FlowMod add_mod(uint8_t table, const std::string& rule) {
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

FlowMod del_mod(uint8_t table, const std::string& rule) {
  FlowMod fm = add_mod(table, rule);
  fm.command = FlowMod::Cmd::kDelete;
  fm.actions.clear();
  return fm;
}

/// A worker thread's harness: spins bursts of identical packets through a
/// registered context and tallies the verdicts it saw.
struct BurstReader {
  Eswitch& sw;
  Eswitch::Worker* ctx;
  proto::PacketSpec spec;
  std::atomic<bool>& stop;
  // Read by the control thread mid-run (progress gating), so atomic; the
  // other tallies are only read after join().
  std::atomic<uint64_t> processed{0};
  uint64_t outputs = 0, drops = 0, controllers = 0, floods = 0;
  uint64_t unexpected = 0;  // verdicts outside the allowed set
  Verdict allowed_a = Verdict::drop();
  Verdict allowed_b = Verdict::drop();

  void run() {
    net::Packet proto_pkt = make_packet(spec);
    std::vector<net::Packet> bufs(net::kBurstSize, proto_pkt);
    net::Packet* ptrs[net::kBurstSize];
    Verdict verdicts[net::kBurstSize];
    while (!stop.load(std::memory_order_relaxed)) {
      for (uint32_t i = 0; i < net::kBurstSize; ++i) {
        bufs[i] = proto_pkt;  // actions may have mutated the frame
        ptrs[i] = &bufs[i];
      }
      sw.process_burst(*ctx, ptrs, net::kBurstSize, verdicts);
      processed.fetch_add(net::kBurstSize, std::memory_order_relaxed);
      for (uint32_t i = 0; i < net::kBurstSize; ++i) {
        const Verdict& v = verdicts[i];
        switch (v.kind) {
          case Verdict::Kind::kOutput: ++outputs; break;
          case Verdict::Kind::kDrop: ++drops; break;
          case Verdict::Kind::kController: ++controllers; break;
          case Verdict::Kind::kFlood: ++floods; break;
        }
        if (!(v == allowed_a) && !(v == allowed_b)) ++unexpected;
      }
    }
  }
};

// Workers process a flow that is never touched by the churn; the control
// thread streams adds/deletes of *other* rules into the cuckoo hash template
// in place, under the registered workers.  No verdict may be lost,
// duplicated, or anything but the stable rule's output.
TEST(Concurrency, VerdictConservationUnderHashChurn) {
  Pipeline pl;
  for (int i = 0; i < 20; ++i)
    pl.table(0).add(parse_rule("priority=5,udp_dst=" + std::to_string(i) +
                               ",actions=output:1"));
  Eswitch sw;
  sw.install(pl);
  ASSERT_EQ(sw.table_template(0), TableTemplate::kCuckooHash);

  std::atomic<bool> stop{false};
  constexpr int kReaders = 2;
  std::vector<std::unique_ptr<BurstReader>> readers;  // atomic member: pin it
  for (int r = 0; r < kReaders; ++r) {
    Eswitch::Worker* ctx = sw.register_worker();
    ASSERT_NE(ctx, nullptr);
    readers.push_back(
        std::make_unique<BurstReader>(sw, ctx, test::udp_spec(1, 2, 9, 3), stop));
    readers.back()->allowed_a = Verdict::output(1);
    readers.back()->allowed_b = Verdict::output(1);
  }
  std::vector<std::thread> threads;
  for (auto& r : readers) threads.emplace_back([&r] { r->run(); });
  for (auto& r : readers) wait_for_progress(r->processed);

  // Progress-driven churn: at least `churn` rounds, and keep going (bounded)
  // until the epoch layer has reclaimed at least one erased entry while the
  // workers are live — on a loaded 1-core machine a fixed count can end
  // before any worker ticks through a full grace period.  Each round's
  // delete retires exactly one cuckoo entry, so fewer pending retirements
  // than rounds means some were reclaimed.
  const CompiledTable* table = sw.datapath().impl(sw.root_slot(0));
  Rng rng(esw::testing::test_seed(
      0xC0C0, "Concurrency.VerdictConservationUnderHashChurn"));
  const int churn = 300 * conc_scale();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  int i = 0;
  for (; (i < churn || table->retired_pending() >= static_cast<size_t>(i)) &&
         std::chrono::steady_clock::now() < deadline;
       ++i) {
    // Seeded random churn target: the interleaving is scheduler-driven, but
    // the mod stream itself replays from the logged seed.
    const std::string rule =
        "priority=5,udp_dst=" + std::to_string(1000 + rng.below(16)) + ",actions=output:7";
    sw.apply(add_mod(0, rule));
    sw.apply(del_mod(0, rule));
    if (i % 16 == 15) std::this_thread::yield();  // let workers tick
  }
  const int applied = i;
  const size_t pending_live = table->retired_pending();
  stop = true;
  for (auto& t : threads) t.join();

  uint64_t total = 0, outputs = 0;
  for (auto& r : readers) {
    EXPECT_EQ(r->unexpected, 0u) << "worker saw a verdict outside {output:1}";
    total += r->processed;
    outputs += r->outputs;
  }
  EXPECT_EQ(outputs, total);  // every packet matched the stable rule

  // Conservation against the datapath's own aggregated counters: exactly the
  // packets the workers pushed, every one counted as an output.
  const DataplaneStats st = sw.stats();
  EXPECT_EQ(st.packets, total);
  EXPECT_EQ(st.outputs, total);
  EXPECT_EQ(st.drops, 0u);

  // Every mod landed in place — no clone, no rebuild, the same impl still
  // published — and the epoch layer reclaimed erased entries while both
  // workers were live.
  EXPECT_EQ(sw.update_stats().cow_swaps, 0u);
  EXPECT_EQ(sw.update_stats().incremental, static_cast<uint64_t>(2 * applied));
  EXPECT_EQ(sw.datapath().impl(sw.root_slot(0)), table);
  EXPECT_LT(pending_live, static_cast<size_t>(applied));

  for (auto& r : readers) sw.unregister_worker(r->ctx);
}

// The linked list on the same in-place path: workers process a flow of one
// stable rule while the control thread streams adds/deletes that build and
// retire whole tuples (a better-ranked one included, so the published scan
// order moves), insert and unlink below the stable rule in its own chain,
// and fill its exact-match tuple.  No verdict may be lost, duplicated or
// anything but the stable rule's output; the table is never rebuilt.
TEST(Concurrency, VerdictConservationUnderLinkedListChurn) {
  Pipeline pl;
  for (int i = 0; i < 20; ++i)
    pl.table(0).add(parse_rule("priority=5,udp_dst=" + std::to_string(i) +
                               ",actions=output:1"));
  // A masked rule breaks the hash prerequisite: the table is a linked list.
  pl.table(0).add(parse_rule("priority=9,udp_dst=0x100/0x100,actions=output:2"));
  Eswitch sw;
  sw.install(pl);
  ASSERT_EQ(sw.table_template(0), TableTemplate::kLinkedList);
  const auto rebuilds_before = sw.update_stats().table_rebuilds;

  std::atomic<bool> stop{false};
  constexpr int kReaders = 2;
  std::vector<std::unique_ptr<BurstReader>> readers;  // atomic member: pin it
  for (int r = 0; r < kReaders; ++r) {
    Eswitch::Worker* ctx = sw.register_worker();
    ASSERT_NE(ctx, nullptr);
    readers.push_back(
        std::make_unique<BurstReader>(sw, ctx, test::udp_spec(1, 2, 9, 3), stop));
    readers.back()->allowed_a = Verdict::output(1);
    readers.back()->allowed_b = Verdict::output(1);
  }
  std::vector<std::thread> threads;
  for (auto& r : readers) threads.emplace_back([&r] { r->run(); });
  for (auto& r : readers) wait_for_progress(r->processed);

  // Progress-driven like the hash churn: each round's deletes retire at
  // least one node, so fewer pending retirements than rounds means the
  // epoch layer reclaimed while the workers were live.
  const CompiledTable* table = sw.datapath().impl(sw.root_slot(0));
  Rng rng(esw::testing::test_seed(
      0xC0C1, "Concurrency.VerdictConservationUnderLinkedListChurn"));
  const int churn = 300 * conc_scale();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  int i = 0;
  for (; (i < churn || table->retired_pending() >= static_cast<size_t>(i)) &&
         std::chrono::steady_clock::now() < deadline;
       ++i) {
    const std::string k = std::to_string(rng.below(16));
    const std::string rule[] = {
        // Own tuple, ranked ahead of every stable entry: the scan order
        // republishes on add and delete.
        "priority=50,ip_src=10.9.9." + k + ",actions=output:7",
        // Below the stable rule in its own chain.
        "priority=3,udp_dst=3,actions=output:7",
        // The stable rules' exact-match tuple.
        "priority=5,udp_dst=" + std::to_string(1000 + rng.below(16)) + ",actions=output:7",
    };
    const std::string& pick = rule[i % 3];
    sw.apply(add_mod(0, pick));
    sw.apply(del_mod(0, pick));
    if (i % 16 == 15) std::this_thread::yield();  // let workers tick
  }
  const int applied = i;
  const size_t pending_live = table->retired_pending();
  stop = true;
  for (auto& t : threads) t.join();

  uint64_t total = 0, outputs = 0;
  for (auto& r : readers) {
    EXPECT_EQ(r->unexpected, 0u) << "worker saw a verdict outside {output:1}";
    total += r->processed;
    outputs += r->outputs;
  }
  EXPECT_EQ(outputs, total);
  const DataplaneStats st = sw.stats();
  EXPECT_EQ(st.packets, total);
  EXPECT_EQ(st.outputs, total);
  EXPECT_EQ(st.drops, 0u);

  // Every mod landed in place on the published impl, none rebuilt it, and
  // the epoch layer reclaimed behind the live workers.
  EXPECT_EQ(sw.update_stats().incremental, static_cast<uint64_t>(2 * applied));
  EXPECT_EQ(sw.update_stats().table_rebuilds, rebuilds_before);
  EXPECT_EQ(sw.datapath().impl(sw.root_slot(0)), table);
  EXPECT_LT(pending_live, static_cast<size_t>(applied));

  for (auto& r : readers) sw.unregister_worker(r->ctx);
}

// A modify of a linked-list rule under live workers: the replace publishes
// the rule's new actions in place, keeping its rank.  Workers must see the
// old or the new action, never the lower-priority overlapping rule nor the
// later equal-priority one.
TEST(Concurrency, LinkedListModifyOldOrNew) {
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=10,udp_dst=5,actions=output:1"));
  pl.table(0).add(parse_rule("priority=10,ip_src=0.0.0.1,actions=output:8"));
  pl.table(0).add(parse_rule("priority=5,udp_src=9,actions=output:9"));
  pl.table(0).add(parse_rule("priority=4,udp_dst=5,actions=output:9"));
  pl.table(0).add(parse_rule("priority=1,actions=drop"));
  Eswitch sw;
  sw.install(pl);
  ASSERT_EQ(sw.table_template(0), TableTemplate::kLinkedList);
  const CompiledTable* table = sw.datapath().impl(sw.root_slot(0));
  const auto rebuilds_before = sw.update_stats().table_rebuilds;

  std::atomic<bool> stop{false};
  constexpr int kReaders = 2;
  std::vector<std::unique_ptr<BurstReader>> readers;
  for (int r = 0; r < kReaders; ++r) {
    Eswitch::Worker* ctx = sw.register_worker();
    ASSERT_NE(ctx, nullptr);
    readers.push_back(
        std::make_unique<BurstReader>(sw, ctx, test::udp_spec(1, 2, 9, 5), stop));
    readers.back()->allowed_a = Verdict::output(1);
    readers.back()->allowed_b = Verdict::output(2);
  }
  std::vector<std::thread> threads;
  for (auto& r : readers) threads.emplace_back([&r] { r->run(); });
  for (auto& r : readers) wait_for_progress(r->processed);

  const int rounds = 400 * conc_scale();
  for (int round = 0; round < rounds; ++round) {
    sw.apply(add_mod(0, "priority=10,udp_dst=5,actions=output:2"));
    sw.apply(add_mod(0, "priority=10,udp_dst=5,actions=output:1"));
    if (round % 16 == 15) std::this_thread::yield();
  }
  stop = true;
  for (auto& t : threads) t.join();
  for (auto& r : readers) {
    EXPECT_GT(r->processed, 0u);
    EXPECT_EQ(r->unexpected, 0u) << "a modify exposed another rule's action";
    sw.unregister_worker(r->ctx);
  }
  EXPECT_EQ(sw.update_stats().table_rebuilds, rebuilds_before);
  EXPECT_EQ(sw.update_stats().incremental, static_cast<uint64_t>(2 * rounds));
  EXPECT_EQ(sw.datapath().impl(sw.root_slot(0)), table);
}

// The rebuild path under load: a direct-code table rebuilds on every mod, so
// each apply is a side-by-side rebuild + trampoline swap + epoch retirement.
// At least one rebuilt table must be reclaimed through a grace period while
// workers are registered and spinning (not via caller quiescence), and the
// backlog must drain once the writer reclaims after the workers leave.
TEST(Concurrency, RebuildsReclaimedViaEpochGraceNotQuiescence) {
  Pipeline pl;
  for (int i = 0; i < 10; ++i)
    pl.table(0).add(parse_rule("priority=5,udp_dst=" + std::to_string(i) +
                               ",actions=output:1"));
  CompilerConfig cfg;
  cfg.direct_code_max_entries = 64;
  Eswitch sw(cfg);
  sw.install(pl);
  ASSERT_EQ(sw.table_template(0), TableTemplate::kDirectCode);

  std::atomic<bool> stop{false};
  Eswitch::Worker* ctx = sw.register_worker();
  ASSERT_NE(ctx, nullptr);
  BurstReader reader{sw, ctx, test::udp_spec(1, 2, 9, 3), stop};
  reader.allowed_a = Verdict::output(1);
  reader.allowed_b = Verdict::output(1);
  std::thread t([&reader] { reader.run(); });
  wait_for_progress(reader.processed);

  // Progress-driven, as in the hash-churn test: run until at least one
  // rebuilt table was reclaimed with the worker live (bounded).
  const int churn = 200 * conc_scale();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  int applied = 0;
  for (; (applied < churn || sw.reclaim_stats().reclaimed == 0) &&
         std::chrono::steady_clock::now() < deadline;
       ++applied) {
    const std::string rule =
        "priority=9,udp_dst=" + std::to_string(0x4000 + applied % 5) +
        ",actions=output:2";
    sw.apply(add_mod(0, rule));
    sw.apply(del_mod(0, rule));
    if (applied % 16 == 15) std::this_thread::yield();  // let the worker tick
  }
  const auto live = sw.reclaim_stats();
  stop = true;
  t.join();
  sw.unregister_worker(ctx);

  EXPECT_EQ(reader.unexpected, 0u);
  EXPECT_GE(sw.update_stats().table_rebuilds, static_cast<uint64_t>(2 * applied));
  // Reclaimed strictly while the worker was registered and processing.
  EXPECT_GT(live.reclaimed, 0u);
  EXPECT_GT(live.retired, live.pending);

  // With no workers left, the next update's reclaim drains the backlog.
  sw.apply(add_mod(0, "priority=9,udp_dst=0x4abc,actions=output:2"));
  EXPECT_EQ(sw.reclaim_stats().pending, 0u);
}

// An installed rule must become visible to every worker (bounded staleness:
// one trampoline snapshot, i.e. one burst); a deleted rule must stop matching.
TEST(Concurrency, EventualVisibilityOfInstalledRules) {
  Pipeline pl;
  for (int i = 0; i < 20; ++i)
    pl.table(0).add(parse_rule("priority=5,udp_dst=" + std::to_string(i) +
                               ",actions=output:1"));
  Eswitch sw;
  sw.install(pl);

  constexpr int kReaders = 2;
  std::atomic<bool> stop{false};
  std::atomic<int> seen_new{0};   // workers currently observing output:7
  std::atomic<int> seen_gone{0};  // workers back to observing drop
  std::vector<std::thread> threads;
  std::vector<Eswitch::Worker*> ctxs;
  for (int r = 0; r < kReaders; ++r) {
    Eswitch::Worker* ctx = sw.register_worker();
    ASSERT_NE(ctx, nullptr);
    ctxs.push_back(ctx);
    threads.emplace_back([&, ctx] {
      net::Packet proto_pkt = make_packet(test::udp_spec(1, 2, 9, 777));
      std::vector<net::Packet> bufs(net::kBurstSize, proto_pkt);
      net::Packet* ptrs[net::kBurstSize];
      Verdict verdicts[net::kBurstSize];
      bool counted_new = false, counted_gone = false;
      while (!stop.load(std::memory_order_relaxed)) {
        for (uint32_t i = 0; i < net::kBurstSize; ++i) {
          bufs[i] = proto_pkt;
          ptrs[i] = &bufs[i];
        }
        sw.process_burst(*ctx, ptrs, net::kBurstSize, verdicts);
        if (!counted_new && verdicts[0] == Verdict::output(7)) {
          counted_new = true;
          seen_new.fetch_add(1);
        }
        if (counted_new && !counted_gone && verdicts[0] == Verdict::drop()) {
          counted_gone = true;
          seen_gone.fetch_add(1);
        }
      }
    });
  }

  const auto deadline = [] {
    return std::chrono::steady_clock::now() + std::chrono::seconds(30);
  }();
  sw.apply(add_mod(0, "priority=9,udp_dst=777,actions=output:7"));
  while (seen_new.load() < kReaders && std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  EXPECT_EQ(seen_new.load(), kReaders) << "installed rule never became visible";

  sw.apply(del_mod(0, "priority=9,udp_dst=777,actions=output:7"));
  while (seen_gone.load() < kReaders && std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  EXPECT_EQ(seen_gone.load(), kReaders) << "deleted rule kept matching";

  stop = true;
  for (auto& t : threads) t.join();
  for (auto* ctx : ctxs) sw.unregister_worker(ctx);
}

// LPM stays on the in-place incremental path even with workers registered
// (reader-safe per-cell publication).  Flows under churned /24s must see the
// old or the new route, never anything else; flows under untouched /8s must
// be entirely unaffected; and the churn must not trigger rebuilds or clones.
TEST(Concurrency, LpmInPlaceChurnOldOrNewVerdicts) {
  Pipeline pl;
  for (int i = 0; i < 32; ++i) {
    FlowEntry e;
    e.match.set(FieldId::kIpDst, static_cast<uint32_t>(i) << 24, 0xFF000000);
    e.priority = 8;
    e.actions = {Action::output(1)};
    pl.table(0).add(e);
  }
  for (int i = 0; i < 8; ++i) {
    FlowEntry e;  // mixed lengths: analysis lands on LPM, as in a real RIB
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

  std::atomic<bool> stop{false};
  // Reader A: a flow inside the /24 churn range — old (/8 -> output:1) or
  // new (/24 -> output:2) route, nothing else.  Reader B: an untouched /8.
  // Reader C: a flow inside a churned /25 — the tbl8-extension path, whose
  // groups are allocated, folded back and recycled every round (the seqlock
  // re-validation in LpmTable::lookup is what keeps C's verdicts sane).
  Eswitch::Worker* ca = sw.register_worker();
  Eswitch::Worker* cb = sw.register_worker();
  Eswitch::Worker* cc = sw.register_worker();
  ASSERT_NE(ca, nullptr);
  ASSERT_NE(cb, nullptr);
  ASSERT_NE(cc, nullptr);
  BurstReader churned{sw, ca, test::udp_spec(1, (5u << 24) | (7u << 8) | 3, 4, 4),
                      stop};
  churned.allowed_a = Verdict::output(1);
  churned.allowed_b = Verdict::output(2);
  BurstReader stable{sw, cb, test::udp_spec(1, (9u << 24) | 12345, 4, 4), stop};
  stable.allowed_a = Verdict::output(1);
  stable.allowed_b = Verdict::output(1);
  BurstReader deep{sw, cc, test::udp_spec(1, (5u << 24) | (200u << 8) | 5, 4, 4),
                   stop};
  deep.allowed_a = Verdict::output(1);
  deep.allowed_b = Verdict::output(4);
  std::thread ta([&churned] { churned.run(); });
  std::thread tb([&stable] { stable.run(); });
  std::thread tc([&deep] { deep.run(); });
  wait_for_progress(churned.processed);
  wait_for_progress(stable.processed);
  wait_for_progress(deep.processed);

  const auto mod24 = [](int i, FlowMod::Cmd cmd) {
    FlowMod fm;
    fm.command = cmd;
    fm.table_id = 0;
    fm.priority = 24;
    fm.match.set(FieldId::kIpDst, (5u << 24) | (static_cast<uint32_t>(i) << 8),
                 0xFFFFFF00);
    if (cmd == FlowMod::Cmd::kAdd) fm.actions = {Action::output(2)};
    return fm;
  };
  const auto mod25 = [](int i, FlowMod::Cmd cmd) {
    FlowMod fm;
    fm.command = cmd;
    fm.table_id = 0;
    fm.priority = 25;
    fm.match.set(FieldId::kIpDst, (5u << 24) | (static_cast<uint32_t>(200 + i) << 8),
                 0xFFFFFF80);
    if (cmd == FlowMod::Cmd::kAdd) fm.actions = {Action::output(4)};
    return fm;
  };
  const int rounds = 60 * conc_scale();
  for (int round = 0; round < rounds; ++round) {
    for (int i = 0; i < 16; ++i) sw.apply(mod24(i, FlowMod::Cmd::kAdd));
    for (int i = 0; i < 4; ++i) sw.apply(mod25(i, FlowMod::Cmd::kAdd));
    for (int i = 0; i < 16; ++i) sw.apply(mod24(i, FlowMod::Cmd::kDelete));
    for (int i = 0; i < 4; ++i) sw.apply(mod25(i, FlowMod::Cmd::kDelete));
    std::this_thread::yield();  // let readers interleave on small machines
  }
  stop = true;
  ta.join();
  tb.join();
  tc.join();
  sw.unregister_worker(ca);
  sw.unregister_worker(cb);
  sw.unregister_worker(cc);

  EXPECT_EQ(churned.unexpected, 0u) << "route update leaked a malformed verdict";
  EXPECT_EQ(stable.unexpected, 0u) << "untouched route was disturbed";
  EXPECT_EQ(deep.unexpected, 0u) << "tbl8 fold/recycle leaked a foreign route";
  EXPECT_GT(churned.processed, 0u);
  EXPECT_GT(deep.processed, 0u);
  // In place: incremental throughout, no rebuilds, no clone-swaps.
  EXPECT_EQ(sw.update_stats().table_rebuilds, rebuilds_before);
  EXPECT_EQ(sw.update_stats().cow_swaps, 0u);
  EXPECT_GE(sw.update_stats().incremental, static_cast<uint64_t>(40 * rounds));
}

// apply_batch under concurrency: the transactional path commits through the
// same epoch-published machinery; a failing batch must leave verdicts and
// structures exactly as before.
TEST(Concurrency, TransactionalBatchUnderLoad) {
  Pipeline pl;
  for (int i = 0; i < 20; ++i)
    pl.table(0).add(parse_rule("priority=5,udp_dst=" + std::to_string(i) +
                               ",actions=output:1"));
  Eswitch sw;
  sw.install(pl);

  std::atomic<bool> stop{false};
  Eswitch::Worker* ctx = sw.register_worker();
  ASSERT_NE(ctx, nullptr);
  BurstReader reader{sw, ctx, test::udp_spec(1, 2, 9, 3), stop};
  reader.allowed_a = Verdict::output(1);
  reader.allowed_b = Verdict::output(1);
  std::thread t([&reader] { reader.run(); });
  wait_for_progress(reader.processed);

  const int rounds = 100 * conc_scale();
  for (int i = 0; i < rounds; ++i) {
    std::vector<FlowMod> batch;
    batch.push_back(add_mod(0, "priority=5,udp_dst=2000,actions=output:4"));
    batch.push_back(add_mod(0, "priority=5,udp_dst=2001,actions=output:4"));
    sw.apply_batch(batch);
    // Invalid batch: nothing may land (validated against a scratch pipeline).
    std::vector<FlowMod> bad;
    bad.push_back(add_mod(0, "priority=5,udp_dst=2002,actions=output:4"));
    bad.push_back(add_mod(0, "priority=5,udp_dst=2003,actions=,goto:99"));
    EXPECT_THROW(sw.apply_batch(bad), CheckError);
    std::vector<FlowMod> undo;
    undo.push_back(del_mod(0, "priority=5,udp_dst=2000,actions=output:4"));
    undo.push_back(del_mod(0, "priority=5,udp_dst=2001,actions=output:4"));
    sw.apply_batch(undo);
  }
  stop = true;
  t.join();
  sw.unregister_worker(ctx);

  EXPECT_EQ(reader.unexpected, 0u);
  EXPECT_EQ(sw.pipeline().find_table(0)->size(), 20u);  // every round undone
  auto p = make_packet(test::udp_spec(1, 2, 9, 2002));
  EXPECT_EQ(sw.process(p), Verdict::drop());
}

// The multi-worker runtime end to end: two workers over a shared Eswitch,
// per-worker sources, TX self-sinking, control-thread churn — packet and
// buffer conservation all the way through.
TEST(Concurrency, SwitchRuntimeConservation) {
  SwitchRuntime<Eswitch>::Config cfg;
  cfg.n_workers = 2;
  cfg.n_ports = 4;
  cfg.pool_capacity = 2048;
  SwitchRuntime<Eswitch> rt(cfg);

  Pipeline pl;
  pl.table(0).add(parse_rule("priority=5,udp_dst=5,actions=output:2"));
  pl.table(0).add(parse_rule("priority=5,udp_dst=6,actions=output:3"));
  rt.backend().install(pl);

  // Each worker replays one frame: worker 0's matches (forwarded), worker
  // 1's misses (dropped).
  const net::Packet match_pkt = make_packet(test::udp_spec(1, 2, 9, 5));
  const net::Packet miss_pkt = make_packet(test::udp_spec(1, 2, 9, 4444));
  rt.set_source([&](uint32_t worker, net::Packet** bufs, uint32_t n) {
    const net::Packet& src = worker == 0 ? match_pkt : miss_pkt;
    for (uint32_t i = 0; i < n; ++i) {
      bufs[i]->assign(src.data(), src.len());
      bufs[i]->set_in_port(1 + worker);
    }
    return n;
  });

  rt.start();
  while (rt.counters().processed == 0) std::this_thread::yield();
  const auto t_end =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(100 * conc_scale());
  int mods = 0;
  while (std::chrono::steady_clock::now() < t_end) {
    const std::string rule = "priority=5,udp_dst=" + std::to_string(100 + mods % 8) +
                             ",actions=output:4";
    rt.backend().apply(add_mod(0, rule));
    rt.backend().apply(del_mod(0, rule));
    ++mods;
  }
  rt.stop();

  const auto c = rt.counters();
  EXPECT_GT(c.processed, 0u);
  EXPECT_GT(c.tx_packets, 0u);
  EXPECT_GT(c.drops, 0u);
  EXPECT_GT(mods, 0);
  // Verdict conservation: every processed packet was transmitted, rejected at
  // TX, dropped, or punted.
  EXPECT_EQ(c.processed,
            c.tx_packets + c.tx_rejected + c.drops + c.packet_ins + c.bad_port);
  // The runtime's view agrees with the backend's aggregated worker stats.
  const DataplaneStats st = rt.backend().stats();
  EXPECT_EQ(st.packets, c.processed);

  // Buffer conservation: after draining what stop() left in the rings, every
  // pool buffer is back (nothing leaked, nothing double-freed).
  for (uint32_t no = 1; no <= rt.ports().size(); ++no) {
    net::Packet* out[net::kBurstSize];
    uint32_t n;
    while ((n = rt.ports().port(no).rx_burst(out, net::kBurstSize)) > 0)
      for (uint32_t i = 0; i < n; ++i) rt.pool().free(out[i]);
    while ((n = rt.ports().port(no).drain_tx(out, net::kBurstSize)) > 0)
      for (uint32_t i = 0; i < n; ++i) rt.pool().free(out[i]);
  }
  EXPECT_EQ(rt.pool().available(), rt.pool().capacity());
}

// --- per-port batched TX (SwitchRuntime::execute_burst) ---------------------

/// The verdict each mixed-burst packet gets, chosen by its UDP port.
enum class MixKind : uint16_t { kOut2 = 1, kOut3, kFlood, kController, kDrop, kBadPort, kMiss };

Pipeline mixed_verdict_pipeline() {
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=5,udp_dst=1,actions=output:2"));
  pl.table(0).add(parse_rule("priority=5,udp_dst=2,actions=output:3"));
  pl.table(0).add(parse_rule("priority=5,udp_dst=3,actions=flood"));
  pl.table(0).add(parse_rule("priority=5,udp_dst=4,actions=controller"));
  pl.table(0).add(parse_rule("priority=5,udp_dst=5,actions=drop"));
  pl.table(0).add(parse_rule("priority=5,udp_dst=6,actions=output:9"));  // 4 ports: absent
  return pl;  // udp_dst=7 misses: drop
}

/// One worker, four ports, TX left queued: `n` packets (sequence number in
/// ip_src, verdict kind in udp_dst) are injected on port 1 before start(),
/// so the worker takes them as one burst.
struct MixedBurstRun {
  static constexpr uint32_t kPorts = 4;
  SwitchRuntime<Eswitch> rt;
  std::vector<MixKind> kinds;

  static SwitchRuntime<Eswitch>::Config config() {
    SwitchRuntime<Eswitch>::Config cfg;
    cfg.n_workers = 1;
    cfg.n_ports = kPorts;
    cfg.pool_capacity = 512;
    cfg.sink_tx = false;
    return cfg;
  }

  explicit MixedBurstRun(uint64_t seed) : rt(config()) {
    rt.backend().install(mixed_verdict_pipeline());
    Rng rng(seed);
    for (uint32_t seq = 0; seq < net::kBurstSize; ++seq) {
      // The first seven cover every kind; the rest are random.
      const auto kind = static_cast<MixKind>(seq < 7 ? seq + 1 : 1 + rng.below(7));
      kinds.push_back(kind);
      const net::Packet p =
          make_packet(test::udp_spec(seq, 2, 9, static_cast<uint16_t>(kind)));
      EXPECT_TRUE(rt.inject(1, p.data(), p.len()));
    }
    rt.start();
    while (rt.counters().processed < net::kBurstSize) std::this_thread::yield();
    rt.stop();
  }

  uint64_t count(MixKind k) const {
    return static_cast<uint64_t>(std::count(kinds.begin(), kinds.end(), k));
  }
  /// Frames each port must receive, in packet order (the TX order guarantee).
  std::vector<uint32_t> expected_tx(uint32_t port) const {
    std::vector<uint32_t> seqs;
    for (uint32_t seq = 0; seq < kinds.size(); ++seq) {
      const MixKind k = kinds[seq];
      if ((k == MixKind::kOut2 && port == 2) || (k == MixKind::kOut3 && port == 3) ||
          (k == MixKind::kFlood && port != 1))
        seqs.push_back(seq);
    }
    return seqs;
  }
  /// Drains a port's TX ring back into the pool; returns the frames' sequence
  /// numbers in ring order.
  std::vector<uint32_t> drain(uint32_t port) {
    std::vector<uint32_t> seqs;
    net::Packet* out[net::kBurstSize];
    uint32_t n;
    while ((n = rt.ports().port(port).drain_tx(out, net::kBurstSize)) > 0) {
      for (uint32_t i = 0; i < n; ++i) {
        const proto::ParseInfo pi = test::parse_packet(*out[i]);
        seqs.push_back(
            static_cast<uint32_t>(extract_field(FieldId::kIpSrc, out[i]->data(), pi)));
        rt.pool().free(out[i]);
      }
    }
    return seqs;
  }
};

TEST(Concurrency, SwitchRuntimeBatchedTxKeepsPacketOrder) {
  // One burst mixing output, flood, drop, controller, bad-port and miss
  // verdicts onto the same ports: each port's TX holds exactly its frames in
  // packet order, and every frame is accounted once.
  MixedBurstRun run(testing::test_seed(0x7B0ULL, "runtime batched tx order"));
  for (uint32_t port = 1; port <= MixedBurstRun::kPorts; ++port)
    EXPECT_EQ(run.drain(port), run.expected_tx(port)) << "port " << port;

  const auto c = run.rt.counters();
  const uint64_t floods = run.count(MixKind::kFlood);
  EXPECT_EQ(c.processed, net::kBurstSize);
  EXPECT_EQ(c.tx_packets,
            run.count(MixKind::kOut2) + run.count(MixKind::kOut3) + 3 * floods);
  EXPECT_EQ(c.flood_copies, 2 * floods);  // the original takes the first egress port
  EXPECT_EQ(c.drops, run.count(MixKind::kDrop) + run.count(MixKind::kMiss));
  EXPECT_EQ(c.packet_ins, run.count(MixKind::kController));
  EXPECT_EQ(c.bad_port, run.count(MixKind::kBadPort));
  EXPECT_EQ(c.tx_rejected, 0u);
  EXPECT_EQ(c.processed + c.flood_copies,
            c.tx_packets + c.tx_rejected + c.bad_port + c.drops + c.packet_ins);
  EXPECT_EQ(run.rt.drain_packet_ins().size(), run.count(MixKind::kController));
  EXPECT_EQ(run.rt.pool().available(), run.rt.pool().capacity());
}

TEST(Concurrency, SwitchRuntimeRefusedTxGroupsFreeEveryBuffer) {
  // Every TX enqueue refused (the ring.enqueue_mp failpoint, as if full):
  // each per-port group is returned to the pool frame by frame and counted
  // in tx_rejected, and conservation still holds.
  common::FailpointRegistry& fpr = common::FailpointRegistry::instance();
  ASSERT_TRUE(fpr.arm("ring.enqueue_mp", "always"));
  MixedBurstRun run(testing::test_seed(0x7B1ULL, "runtime refused tx"));
  fpr.disarm("ring.enqueue_mp");
  for (uint32_t port = 1; port <= MixedBurstRun::kPorts; ++port)
    EXPECT_TRUE(run.drain(port).empty()) << "port " << port;

  const auto c = run.rt.counters();
  const uint64_t floods = run.count(MixKind::kFlood);
  EXPECT_EQ(c.tx_packets, 0u);
  EXPECT_EQ(c.tx_rejected,
            run.count(MixKind::kOut2) + run.count(MixKind::kOut3) + 3 * floods);
  EXPECT_EQ(c.processed + c.flood_copies,
            c.tx_packets + c.tx_rejected + c.bad_port + c.drops + c.packet_ins);
  EXPECT_EQ(run.rt.pool().available(), run.rt.pool().capacity());
}

}  // namespace
}  // namespace esw
