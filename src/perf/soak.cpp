#include "perf/soak.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/failpoint.hpp"
#include "core/eswitch.hpp"
#include "core/switch_runtime.hpp"
#include "netio/pcap.hpp"
#include "netio/trace_source.hpp"
#include "perf/bench_json.hpp"
#include "state/conntrack.hpp"
#include "usecases/usecases.hpp"

namespace esw::perf {

namespace {

using Clock = std::chrono::steady_clock;
using Runtime = core::SwitchRuntime<core::Eswitch>;

std::string u64s(uint64_t v) { return std::to_string(v); }

/// Issues one chunk of paced add/delete pairs across both live-update shapes:
///   * /24 routes in 230.0.0.0/8 into the L3 table (colliding with nothing) —
///     the in-place incremental LPM path (epoch-published cells);
///   * exact-match entries into a side table unreachable from the pipeline
///     start.  It holds at most one churned entry, so it stays direct code
///     and every mod is a side-by-side rebuild whose displaced impl retires
///     through the epoch domain (with seed_hash_table's entries it is a
///     cuckoo table updated in place instead).  This is what keeps
///     reclamation itself under sustained load (and what the stuck-worker
///     planted fault stalls);
///   * masked rules into seed_linked_list_table's side table — the in-place
///     tuple-space path.  A /24 lands in a seeded tuple; a /16 builds a tuple
///     of its own, which the delete retires along with the chain node.
void churn_chunk(core::Eswitch& sw, uint64_t* mods, int pairs) {
  for (int k = 0; k < pairs; ++k) {
    flow::FlowMod fm;
    fm.table_id = 0;
    fm.priority = 24;
    fm.match.set(flow::FieldId::kIpDst,
                 (230u << 24) | (static_cast<uint32_t>(*mods % 4096) << 8),
                 0xFFFFFF00);
    fm.actions = {flow::Action::output(static_cast<uint32_t>(1 + *mods % 8))};
    sw.apply(fm);
    fm.command = flow::FlowMod::Cmd::kDelete;
    sw.apply(fm);

    flow::FlowMod side;
    side.table_id = 200;  // far above the use case's tables; never a goto target
    side.priority = 1;
    side.match.set(flow::FieldId::kIpDst,
                   (231u << 24) | static_cast<uint32_t>(*mods % 4096), 0xFFFFFFFF);
    side.actions = {flow::Action::output(1)};
    sw.apply(side);
    side.command = flow::FlowMod::Cmd::kDelete;
    sw.apply(side);

    flow::FlowMod masked;
    masked.table_id = 201;  // never a goto target, like table 200
    masked.priority = 2;
    masked.match.set(flow::FieldId::kIpDst,
                     (234u << 24) | (static_cast<uint32_t>(*mods % 4096) << 8),
                     *mods % 2 == 0 ? 0xFFFFFF00 : 0xFFFF0000);
    masked.actions = {flow::Action::output(1)};
    sw.apply(masked);
    masked.command = flow::FlowMod::Cmd::kDelete;
    sw.apply(masked);
    *mods += 6;
  }
}

/// The chaos rotation: one failpoint armed per window, each chosen so the
/// soak's own traffic + churn is guaranteed to hit the site, and each mapped
/// (in close_chaos_window) to the degradation counter that must absorb it.
/// runtime.worker_stall is deliberately absent — a one-shot 20ms stall is
/// shorter than the checkpoint cadence, so the watchdog test drives it
/// directly instead (test_robustness).
struct ChaosSlot {
  const char* name;
  const char* spec;
};
constexpr ChaosSlot kChaosSchedule[] = {
    {"mbuf.alloc", "prob:0.2:101"},     // pool exhaustion -> backpressure
    {"ring.enqueue_mp", "prob:0.01:102"},  // TX ring refusals -> tx_rejected
    {"jit.exec_map", "always"},         // JIT mapping dead -> no program
    {"lpm.tbl8", "prob:0.5:103"},       // tbl8 exhaustion -> rebuild/fallback
    {"hash.insert", "prob:0.5:104"},    // incremental refusal -> rebuild
    {"epoch.reclaim", "prob:0.5:105"},  // deferred reclamation -> pending
    {"ct.insert", "prob:0.5:106"},      // conntrack slot pressure -> eviction
};
constexpr size_t kChaosSlots = sizeof(kChaosSchedule) / sizeof(kChaosSchedule[0]);

/// Counter snapshot bracketing one chaos window, for the delta accounting.
struct ChaosWindowBase {
  uint64_t pool_exhausted = 0;
  uint64_t backpressure_events = 0;
  uint64_t alloc_failures = 0;
  uint64_t tx_rejected = 0;
  uint64_t fusion_fallbacks = 0;
  uint64_t template_fallbacks = 0;
  uint64_t table_rebuilds = 0;
  uint64_t ct_absorbed = 0;  // conntrack forced evictions + commit drops
  uint64_t fires = 0;
  uint64_t pending_seen = 0;  // max reclaim-pending observed inside the window
};

ChaosWindowBase chaos_snapshot(core::SwitchRuntime<core::Eswitch>& rt,
                               const char* point) {
  const auto c = rt.counters();
  const auto& deg = rt.backend().degradation_stats();
  ChaosWindowBase b;
  b.pool_exhausted = c.pool_exhausted;
  b.backpressure_events = c.backpressure_events;
  b.alloc_failures = rt.pool().alloc_failures();
  b.tx_rejected = c.tx_rejected;
  b.fusion_fallbacks = deg.fusion_fallbacks;
  b.template_fallbacks = deg.template_fallbacks;
  b.table_rebuilds = rt.backend().update_stats().table_rebuilds;
  if (const state::Conntrack* ct = rt.backend().conntrack()) {
    const state::Conntrack::Stats cs = ct->stats();
    b.ct_absorbed = cs.evictions_forced + cs.commit_drops;
  }
  b.fires = common::FailpointRegistry::instance().fires(point);
  return b;
}

/// Audits one closed window: if the armed point fired at all, the mapped
/// degradation counter must have moved — an unaccounted fault is a policy
/// hole, and the check fails loudly instead of the process dying quietly.
SoakCheck close_chaos_window(core::SwitchRuntime<core::Eswitch>& rt,
                             const ChaosSlot& slot, const ChaosWindowBase& base,
                             uint64_t window_no) {
  const ChaosWindowBase now = chaos_snapshot(rt, slot.name);
  const uint64_t fires = now.fires - base.fires;
  const std::string name = slot.name;
  uint64_t delta = 0;
  if (name == "mbuf.alloc")
    delta = (now.pool_exhausted - base.pool_exhausted) +
            (now.backpressure_events - base.backpressure_events) +
            (now.alloc_failures - base.alloc_failures);
  else if (name == "ring.enqueue_mp")
    delta = now.tx_rejected - base.tx_rejected;
  else if (name == "jit.exec_map")
    // The fused program is the only machine code: a refused mapping is a
    // plan published without its program.
    delta = now.fusion_fallbacks - base.fusion_fallbacks;
  else if (name == "lpm.tbl8")
    delta = (now.table_rebuilds - base.table_rebuilds) +
            (now.template_fallbacks - base.template_fallbacks);
  else if (name == "hash.insert")
    delta = (now.table_rebuilds - base.table_rebuilds) +
            (now.template_fallbacks - base.template_fallbacks);
  else if (name == "epoch.reclaim")
    delta = base.pending_seen;  // deferred work observed; final reclaim drains it
  else if (name == "ct.insert")
    delta = now.ct_absorbed - base.ct_absorbed;
  SoakCheck c;
  c.name = "chaos-" + name;
  c.ok = fires == 0 || delta > 0;
  c.detail = "window=" + u64s(window_no) + " fires=" + u64s(fires) +
             " absorbed_delta=" + u64s(delta);
  return c;
}

/// Chaos-mode churn riding alongside churn_chunk: shapes chosen so every
/// scheduled failpoint's site is on a hot path.
///   * /30 routes in 232.0.0.0/8 — each add extends a tbl8 group (lpm.tbl8),
///     each refusal forces a side-by-side rebuild;
///   * a tiny exact-match table 210 (<= direct_code_max_entries) — every mod
///     rebuilds a direct-code member and re-emits the fused program
///     (jit.exec_map); the first clean re-emit after a refusal is the
///     plan's recovery.
/// Table 200's hash churn comes from churn_chunk itself once
/// seed_hash_table() has pushed it past the direct-code threshold.
void chaos_churn_chunk(core::Eswitch& sw, uint64_t* mods, int pairs) {
  for (int k = 0; k < pairs; ++k) {
    flow::FlowMod fm;
    fm.table_id = 0;
    fm.priority = 30;
    fm.match.set(flow::FieldId::kIpDst,
                 (232u << 24) | (static_cast<uint32_t>(*mods % 4096) << 2),
                 0xFFFFFFFC);
    fm.actions = {flow::Action::output(static_cast<uint32_t>(1 + *mods % 8))};
    sw.apply(fm);
    fm.command = flow::FlowMod::Cmd::kDelete;
    sw.apply(fm);

    flow::FlowMod tiny;
    tiny.table_id = 210;  // never a goto target; pure update-plane load
    tiny.priority = 1;
    tiny.match.set(flow::FieldId::kIpDst,
                   (233u << 24) | static_cast<uint32_t>(*mods % 3), 0xFFFFFFFF);
    tiny.actions = {flow::Action::output(1)};
    sw.apply(tiny);
    tiny.command = flow::FlowMod::Cmd::kDelete;
    sw.apply(tiny);
    *mods += 4;
  }
}

/// Seeds table 200 with enough persistent exact-match entries that analysis
/// picks the cuckoo hash template (past direct_code_max_entries) — churn's
/// add/delete on the table then rides CuckooTemplateTable::try_add, where the
/// hash.insert failpoint lives.  Keys sit above the churned range (bit 16).
void seed_hash_table(core::Eswitch& sw) {
  for (uint32_t i = 0; i < 8; ++i) {
    flow::FlowMod fm;
    fm.table_id = 200;
    fm.priority = 1;
    fm.match.set(flow::FieldId::kIpDst, (231u << 24) | 0x10000u | i, 0xFFFFFFFF);
    fm.actions = {flow::Action::output(1)};
    sw.apply(fm);
  }
}

/// Seeds side table 201 with mixed-field masked rules, which only the linked
/// list can take, for churn_chunk's tuple-space churn.  Unreachable from the
/// pipeline start, like table 200.
void seed_linked_list_table(core::Eswitch& sw) {
  for (uint32_t i = 0; i < 6; ++i) {
    flow::FlowMod fm;
    fm.table_id = 201;
    fm.priority = 1;
    if (i % 2 == 0)
      fm.match.set(flow::FieldId::kIpDst, (235u << 24) | (i << 8), 0xFFFFFF00);
    else
      fm.match.set(flow::FieldId::kUdpDst, i << 8, 0xFF00);
    fm.actions = {flow::Action::output(1)};
    sw.apply(fm);
  }
  ESW_CHECK(sw.table_template(201) == core::TableTemplate::kLinkedList);
}

/// Reads and applies the percentile-ceiling file: a flat JSON object mapping
/// any of p50/p90/p99/p999/max to a maximum allowed nanosecond value.
SoakCheck check_latency_floor(const std::string& path,
                              const LatencyPercentiles& ns) {
  SoakCheck c{"latency-floor", false, ""};
  std::ifstream in(path);
  if (!in) {
    c.detail = "cannot read floor file " + path;
    return c;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const auto doc = Json::parse(buf.str());
  if (!doc || doc->kind() != Json::Kind::kObject) {
    c.detail = "floor file " + path + " is not a JSON object";
    return c;
  }
  const std::pair<const char*, double> measured[] = {
      {"p50", ns.p50}, {"p90", ns.p90},   {"p99", ns.p99},
      {"p999", ns.p999}, {"max", ns.max},
  };
  c.ok = true;
  for (const auto& [key, value] : measured) {
    const Json* ceil = doc->find(key);
    if (ceil == nullptr || ceil->kind() != Json::Kind::kNumber) continue;
    if (value > ceil->as_number()) {
      c.ok = false;
      c.detail += std::string(c.detail.empty() ? "" : "; ") + key + " " +
                  std::to_string(value) + "ns > ceiling " +
                  std::to_string(ceil->as_number()) + "ns";
    }
  }
  if (c.ok) c.detail = "all measured percentiles under " + path;
  return c;
}

}  // namespace

std::optional<SoakOptions::Fault> soak_fault_from_name(std::string_view name) {
  if (name == "none" || name.empty()) return SoakOptions::Fault::kNone;
  if (name == "leak-buffer") return SoakOptions::Fault::kLeakBuffer;
  if (name == "stuck-worker") return SoakOptions::Fault::kStuckWorker;
  if (name == "counter-drift") return SoakOptions::Fault::kCounterDrift;
  return std::nullopt;
}

SoakReport run_soak(const SoakOptions& opts) {
  ESW_CHECK_MSG(opts.target_packets > 0 || opts.max_seconds > 0,
                "soak needs a packet or time bound");
  ESW_CHECK(opts.workers >= 1);

  const uc::UseCase uc = uc::make_l3(opts.n_prefixes, opts.seed);

  Runtime::Config rcfg;
  rcfg.measure_latency = true;  // the percentile block is part of the report
  rcfg.n_workers = opts.workers;
  rcfg.n_ports = std::max<uint32_t>(opts.workers, 8);  // L3 outputs to 1-8
  rcfg.pool_capacity = 4096 * opts.workers;
  // Chaos always runs the stateful layer (the ct.insert slot needs a site),
  // undersized so eviction pressure is the steady state, not a corner case.
  const uint32_t ct_capacity =
      opts.ct_capacity > 0
          ? opts.ct_capacity
          : (opts.chaos ? static_cast<uint32_t>(opts.n_flows / 2) : 0);
  core::CompilerConfig ccfg;
  if (ct_capacity > 0) {
    ccfg.ct.enabled = true;
    ccfg.ct.capacity = ct_capacity;
    ccfg.ct.auto_commit = true;
    ccfg.ct.midstream_pickup = true;
  }
  Runtime rt(rcfg, ccfg);
  rt.backend().install(uc.pipeline);
  seed_linked_list_table(rt.backend());
  if (opts.chaos) seed_hash_table(rt.backend());

  // Traffic: either the capture's frames (shared arena, per-worker cursors)
  // or per-worker generated shards — the Fig. 19 source-hook shape either way.
  struct alignas(64) Cursor {
    size_t v = 0;
  };
  std::vector<Cursor> cursors(opts.workers);
  std::vector<net::TrafficSet> shards;
  net::TrafficSet trace_ts;
  if (!opts.trace_pcap.empty()) {
    const net::PcapReader r = net::PcapReader::from_file(opts.trace_pcap);
    ESW_CHECK_MSG(r.ok(), "soak: unreadable trace pcap");
    trace_ts = net::TraceSource(r, {}).to_traffic_set();
  } else {
    const size_t shard =
        std::max<size_t>(1, opts.n_flows / static_cast<size_t>(opts.workers));
    shards.reserve(opts.workers);
    for (uint32_t w = 0; w < opts.workers; ++w)
      shards.push_back(net::TrafficSet::from_flows(uc.traffic(shard, opts.seed + w)));
  }
  const bool trace = !opts.trace_pcap.empty();
  rt.set_source([&](uint32_t w, net::Packet** bufs, uint32_t n) {
    size_t& cur = cursors[w].v;
    const net::TrafficSet& ts = trace ? trace_ts : shards[w];
    for (uint32_t i = 0; i < n; ++i) {
      ts.load_next(cur, *bufs[i]);
      bufs[i]->set_in_port(1 + w);
    }
    return n;
  });

  // Fault plants (see SoakOptions::Fault).  The phantom worker registers
  // before start and never ticks, so no grace period can ever end.
  core::Eswitch::Worker* phantom = nullptr;
  if (opts.fault == SoakOptions::Fault::kStuckWorker)
    phantom = rt.backend().register_worker();

  rt.start();
  net::Packet* leaked = nullptr;
  if (opts.fault == SoakOptions::Fault::kLeakBuffer) leaked = rt.pool().alloc();

  // Control loop: paced churn + periodic checkpoints until a bound hits.
  const auto t0 = Clock::now();
  const auto cp_interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(opts.checkpoint_every_ms));
  auto next_cp = t0 + cp_interval;
  SoakReport rep;
  uint64_t mods = 0;
  uint64_t max_pending = 0;
  bool drift_planted = false;
  // Chaos rotation state: one schedule slot armed at a time, counter deltas
  // bracketing each window.
  auto& fpr = common::FailpointRegistry::instance();
  const auto chaos_interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(opts.chaos_period_ms));
  size_t chaos_idx = 0;
  ChaosWindowBase chaos_base;
  auto chaos_window_end = t0 + chaos_interval;
  std::vector<net::Packet*> chaos_leaked;
  uint64_t leak_pending = 0;
  if (opts.chaos) {
    ESW_CHECK(opts.chaos_period_ms > 0);
    fpr.arm(kChaosSchedule[0].name, kChaosSchedule[0].spec);
    chaos_base = chaos_snapshot(rt, kChaosSchedule[0].name);
  }
  for (;;) {
    const auto now = Clock::now();
    const double elapsed = std::chrono::duration<double>(now - t0).count();
    const uint64_t processed = rt.counters().processed;
    // Plant the drift at mid-run, before the stop checks — the workers can
    // blow through half and full budget within one control-loop pass on a
    // seconds-scale ctest run, and the fault must land before the run ends.
    if (opts.fault == SoakOptions::Fault::kCounterDrift && !drift_planted &&
        ((opts.target_packets > 0 && processed >= opts.target_packets / 2) ||
         (opts.max_seconds > 0 && elapsed >= opts.max_seconds / 2))) {
      rt.backend().datapath().clear_stats();
      drift_planted = true;
    }
    if (opts.target_packets > 0 && processed >= opts.target_packets) break;
    if (opts.max_seconds > 0 && elapsed >= opts.max_seconds) break;
    if (now >= next_cp) {
      ++rep.checkpoints;
      max_pending = std::max(max_pending, rt.backend().reclaim_stats().pending);
      rt.watchdog_scan();  // liveness sweep; recovers parked workers' epochs
      next_cp += cp_interval;
    }
    if (opts.chaos) {
      // Deliberately UNhandled fault: steals a pool buffer when armed.  No
      // degradation counter absorbs it, so the buffer-pool check must trip —
      // the planted-fault test proves the chaos soak can actually fail.
      if (ESW_FAILPOINT("soak.leak_buffer")) ++leak_pending;
      while (leak_pending > 0) {
        // The steal itself rides through the pool's (possibly armed) alloc
        // path; keep trying on later passes until a buffer actually leaks.
        net::Packet* p = rt.pool().alloc();
        if (p == nullptr) break;
        chaos_leaked.push_back(p);
        --leak_pending;
      }
      chaos_base.pending_seen =
          std::max(chaos_base.pending_seen, rt.backend().reclaim_stats().pending);
      if (now >= chaos_window_end) {
        const ChaosSlot& slot = kChaosSchedule[chaos_idx % kChaosSlots];
        fpr.disarm(slot.name);
        rep.checks.push_back(
            close_chaos_window(rt, slot, chaos_base, rep.chaos_windows));
        ++rep.chaos_windows;
        ++chaos_idx;
        const ChaosSlot& nxt = kChaosSchedule[chaos_idx % kChaosSlots];
        fpr.arm(nxt.name, nxt.spec);
        chaos_base = chaos_snapshot(rt, nxt.name);
        chaos_window_end += chaos_interval;
        // A stalled control-loop pass must not burn phantom windows.
        while (chaos_window_end <= now) chaos_window_end += chaos_interval;
      }
    }
    if (opts.churn_rate > 0) {
      churn_chunk(rt.backend(), &mods, 16);
      if (opts.chaos) chaos_churn_chunk(rt.backend(), &mods, 4);
      // Pace to the target mods/s (a controller session, not a control-thread
      // spin that starves the workers), but wake for the next checkpoint.
      const auto paced = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      static_cast<double>(mods) / opts.churn_rate));
      std::this_thread::sleep_until(std::min(paced, next_cp));
    } else {
      std::this_thread::sleep_until(
          std::min(next_cp, now + std::chrono::milliseconds(1)));
    }
  }
  if (opts.chaos) {
    // Close the window the run ended inside, then run the final audits with
    // everything disarmed — the faults stop, the drains must still balance.
    const ChaosSlot& slot = kChaosSchedule[chaos_idx % kChaosSlots];
    chaos_base.pending_seen =
        std::max(chaos_base.pending_seen, rt.backend().reclaim_stats().pending);
    fpr.disarm(slot.name);
    rep.checks.push_back(close_chaos_window(rt, slot, chaos_base, rep.chaos_windows));
    ++rep.chaos_windows;
    fpr.disarm_all();
  }
  rep.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  rt.stop();

  // Drain what the stopped workers left queued: un-polled RX and un-sunk TX.
  // Every drained buffer goes back to the pool — anything still missing
  // afterwards was leaked.
  uint64_t leftover_rx = 0, leftover_rx_bytes = 0;
  for (uint32_t no = net::PortSet::kFirstPort;
       no < net::PortSet::kFirstPort + rt.ports().size(); ++no) {
    net::Packet* out[net::kBurstSize];
    uint32_t n;
    while ((n = rt.ports().port(no).rx_burst(out, net::kBurstSize)) > 0)
      for (uint32_t i = 0; i < n; ++i) {
        leftover_rx += 1;
        leftover_rx_bytes += out[i]->len();
        rt.pool().free(out[i]);
      }
    while ((n = rt.ports().port(no).drain_tx(out, net::kBurstSize)) > 0)
      for (uint32_t i = 0; i < n; ++i) rt.pool().free(out[i]);
  }

  const Runtime::Counters c = rt.counters();
  const core::DataplaneStats bs = rt.backend().stats();
  const net::PortCounters pc = rt.ports().totals();
  rt.backend().datapath().reclaim();  // post-run: everything must free now
  const auto rs = rt.backend().reclaim_stats();

  rep.packets = c.processed;
  rep.pps = rep.seconds > 0 ? static_cast<double>(c.processed) / rep.seconds : 0;
  rep.churn_mods = mods;
  rep.latency_ns = rt.latency_histogram().percentiles_ns();
  rep.chaos = opts.chaos;
  const core::Eswitch::DegradationStats& deg = rt.backend().degradation_stats();
  rep.degradation.pool_exhausted = c.pool_exhausted;
  rep.degradation.backpressure_events = c.backpressure_events;
  rep.degradation.alloc_failures = rt.pool().alloc_failures();
  rep.degradation.tx_rejected = c.tx_rejected;
  rep.degradation.jit_fallbacks = bs.jit_fallbacks;
  rep.degradation.fusion_fallbacks = deg.fusion_fallbacks;
  rep.degradation.fusion_retries = deg.fusion_retries;
  rep.degradation.fusion_recoveries = deg.fusion_recoveries;
  rep.degradation.template_fallbacks = deg.template_fallbacks;
  rep.degradation.mods_refused_table_full = deg.mods_refused_table_full;
  rep.degradation.watchdog_stalled = rt.watchdog_stalled_total();
  rep.degradation.watchdog_recovered = rt.watchdog_recovered_total();
  rep.degradation.ct_commit_drops = bs.ct_commit_drops;
  rep.degradation.ct_evictions_forced = bs.ct_evictions_forced;
  rep.degradation.ct_expired = bs.ct_expired;
  for (const auto& s : fpr.snapshot())
    rep.failpoints.push_back({s.name, s.hits, s.fires});

  const auto add = [&rep](const std::string& name, bool ok, std::string detail) {
    rep.checks.push_back({name, ok, std::move(detail)});
  };

  // Packet conservation: every accepted injection was processed or drained.
  add("packet-conservation",
      c.source_packets == c.processed + leftover_rx,
      "source=" + u64s(c.source_packets) + " processed=" + u64s(c.processed) +
          " leftover_rx=" + u64s(leftover_rx));

  // Verdict conservation: every frame — each processed packet plus each
  // flood copy — took exactly one exit.
  const uint64_t exits =
      c.tx_packets + c.tx_rejected + c.bad_port + c.drops + c.packet_ins;
  add("verdict-conservation", c.processed + c.flood_copies == exits,
      "processed=" + u64s(c.processed) + " flood_copies=" + u64s(c.flood_copies) +
          " exits=" + u64s(exits) + " (tx=" + u64s(c.tx_packets) + " rej=" +
          u64s(c.tx_rejected) + " badport=" + u64s(c.bad_port) + " drop=" +
          u64s(c.drops) + " pin=" + u64s(c.packet_ins) + ")");

  // Byte conservation: only meaningful when no verdict consumed or copied a
  // frame (L3 rewrites headers in place, lengths unchanged).
  if (c.flood_copies == 0 && c.drops == 0 && c.tx_rejected == 0 &&
      c.bad_port == 0 && c.packet_ins == 0)
    add("byte-conservation",
        pc.rx_bytes == pc.tx_bytes + leftover_rx_bytes,
        "rx_bytes=" + u64s(pc.rx_bytes) + " tx_bytes=" + u64s(pc.tx_bytes) +
            " leftover=" + u64s(leftover_rx_bytes));
  else
    add("byte-conservation", true,
        "skipped: lossy verdict mix (drop=" + u64s(c.drops) + " rej=" +
            u64s(c.tx_rejected) + " badport=" + u64s(c.bad_port) + " pin=" +
            u64s(c.packet_ins) + " flood=" + u64s(c.flood_copies) + ")");

  // Buffer leak: with rings drained and worker caches flushed, the pool must
  // be whole again.  One missing buffer is one lost pointer.
  add("buffer-pool",
      rt.pool().available() == rt.pool().capacity(),
      "available=" + u64s(rt.pool().available()) + " capacity=" +
          u64s(rt.pool().capacity()));

  // Reclamation leak: after the run and a final reclaim() nothing may stay
  // pending — a grace period that never ends is a leak in motion.
  add("reclaim",
      rs.pending == 0 && rs.internal_pending == 0,
      "retired=" + u64s(rs.retired) + " reclaimed=" + u64s(rs.reclaimed) +
          " pending=" + u64s(rs.pending) + " internal_pending=" +
          u64s(rs.internal_pending) + " max_pending_seen=" + u64s(max_pending));

  // Verdict drift: the backend's own counters must agree with the runtime's
  // and be internally consistent — a torn counter path miscounts forever.
  add("counter-drift",
      bs.packets == c.processed &&
          bs.outputs + bs.drops + bs.to_controller == bs.packets,
      "backend packets=" + u64s(bs.packets) + " (outputs=" + u64s(bs.outputs) +
          " drops=" + u64s(bs.drops) + " pins=" + u64s(bs.to_controller) +
          ") runtime processed=" + u64s(c.processed));

  // Conntrack conservation: every connection the stateful layer ever
  // committed is still live, aged out, or was evicted for room — and after a
  // final flush nothing may stay on the retire lists.  A connection the
  // counters cannot place is state the table lost track of.
  if (state::Conntrack* ct = rt.backend().conntrack()) {
    ct->flush_reclaim();
    const state::Conntrack::Stats cs = ct->stats();
    add("ct-conservation",
        cs.commits == cs.live + cs.expired + cs.evictions_forced,
        "commits=" + u64s(cs.commits) + " live=" + u64s(cs.live) + " expired=" +
            u64s(cs.expired) + " evicted=" + u64s(cs.evictions_forced));
    add("ct-reclaim",
        cs.retire_pending == 0 &&
            cs.retired_total == cs.reclaimed_total,
        "retired=" + u64s(cs.retired_total) + " reclaimed=" +
            u64s(cs.reclaimed_total) + " pending=" + u64s(cs.retire_pending));
  }

  // Chaos coverage: the run must have cycled through the whole schedule at
  // least once, or the distinct-failpoints promise silently shrinks.
  if (opts.chaos)
    add("chaos-coverage", rep.chaos_windows >= kChaosSlots,
        "windows=" + u64s(rep.chaos_windows) + " schedule=" + u64s(kChaosSlots));

  if (!opts.floor_file.empty())
    rep.checks.push_back(check_latency_floor(opts.floor_file, rep.latency_ns));

  // Un-plant the faults so destructors run over clean state.
  if (leaked != nullptr) rt.pool().free(leaked);
  for (net::Packet* p : chaos_leaked) rt.pool().free(p);
  if (phantom != nullptr) {
    rt.backend().unregister_worker(phantom);
    rt.backend().datapath().reclaim();
  }
  return rep;
}

std::string SoakReport::to_json() const {
  Json doc = Json::object();
  doc.set("schema", Json::string(kSoakSchemaId));
  doc.set("packets", Json::number(static_cast<double>(packets)));
  doc.set("seconds", Json::number(seconds));
  doc.set("pps", Json::number(pps));
  doc.set("churn_mods", Json::number(static_cast<double>(churn_mods)));
  doc.set("checkpoints", Json::number(static_cast<double>(checkpoints)));
  Json lat = Json::object();
  lat.set("p50", Json::number(latency_ns.p50));
  lat.set("p90", Json::number(latency_ns.p90));
  lat.set("p99", Json::number(latency_ns.p99));
  lat.set("p999", Json::number(latency_ns.p999));
  lat.set("max", Json::number(latency_ns.max));
  lat.set("samples", Json::number(static_cast<double>(latency_ns.samples)));
  doc.set("latency_ns", std::move(lat));
  doc.set("chaos", Json::boolean(chaos));
  doc.set("chaos_windows", Json::number(static_cast<double>(chaos_windows)));
  Json deg = Json::object();
  deg.set("pool_exhausted", Json::number(static_cast<double>(degradation.pool_exhausted)));
  deg.set("backpressure_events",
          Json::number(static_cast<double>(degradation.backpressure_events)));
  deg.set("alloc_failures", Json::number(static_cast<double>(degradation.alloc_failures)));
  deg.set("tx_rejected", Json::number(static_cast<double>(degradation.tx_rejected)));
  deg.set("jit_fallbacks", Json::number(static_cast<double>(degradation.jit_fallbacks)));
  deg.set("fusion_fallbacks",
          Json::number(static_cast<double>(degradation.fusion_fallbacks)));
  deg.set("fusion_retries", Json::number(static_cast<double>(degradation.fusion_retries)));
  deg.set("fusion_recoveries",
          Json::number(static_cast<double>(degradation.fusion_recoveries)));
  deg.set("template_fallbacks",
          Json::number(static_cast<double>(degradation.template_fallbacks)));
  deg.set("mods_refused_table_full",
          Json::number(static_cast<double>(degradation.mods_refused_table_full)));
  deg.set("watchdog_stalled",
          Json::number(static_cast<double>(degradation.watchdog_stalled)));
  deg.set("watchdog_recovered",
          Json::number(static_cast<double>(degradation.watchdog_recovered)));
  deg.set("ct_commit_drops",
          Json::number(static_cast<double>(degradation.ct_commit_drops)));
  deg.set("ct_evictions_forced",
          Json::number(static_cast<double>(degradation.ct_evictions_forced)));
  deg.set("ct_expired", Json::number(static_cast<double>(degradation.ct_expired)));
  doc.set("degradation", std::move(deg));
  Json fps = Json::array();
  for (const FailpointStat& f : failpoints) {
    Json jf = Json::object();
    jf.set("name", Json::string(f.name));
    jf.set("hits", Json::number(static_cast<double>(f.hits)));
    jf.set("fires", Json::number(static_cast<double>(f.fires)));
    fps.push_back(std::move(jf));
  }
  doc.set("failpoints", std::move(fps));
  Json arr = Json::array();
  for (const SoakCheck& c : checks) {
    Json jc = Json::object();
    jc.set("name", Json::string(c.name));
    jc.set("ok", Json::boolean(c.ok));
    jc.set("detail", Json::string(c.detail));
    arr.push_back(std::move(jc));
  }
  doc.set("checks", std::move(arr));
  doc.set("ok", Json::boolean(ok()));
  return doc.dump();
}

}  // namespace esw::perf
