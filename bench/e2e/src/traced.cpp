// The traced run: one thread, no runtime threads.  It builds the workload's
// Eswitch with one registered worker context (so updates take the same
// reader-safe shapes as under SwitchRuntime) and replays the e2e inputs:
//
//   * pass A times Eswitch::process_burst(worker ctx) for each 32-packet burst;
//   * pass B replays the same burst through the layers' public entry points —
//     proto::parse, Conntrack::pre/post on a replica conntrack kept in
//     lockstep, CompiledTable::lookup following jit::unpack_result from
//     datapath().start(), ActionSetBuilder::execute — timing each call;
//   * the control leg replays the write stream at its virtual due times,
//     timing encode, decode, OfAgent::poll and apply_batch_partial;
//   * a ring microloop times Port inject/rx/tx/drain per packet.
//
// Time is virtual (packet count / offered rate), so conntrack expiry and
// the write-stream schedule are deterministic.  Spans of every 64th burst
// are kept in memory and written at exit as Chrome trace-event JSON;
// aggregates cover every burst.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>

#include "common/memtrace.hpp"
#include "common/tsc.hpp"
#include "core/eswitch.hpp"
#include "e2e.hpp"
#include "jit/ir.hpp"
#include "netio/mbuf_pool.hpp"
#include "netio/port.hpp"
#include "proto/parse.hpp"
#include "rig.hpp"
#include "state/conntrack.hpp"
#include "usecases/of_agent.hpp"

namespace e2e {
namespace {

using esw::core::TableTemplate;
using esw::net::Packet;
using esw::net::kBurstSize;

constexpr uint64_t kSpanEvery = 64;  // bursts between recorded span sets

enum Tid : uint32_t { kPassA = 1, kPassB = 2, kControl = 3, kRing = 4 };

/// One timed interval; `burst` is the trace id shared by a burst's spans.
struct Span {
  const char* name;
  uint64_t t0, t1;
  uint32_t tid;
  uint64_t burst;
  const char* parent;
};

const char* layer_of(TableTemplate t) {
  switch (t) {
    case TableTemplate::kDirectCode:
      return "jit.direct_code";
    case TableTemplate::kCompoundHash:
      return "cls.exact_match";
    case TableTemplate::kCuckooHash:
      return "cls.cuckoo";
    case TableTemplate::kLpm:
      return "cls.lpm";
    case TableTemplate::kRange:
      return "cls.range_tree";
    case TableTemplate::kLinkedList:
      return "cls.tuple_space";
  }
  return "cls.unknown";
}

constexpr size_t kKinds = static_cast<size_t>(TableTemplate::kLinkedList) + 1;

struct KindStats {
  uint64_t cycles = 0, lookups = 0, hits = 0, lines = 0;
};

/// Cost of an empty serialized TSC pair, subtracted from every short timed
/// call (the minimum over many pairs: the fixed part of the overhead).
uint64_t tsc_pair_overhead() {
  uint64_t best = UINT64_MAX;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t a = esw::rdtsc_serialized();
    const uint64_t b = esw::rdtsc_serialized();
    best = std::min(best, b - a);
  }
  return best;
}

void write_trace(const std::string& path, const std::vector<Span>& spans, uint64_t tsc0,
                 double ghz) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  const char* threads[] = {"", "pass A: process_burst", "pass B: layer calls",
                           "control leg", "ring microloop"};
  for (uint32_t t = 1; t <= 4; ++t)
    std::fprintf(f,
                 "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"name\": \"%s\"}},\n",
                 t, threads[t]);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"e2e\", \"ph\": \"X\", \"ts\": %.4f, "
                 "\"dur\": %.4f, \"pid\": 1, \"tid\": %u, \"args\": {\"burst\": %llu, "
                 "\"parent\": \"%s\"}}%s\n",
                 s.name, static_cast<double>(s.t0 - tsc0) / ghz / 1e3,
                 static_cast<double>(s.t1 - s.t0) / ghz / 1e3, s.tid,
                 static_cast<unsigned long long>(s.burst), s.parent ? s.parent : "",
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

}  // namespace

void run_traced(const Workload& wl, const RunOptions& o, Result& r) {
  pin_current_thread(Role::kControl);
  const double ghz = esw::tsc_ghz();
  const uint64_t ovh = tsc_pair_overhead();
  const auto timed = [ovh](uint64_t a, uint64_t b) { return b - a > ovh ? b - a - ovh : 0; };

  esw::core::CompilerConfig cfg = wl.cfg;
  cfg.ct.manual_clock = true;  // virtual time
  esw::core::Eswitch sw(cfg);
  sw.install(wl.pipeline);
  esw::core::Eswitch::Worker* worker = sw.register_worker();
  const esw::core::CompiledDatapath& dp = sw.datapath();
  esw::state::Conntrack* ct_a = sw.conntrack();
  // Pass B's conntrack: same config, same packets, same clock — it evolves
  // exactly like the switch's own, which pass A drives.
  std::unique_ptr<esw::common::EpochDomain> domain_b;
  std::unique_ptr<esw::state::Conntrack> ct_b;
  if (ct_a != nullptr) {
    domain_b = std::make_unique<esw::common::EpochDomain>();
    ct_b = std::make_unique<esw::state::Conntrack>(cfg.ct, domain_b.get());
  }

  std::vector<Span> spans;
  uint64_t span_burst = 0;  // trace id of the control leg's current batch
  uint64_t apply_t0 = 0, apply_t1 = 0;
  esw::uc::OfAgent::Callbacks cbs = esw::uc::make_dataplane_callbacks(sw);
  cbs.on_flow_mod_batch = [&, apply = cbs.on_flow_mod_batch](
                              const std::vector<esw::flow::FlowMod>& fms) {
    apply_t0 = esw::rdtsc();
    auto statuses = apply(fms);
    apply_t1 = esw::rdtsc();
    return statuses;
  };
  esw::uc::OfAgent agent(std::move(cbs));
  esw::uc::OfController ctrl(agent.controller_fd());
  esw::uc::run_handshake(agent, ctrl);

  std::vector<double> decode_ns;
  const auto control_leg = [&](uint64_t k) {
    const std::vector<esw::flow::FlowMod> mods = wl.batch(k);
    const uint64_t c0 = esw::rdtsc();
    std::vector<std::vector<uint8_t>> wire;
    for (const auto& fm : mods) wire.push_back(esw::flow::encode_flow_mod(fm));
    const uint64_t c1 = esw::rdtsc();
    for (const auto& bytes : wire) {
      const uint64_t d0 = esw::rdtsc_serialized();
      const esw::flow::OfMsg msg = esw::flow::decode_message(bytes.data(), bytes.size());
      const uint64_t d1 = esw::rdtsc_serialized();
      decode_ns.push_back(static_cast<double>(timed(d0, d1)) / ghz);
      (void)msg;
    }
    const uint64_t c2 = esw::rdtsc();
    const uint32_t xid = [&] {
      for (const auto& fm : mods) ctrl.send_flow_mod(fm);
      return ctrl.send_barrier();
    }();
    const uint64_t c3 = esw::rdtsc();
    agent.poll();
    const uint64_t c4 = esw::rdtsc();
    ctrl.poll();
    const auto replies = ctrl.take_barrier_replies();
    const uint64_t c5 = esw::rdtsc();
    r.check(std::find(replies.begin(), replies.end(), xid) != replies.end(),
            "barriers", "traced control leg");
    r.check(ctrl.take_errors().empty(), "mods_refused", "traced control leg");
    // Batches are rare next to bursts: every one keeps its spans.
    spans.push_back({"ctrl.batch", c0, c5, kControl, span_burst, nullptr});
    spans.push_back({"flow.encode", c0, c1, kControl, span_burst, "ctrl.batch"});
    spans.push_back({"flow.decode", c1, c2, kControl, span_burst, "ctrl.batch"});
    spans.push_back({"ctrl.send", c2, c3, kControl, span_burst, "ctrl.batch"});
    spans.push_back({"usecases.agent_poll", c3, c4, kControl, span_burst, "ctrl.batch"});
    spans.push_back({"core.apply_batch_partial", apply_t0, apply_t1, kControl, span_burst,
                     "usecases.agent_poll"});
    spans.push_back({"ctrl.await_reply", c4, c5, kControl, span_burst, "ctrl.batch"});
  };
  control_leg(0);

  // Per-slot lookup/hit/miss tallies of pass B, checked against pass A's
  // table_stats deltas between write-stream batches (a batch may recycle
  // slots, which zeroes their counters).
  std::vector<esw::core::CompiledDatapath::TableStats> tally, base;
  const auto rebase = [&] {
    const size_t n = static_cast<size_t>(dp.num_slots());
    tally.assign(n, {});
    base.resize(n);
    for (size_t s = 0; s < n; ++s) base[s] = dp.table_stats(static_cast<int32_t>(s));
  };
  const auto check_counts = [&] {
    for (size_t s = 0; s < tally.size(); ++s) {
      const auto now = dp.table_stats(static_cast<int32_t>(s));
      const bool same = now.lookups - base[s].lookups == tally[s].lookups &&
                        now.hits - base[s].hits == tally[s].hits &&
                        now.misses - base[s].misses == tally[s].misses;
      if (!same) {
        std::ostringstream d;
        d << "slot " << s << " pass A lookups/hits/misses " << now.lookups - base[s].lookups
          << "/" << now.hits - base[s].hits << "/" << now.misses - base[s].misses
          << ", pass B " << tally[s].lookups << "/" << tally[s].hits << "/"
          << tally[s].misses;
        ++r.failed;
        r.check(false, "pass_b_counts", d.str());
        return;
      }
    }
  };
  rebase();

  std::vector<ShardFeed> feeds;
  for (uint32_t w = 0; w < kWorkers; ++w) feeds.emplace_back(wl, w);
  std::vector<Packet> bufs(2 * kBurstSize);
  Packet* pkt_a[kBurstSize];
  Packet* pkt_b[kBurstSize];
  for (uint32_t i = 0; i < kBurstSize; ++i) {
    pkt_a[i] = &bufs[i];
    pkt_b[i] = &bufs[kBurstSize + i];
  }
  esw::flow::Verdict verdicts[kBurstSize];
  esw::proto::ParseInfo pis[kBurstSize];
  esw::state::Conntrack::Hit hits[kBurstSize];
  std::array<KindStats, kKinds> kinds{};
  uint64_t burst_cyc = 0, parse_cyc = 0, ct_pre_cyc = 0, ct_post_cyc = 0, actions_cyc = 0;
  uint64_t packets = 0, next_batch = 1;
  bool lose_one = o.faults.count_mismatch;
  esw::MemTrace memtrace;
  const double pps = kOfferedMpps * 1e6;
  const uint64_t total_packets = o.smoke ? (1u << 16) : (1u << 20);
  const uint64_t tsc0 = esw::rdtsc();

  // Loads the next burst (alternating shards) into pass A's buffers and
  // sets both conntracks' clocks; returns the virtual time in seconds.
  const auto next_burst = [&](uint64_t b) {
    const double vt = static_cast<double>(packets) / pps;
    const uint64_t now_ms = 1 + static_cast<uint64_t>(vt * 1e3);
    if (ct_a != nullptr) {
      ct_a->set_now_ms(now_ms);
      ct_b->set_now_ms(now_ms);
    }
    ShardFeed& feed = feeds[b % kWorkers];
    for (uint32_t i = 0; i < kBurstSize; ++i) feed.next(*pkt_a[i]);
    return vt;
  };

  for (uint64_t b = 0; packets < total_packets; ++b) {
    const double vt = next_burst(b);
    const bool sampled = b % kSpanEvery == 0;
    span_burst = b;
    while (static_cast<double>(next_batch) / wl.batches_per_s <= vt) {
      check_counts();
      control_leg(next_batch++);
      rebase();
    }
    for (uint32_t i = 0; i < kBurstSize; ++i) {
      pkt_b[i]->assign(pkt_a[i]->data(), pkt_a[i]->len());
      pkt_b[i]->set_in_port(pkt_a[i]->in_port());
    }

    // Pass A: the real burst path.
    const uint64_t a0 = esw::rdtsc();
    sw.process_burst(*worker, pkt_a, kBurstSize, verdicts);
    const uint64_t a1 = esw::rdtsc();
    burst_cyc += a1 - a0;
    if (sampled) spans.push_back({"core.process_burst", a0, a1, kPassA, b, nullptr});

    // Pass B, stage 1: parse (+ conntrack pre-stage) across the burst.
    const uint64_t b0 = esw::rdtsc_serialized();
    const esw::proto::ParserPlan plan = dp.plan();
    for (uint32_t i = 0; i < kBurstSize; ++i) {
      esw::proto::parse(pkt_b[i]->data(), pkt_b[i]->len(), plan, pis[i]);
      pis[i].in_port = pkt_b[i]->in_port();
    }
    const uint64_t b1 = esw::rdtsc_serialized();
    parse_cyc += timed(b0, b1);
    uint64_t b2 = b1;
    if (ct_b != nullptr) {
      const uint64_t now_ms = ct_b->now_ms();
      ct_b->poll(now_ms);
      for (uint32_t i = 0; i < kBurstSize; ++i)
        hits[i] = ct_b->pre(pkt_b[i]->data(), pis[i], now_ms);
      b2 = esw::rdtsc_serialized();
      ct_pre_cyc += timed(b1, b2);
    }
    if (sampled) {
      spans.push_back({"proto.parse", b0, b1, kPassB, b, "trace.pass_b"});
      if (ct_b != nullptr) spans.push_back({"state.ct_pre", b1, b2, kPassB, b, "trace.pass_b"});
    }

    // Stage 2: each packet's walk, one timed lookup per table hop.
    for (uint32_t i = 0; i < kBurstSize; ++i) {
      Packet& pkt = *pkt_b[i];
      esw::flow::ActionSetBuilder action_set;
      int32_t slot = dp.start();
      bool completed = false;
      for (int hops = 0; hops < esw::core::CompiledDatapath::kMaxHops && slot >= 0; ++hops) {
        const esw::core::CompiledTable* impl = dp.impl(slot);
        if (static_cast<size_t>(slot) >= tally.size()) tally.resize(static_cast<size_t>(slot) + 1);
        auto& t = tally[static_cast<size_t>(slot)];
        if (lose_one) {
          lose_one = false;  // planted fault: this lookup goes uncounted
        } else {
          ++t.lookups;
        }
        if (impl == nullptr) {
          ++t.misses;
          break;
        }
        const uint64_t l0 = esw::rdtsc_serialized();
        const uint64_t res = impl->lookup(pkt.data(), pis[i]);
        const uint64_t l1 = esw::rdtsc_serialized();
        KindStats& ks = kinds[static_cast<size_t>(impl->kind())];
        ks.cycles += timed(l0, l1);
        ++ks.lookups;
        memtrace.clear();
        impl->lookup(pkt.data(), pis[i], &memtrace);
        std::vector<uintptr_t> lines = memtrace.lines();
        std::sort(lines.begin(), lines.end());
        ks.lines += static_cast<uint64_t>(std::unique(lines.begin(), lines.end()) - lines.begin());
        if (sampled) {
          spans.push_back({layer_of(impl->kind()), l0, l1, kPassB, b, "trace.pass_b"});
          spans.push_back({"trace.memtrace", l1, esw::rdtsc_serialized(), kPassB, b,
                           "trace.pass_b"});
        }
        if (res == esw::jit::kMissResult) {
          ++t.misses;
          break;
        }
        ++t.hits;
        ++ks.hits;
        int32_t action = -1, next = -1;
        esw::jit::unpack_result(res, action, next);
        if (action >= 0) action_set.merge(dp.actions().get(static_cast<uint32_t>(action)));
        if (next < 0) {
          completed = true;
          break;
        }
        slot = next;
      }
      if (!completed) continue;
      const uint64_t p0 = esw::rdtsc_serialized();
      if (ct_b != nullptr)
        ct_b->post(hits[i], action_set.ct_commit(), action_set.ct_profile(), pkt.data(),
                   pis[i], ct_b->now_ms());
      const uint64_t p1 = esw::rdtsc_serialized();
      action_set.execute(pkt, pis[i]);
      const uint64_t p2 = esw::rdtsc_serialized();
      ct_post_cyc += ct_b != nullptr ? timed(p0, p1) : 0;
      actions_cyc += timed(p1, p2);
      if (sampled) {
        if (ct_b != nullptr) spans.push_back({"state.ct_post", p0, p1, kPassB, b, "trace.pass_b"});
        spans.push_back({"flow.actions", p1, p2, kPassB, b, "trace.pass_b"});
      }
    }
    if (sampled) spans.push_back({"trace.pass_b", b0, esw::rdtsc_serialized(), kPassB, b, nullptr});
    packets += kBurstSize;
  }
  check_counts();
  const uint64_t bursts = packets / kBurstSize;

  // Tracing overhead: pass A alone in 64-burst blocks with the span
  // bookkeeping on and off, ordered on-off-off-on so drift cancels.
  double on_s = 0, off_s = 0;
  std::vector<Span> block_spans;
  block_spans.reserve(kSpanEvery);
  const uint64_t overhead_bursts = o.smoke ? 2048 : 16384;
  for (uint64_t b = 0; b < overhead_bursts; b += kSpanEvery) {
    const uint64_t block = b / kSpanEvery;
    const bool on = block % 4 == 0 || block % 4 == 3;
    const auto t0 = Clock::now();
    for (uint64_t j = 0; j < kSpanEvery; ++j) {
      next_burst(b + j);
      if (on) {
        const uint64_t a0 = esw::rdtsc();
        sw.process_burst(*worker, pkt_a, kBurstSize, verdicts);
        block_spans.push_back({"core.process_burst", a0, esw::rdtsc(), kPassA, b + j, nullptr});
      } else {
        sw.process_burst(*worker, pkt_a, kBurstSize, verdicts);
      }
      packets += kBurstSize;
    }
    (on ? on_s : off_s) += std::chrono::duration<double>(Clock::now() - t0).count();
    block_spans.clear();
  }

  // Ring microloop: one port's RX and TX rings, a burst through each.
  uint64_t ring_cyc = 0;
  {
    esw::net::Port port;
    esw::net::MbufPool pool(kBurstSize);
    Packet* ring_pkts[kBurstSize];
    Packet* out[kBurstSize];
    pool.alloc_bulk(ring_pkts, kBurstSize);
    for (uint64_t b = 0; b < bursts; ++b) {
      const uint64_t t0 = esw::rdtsc();
      port.inject_rx(ring_pkts, kBurstSize);
      port.rx_burst(out, kBurstSize);
      port.tx_burst_mp(out, kBurstSize);
      port.drain_tx(ring_pkts, kBurstSize);
      const uint64_t t1 = esw::rdtsc();
      ring_cyc += t1 - t0;
      if (b % kSpanEvery == 0) spans.push_back({"netio.ring", t0, t1, kRing, b, nullptr});
    }
    pool.free_bulk(ring_pkts, kBurstSize);
  }
  sw.unregister_worker(worker);

  const double n = static_cast<double>(bursts * kBurstSize);
  const auto per_pkt_ns = [&](uint64_t cyc) { return static_cast<double>(cyc) / ghz / n; };
  uint64_t lookup_cyc = 0, lookups = 0;
  for (const KindStats& k : kinds) {
    lookup_cyc += k.cycles;
    lookups += k.lookups;
  }
  const auto kind_metrics = [&](TableTemplate t) {
    const KindStats& k = kinds[static_cast<size_t>(t)];
    const std::string p = layer_of(t);
    const double l = static_cast<double>(k.lookups);
    r.set(p + ".time_frac", lookup_cyc == 0 ? 0
                                            : static_cast<double>(k.cycles) /
                                                  static_cast<double>(lookup_cyc));
    r.set(p + ".lookups_per_pkt", l / n);
    r.set(p + ".hit_frac", k.lookups == 0 ? 0 : static_cast<double>(k.hits) / l);
    r.set(p + ".lines_per_lookup", k.lookups == 0 ? 0 : static_cast<double>(k.lines) / l);
  };
  for (TableTemplate t : {TableTemplate::kCompoundHash, TableTemplate::kCuckooHash,
                          TableTemplate::kLpm, TableTemplate::kDirectCode})
    kind_metrics(t);
  const double burst_ns = per_pkt_ns(burst_cyc);
  const double ring_ns = static_cast<double>(ring_cyc) / ghz / n;
  r.set("core.burst_ns", burst_ns);
  r.set("proto.parse_ns", per_pkt_ns(parse_cyc));
  r.set("cls.lookup_ns", lookups == 0 ? 0
                                      : static_cast<double>(lookup_cyc) / ghz /
                                            static_cast<double>(lookups));
  r.set("cls.lookups_per_pkt", static_cast<double>(lookups) / n);
  r.set("flow.actions_ns", per_pkt_ns(actions_cyc));
  r.set("state.ct_pre_frac", static_cast<double>(ct_pre_cyc) / static_cast<double>(burst_cyc));
  r.set("state.ct_post_frac", static_cast<double>(ct_post_cyc) / static_cast<double>(burst_cyc));
  // Signed: negative when the burst path's prefetching hides lookup stalls
  // that pass B's one-at-a-time calls pay.
  r.set("core.walk_self_ns", burst_ns - per_pkt_ns(parse_cyc + ct_pre_cyc + ct_post_cyc) -
                                 static_cast<double>(lookup_cyc) / ghz / n);
  r.set("netio.ring_ns", ring_ns);
  const auto mpps = r.values.find("mpps");
  if (mpps != r.values.end() && mpps->second > 0)
    r.set("core.layer_coverage", (ring_ns + burst_ns) / (1e3 * kWorkers / mpps->second));
  r.set("flow.decode_ns", median(decode_ns));
  r.set("jit.fused", sw.fused_active() ? 1 : 0);
  r.set("trace.overhead_frac", off_s > 0 ? on_s / off_s - 1 : 0);

  if (!o.out_dir.empty()) write_trace(o.out_dir + "/trace_" + wl.name + ".json", spans, tsc0, ghz);
}

}  // namespace e2e
