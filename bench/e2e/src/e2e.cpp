#include "e2e.hpp"

#include <immintrin.h>
#include <sys/resource.h>

#include <algorithm>
#include <sstream>
#include <thread>

#include "common/tsc.hpp"
#include "netio/mbuf_pool.hpp"
#include "perf/latency.hpp"
#include "rig.hpp"
#include "state/conntrack.hpp"
#include "testing/diff_runner.hpp"

namespace e2e {
namespace {

using esw::flow::Verdict;
using esw::net::Packet;
using esw::net::kBurstSize;
using namespace std::chrono_literals;

/// Expected verdict of every shard frame; each shard's last entry is the
/// fresh SYN's.
using Verdicts = std::vector<std::vector<Verdict>>;

/// The latency phase's rings and pool absorb a stall this long at the
/// workload's offered rate.
constexpr double kStallBudgetS = 0.020;

/// Waits for `t`.  Spinning (with pause, so a hyperthread sibling keeps its
/// execution slots) meets it to within microseconds and keeps the vCPU running;
/// sleeping until shortly before it frees the core but pays an idle vCPU's
/// wakeup, which on a VM varies from run to run by tens of microseconds.
void wait_until(Clock::time_point t, bool spin) {
  if (!spin && t - Clock::now() > 300us) std::this_thread::sleep_until(t - 200us);
  while (Clock::now() < t) _mm_pause();
}

double warmup_s(const RunOptions& o) { return o.smoke ? 0.2 : 1.0; }

uint32_t next_pow2(uint64_t v) {
  uint32_t p = 2;
  while (p < v) p <<= 1;
  return p;
}

double cpu_seconds(const rusage& ru) {
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

rusage usage_now() {
  rusage ru;
  ::getrusage(RUSAGE_SELF, &ru);
  return ru;
}

uint64_t delivered(const Runtime::Counters& c) {
  return c.tx_packets + c.drops + c.packet_ins;
}

/// Everything the two phases hand to the metric computation.  The write
/// stream runs through both phases but is timed in the capacity phase only:
/// it has a core to spare for the control thread, while the latency phase's
/// four busy threads would time the scheduler instead.
struct Collected {
  std::vector<double> mod_us;    // batch due -> BARRIER_REPLY
  std::vector<double> apply_us;  // apply_batch_partial
  std::vector<double> poll_us;   // OfAgent::poll calls that applied a batch
  uint64_t pending_max = 0;      // epoch reclaim backlog seen by the control thread
  uint64_t pool_exhausted = 0;
  uint64_t backpressure = 0;
  uint64_t agent_errors = 0;
};

/// The control thread's FLOW_MOD stream, open loop: batch k is due at
/// origin + (k - first + 1) / batches_per_s whether or not earlier batches were
/// answered on time, and is timed from that due time until its
/// BARRIER_REPLY reaches the OfController.
class WriteStream {
 public:
  WriteStream(const Workload& wl, Rig& rig, uint64_t first)
      : wl_(wl), rig_(rig), origin_(Clock::now()), first_(first), next_(first) {}

  void run_until(Clock::time_point until) {
    for (;;) {
      const auto due = origin_ + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         static_cast<double>(next_ - first_ + 1) /
                                         wl_.batches_per_s));
      if (due >= until) {
        wait_until(until, record);
        return;
      }
      wait_until(due, record);
      const std::vector<esw::flow::FlowMod> mods = wl_.batch(next_++);
      mods_sent += mods.size();
      if (!rig_.await_barrier(rig_.send_batch(mods), 1s))
        ++unanswered;
      else if (record)
        lat_us.push_back(seconds_between(due, Clock::now()) * 1e6);
      pending_max = std::max(pending_max, rig_.sw().reclaim_stats().pending);
    }
  }

  /// Time the batches (and spin between them: the capacity phase leaves a
  /// core for the control thread).
  bool record = false;
  std::vector<double> lat_us;
  uint64_t mods_sent = 0;
  uint64_t unanswered = 0;
  uint64_t pending_max = 0;

 private:
  const Workload& wl_;
  Rig& rig_;
  Clock::time_point origin_;
  uint64_t first_;
  uint64_t next_;
};

/// Closed-loop traffic of the capacity phase: each worker's source hook
/// fills exactly the buffers the pool hands it, so load follows capacity.
struct CapacitySource {
  struct alignas(64) Feed {
    ShardFeed feed;
  };
  explicit CapacitySource(const Workload& wl) {
    for (uint32_t w = 0; w < kWorkers; ++w) feeds.push_back(Feed{ShardFeed(wl, w)});
  }
  std::vector<Feed> feeds;
};

struct CapacityRig {
  std::unique_ptr<CapacitySource> source;
  std::unique_ptr<Rig> rig;  // declared last: its workers stop before the source dies

  void reset() {
    rig.reset();
    source.reset();
  }
};

struct SetupTimes {
  std::vector<double> total_s, install_s, first_batch_s;
};

/// One timed set-up: construct + install + session + start() + the first
/// barrier-acked batch, until the first packet has been processed.
CapacityRig build_capacity_rig(const Workload& wl, SetupTimes& times, Result& r) {
  const auto t0 = Clock::now();
  CapacityRig c;
  c.source = std::make_unique<CapacitySource>(wl);
  Runtime::Config rcfg;
  rcfg.n_workers = kWorkers;
  rcfg.n_ports = wl.n_ports;
  rcfg.pool_capacity = 16384;
  rcfg.measure_latency = true;  // svc_p99_ns: the runtime's burst residency
  c.rig = std::make_unique<Rig>(wl, rcfg);
  Runtime& rt = c.rig->rt();
  rt.set_source([src = c.source.get()](uint32_t w, Packet** bufs, uint32_t n) {
    ShardFeed& feed = src->feeds[w].feed;
    for (uint32_t i = 0; i < n; ++i) feed.next(*bufs[i]);
    return n;
  });
  c.rig->start();
  const auto b0 = Clock::now();
  const std::vector<esw::flow::FlowMod> mods = wl.batch(0);
  const bool acked = c.rig->await_barrier(c.rig->send_batch(mods), 10s);
  const auto b1 = Clock::now();
  while (rt.counters().processed == 0 && Clock::now() - b1 < 5s) std::this_thread::yield();
  const auto t1 = Clock::now();
  times.total_s.push_back(seconds_between(t0, t1));
  times.install_s.push_back(c.rig->install_s);
  times.first_batch_s.push_back(seconds_between(b0, b1));
  r.attempted += mods.size();
  r.failed += acked ? 0 : 1;
  r.check(acked, "barriers", "set-up batch unanswered");
  r.check(rt.counters().processed > 0, "first_packet", "no packet processed after set-up");
  return c;
}

/// Counts a rig's refused mods once its session is done.
void account_session(Rig& rig, Collected& col, Result& r) {
  rig.settle(1s);
  col.agent_errors += rig.errors();
  r.failed += rig.errors();
}

void preflight(const Workload& wl, Result& r) {
  esw::testing::DiffRunner runner;
  const auto div = runner.run(wl.diff_pipeline, wl.diff_cfg,
                              esw::testing::DiffTrace::from_flows(wl.diff_sample));
  if (div) ++r.failed;
  r.check(!div, "preflight_diff",
          div ? div->kind + " at packet " + std::to_string(div->prefix_len) + ": " +
                    div->detail
              : "");
}

void run_capacity(CapacityRig& c, const Workload& wl, const RunOptions& o, Result& r,
                  Collected& col) {
  Runtime& rt = c.rig->rt();
  esw::core::Eswitch& sw = c.rig->sw();
  const esw::state::Conntrack* ct = sw.conntrack();
  WriteStream ws(wl, *c.rig, 1);
  ws.run_until(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(warmup_s(o))));

  // Measured window: whole-phase rates and percentiles.  (ct_fw's expiry
  // stalls recur about once a second, so medians over sub-second slices
  // would flip with how many slices a stall lands in.)
  rt.clear_latency();
  const size_t a0 = c.rig->apply_us.size(), p0 = c.rig->agent_poll_us.size();
  const auto upd0 = sw.update_stats();
  const auto ct0 = ct != nullptr ? ct->stats() : esw::state::Conntrack::Stats{};
  const uint64_t mods0 = ws.mods_sent;
  const rusage ru0 = usage_now();
  const Runtime::Counters k0 = rt.counters();
  const auto t0 = Clock::now();
  ws.record = true;
  ws.run_until(t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(o.seconds / 2)));
  const Runtime::Counters k1 = rt.counters();
  const auto t1 = Clock::now();
  const double svc_p99 = rt.latency_histogram().percentiles_ns().p99;
  const double dt = seconds_between(t0, t1);
  const rusage ru1 = usage_now();
  const auto upd1 = sw.update_stats();
  const auto ct1 = ct != nullptr ? ct->stats() : esw::state::Conntrack::Stats{};
  const uint64_t mods = ws.mods_sent - mods0;
  r.set("core.table_mb", static_cast<double>(sw.datapath().memory_bytes()) / 1e6);
  rt.stop();
  const Runtime::Counters fin = rt.counters();
  account_session(*c.rig, col, r);

  col.mod_us = ws.lat_us;
  col.apply_us.assign(c.rig->apply_us.begin() + static_cast<long>(a0), c.rig->apply_us.end());
  col.poll_us.assign(c.rig->agent_poll_us.begin() + static_cast<long>(p0),
                     c.rig->agent_poll_us.end());
  col.pending_max = std::max(col.pending_max, ws.pending_max);
  col.pool_exhausted += fin.pool_exhausted;
  col.backpressure += fin.backpressure_events;

  r.set("mpps", static_cast<double>(delivered(k1) - delivered(k0)) / dt / 1e6);
  r.set("svc_p99_ns", svc_p99);
  const double processed = static_cast<double>(k1.processed - k0.processed);
  r.set("netio.pkts_per_poll", processed / static_cast<double>(k1.polls - k0.polls));
  r.set("netio.tx_rejected_frac",
        static_cast<double>(k1.tx_rejected - k0.tx_rejected) / processed);
  r.set("cpu.util", (cpu_seconds(ru1) - cpu_seconds(ru0)) / dt);
  r.set("cpu.nivcsw_per_s", static_cast<double>(ru1.ru_nivcsw - ru0.ru_nivcsw) / dt);
  const double m = std::max<double>(1, static_cast<double>(mods));
  r.set("core.incremental_frac", static_cast<double>(upd1.incremental - upd0.incremental) / m);
  r.set("core.cow_swaps_per_mod", static_cast<double>(upd1.cow_swaps - upd0.cow_swaps) / m);
  r.set("core.rebuilds_per_mod",
        static_cast<double>(upd1.table_rebuilds - upd0.table_rebuilds) / m);
  r.set("core.fusion_republishes_per_mod",
        static_cast<double>(upd1.fusion_republishes - upd0.fusion_republishes) / m);
  r.set("state.commits_per_s", static_cast<double>(ct1.commits - ct0.commits) / dt);
  r.set("state.expired_per_s", static_cast<double>(ct1.expired - ct0.expired) / dt);
  const uint64_t ct_lookups = ct1.lookups - ct0.lookups;
  r.set("state.hit_frac", ct_lookups == 0 ? 0
                                          : static_cast<double>(ct1.hits - ct0.hits) /
                                                static_cast<double>(ct_lookups));

  // Correctness: every processed packet got exactly one executed verdict and
  // no output went to a port the switch lacks.  No workload floods, so pool
  // exhaustion can only starve the source hook: backpressure that lowers
  // mpps (netio.pool_exhausted), not a failed operation.
  r.attempted += fin.source_packets + ws.mods_sent;
  r.failed += fin.bad_port + ws.unanswered;
  r.check(fin.processed ==
              fin.tx_packets + fin.tx_rejected + fin.bad_port + fin.drops + fin.packet_ins,
          "verdict_conservation", "capacity phase");
  r.check(fin.bad_port == 0, "bad_port", std::to_string(fin.bad_port) + " outputs to absent ports");
  r.check(ws.unanswered == 0, "barriers", std::to_string(ws.unanswered) + " unanswered");
  if (ct != nullptr) {
    const auto s = ct->stats();
    r.set("state.commit_drops", static_cast<double>(s.commit_drops));
    r.set("state.evictions_forced", static_cast<double>(s.evictions_forced));
    r.check(s.commits == s.live + s.expired + s.evictions_forced, "ct_conservation",
            "commits != live + expired + evictions_forced");
    r.check(s.retired_total == s.retire_pending + s.reclaimed_total, "ct_reclaim",
            "retired != pending + reclaimed");
  } else {
    r.set("state.commit_drops", 0);
    r.set("state.evictions_forced", 0);
  }
}

/// Expected verdicts from replaying every shard, in order, through the
/// latency rig's own switch (owner context, before its workers start).  The
/// second of two rounds is kept: it sees the steady state the phase runs in
/// (a reply sharing its forward packet's first burst meets no connection
/// yet — the pre-stage runs before the burst's commits).
Verdicts reference_verdicts(esw::core::Eswitch& sw, const Workload& wl) {
  Verdicts out(kWorkers);
  std::vector<Packet> bufs(kBurstSize);
  Packet* ptrs[kBurstSize];
  Verdict v[kBurstSize];
  for (uint32_t i = 0; i < kBurstSize; ++i) ptrs[i] = &bufs[i];
  for (int round = 0; round < 2; ++round)
    for (uint32_t w = 0; w < kWorkers; ++w) {
      const esw::net::TrafficSet& ts = wl.shards[w];
      out[w].resize(ts.size() + 1);
      for (size_t i = 0; i < ts.size(); i += kBurstSize) {
        const uint32_t n = static_cast<uint32_t>(std::min<size_t>(kBurstSize, ts.size() - i));
        for (uint32_t j = 0; j < n; ++j) ts.load(i + j, bufs[j]);
        sw.process_burst(ptrs, n, v);
        std::copy(v, v + n, out[w].begin() + static_cast<long>(i));
      }
      if (wl.fresh_syn_every != 0) {
        wl.fresh_syn(0, w, bufs[0]);
        sw.process_burst(ptrs, 1, v);
        out[w].back() = v[0];
      }
    }
  return out;
}

/// The latency phase's paced load thread.  Packets are due on a fixed
/// schedule (open loop); each carries its due TSC in its last 8 bytes
/// (payload: VLAN pop/push move the front of the frame, not the tail), is
/// injected into its worker's port — a refused inject is retried, showing up
/// as lateness — and is timed at TX drain.  Every injected packet adds its
/// expected verdict to the tallies the final accounting compares.
class LoadGen {
 public:
  LoadGen(const Workload& wl, Runtime& rt, const Verdicts& expect)
      : exp_tx(wl.n_ports + 1), got_tx(wl.n_ports + 1), wl_(wl), rt_(rt), expect_(expect) {}

  void run(uint64_t start_tsc, uint64_t record_tsc, uint64_t end_tsc) {
    pin_current_thread(Role::kLoad);
    esw::net::MbufCache cache(rt_.pool(), 512);
    std::vector<ShardFeed> feeds;
    for (uint32_t w = 0; w < kWorkers; ++w) feeds.emplace_back(wl_, w);
    const double interval = esw::tsc_ghz() * 1e3 / kOfferedMpps;  // TSC ticks
    const uint64_t ticks_per_ms = static_cast<uint64_t>(esw::tsc_ghz() * 1e6);
    double next_due = static_cast<double>(start_tsc);
    uint64_t next_backlog = start_tsc, k = 0;
    bool dry = false;
    for (uint64_t now = esw::rdtsc(); now < end_tsc; now = esw::rdtsc()) {
      for (uint32_t gen = 0; gen < 64 && next_due <= static_cast<double>(now); ++gen) {
        Packet* pkt = cache.alloc();
        if (pkt == nullptr) {
          pool_dry += dry ? 0 : 1;  // counts episodes, not retries
          dry = true;
          break;
        }
        dry = false;
        const uint32_t w = static_cast<uint32_t>(k++ % kWorkers);
        const uint32_t idx = feeds[w].next(*pkt);
        const uint64_t due = static_cast<uint64_t>(next_due);
        std::memcpy(pkt->data() + pkt->len() - sizeof due, &due, sizeof due);
        pending_[w].push_back({pkt, due, idx});
        next_due += interval;
      }
      inject(now, record_tsc);
      drain(cache, record_tsc);
      if (now >= next_backlog) {
        rx_backlog_max = std::max(rx_backlog_max, injected - rt_.counters().processed);
        next_backlog = now + ticks_per_ms;
      }
    }
    // Finish: every generated packet injected, processed and drained.
    const uint64_t deadline = esw::rdtsc() + 3000 * ticks_per_ms;
    for (;;) {
      const uint64_t now = esw::rdtsc();
      inject(now, record_tsc);
      drain(cache, record_tsc);
      const bool idle = pending_[0].empty() && pending_[1].empty() &&
                        rt_.counters().processed == injected && drain(cache, record_tsc) == 0;
      if (idle) {
        drained = true;
        break;
      }
      if (now > deadline) break;
    }
  }

  esw::perf::LatencyHistogram sojourn;   // due -> TX drain, forwarded packets
  esw::perf::LatencyHistogram lateness;  // due -> accepted by the RX ring
  uint64_t injected = 0;
  uint64_t rx_backlog_max = 0;
  uint64_t pool_dry = 0;
  bool drained = false;
  std::vector<uint64_t> exp_tx, got_tx;
  uint64_t exp_drops = 0, exp_packet_ins = 0, exp_other = 0;

 private:
  struct Pending {
    Packet* pkt;
    uint64_t due;
    uint32_t idx;
  };

  void inject(uint64_t now, uint64_t record_tsc) {
    for (uint32_t w = 0; w < kWorkers; ++w) {
      std::vector<Pending>& q = pending_[w];
      size_t head = 0;
      while (head < q.size()) {
        Packet* burst[kBurstSize];
        const uint32_t n = static_cast<uint32_t>(std::min<size_t>(kBurstSize, q.size() - head));
        for (uint32_t i = 0; i < n; ++i) burst[i] = q[head + i].pkt;
        // Worker w polls port w + 1 first (the runtime shards round-robin).
        const uint32_t acc = rt_.ports().port(w + 1).inject_rx(burst, n);
        for (uint32_t i = 0; i < acc; ++i) {
          const Pending& p = q[head + i];
          account(w, p.idx);
          if (p.due >= record_tsc) lateness.record(now - std::min(now, p.due));
        }
        injected += acc;
        head += acc;
        if (acc < n) break;
      }
      q.erase(q.begin(), q.begin() + static_cast<long>(head));
    }
  }

  uint32_t drain(esw::net::MbufCache& cache, uint64_t record_tsc) {
    uint32_t total = 0;
    Packet* out[kBurstSize];
    for (uint32_t port = 1; port <= wl_.n_ports; ++port) {
      uint32_t n;
      while ((n = rt_.ports().port(port).drain_tx(out, kBurstSize)) > 0) {
        const uint64_t now = esw::rdtsc();
        for (uint32_t i = 0; i < n; ++i) {
          uint64_t due;
          std::memcpy(&due, out[i]->data() + out[i]->len() - sizeof due, sizeof due);
          if (due >= record_tsc) sojourn.record(now - std::min(now, due));
          cache.free(out[i]);
        }
        got_tx[port] += n;
        total += n;
      }
    }
    return total;
  }

  void account(uint32_t w, uint32_t idx) {
    const std::vector<Verdict>& table = expect_[w];
    const Verdict& v = table[idx == ShardFeed::kFresh ? table.size() - 1 : idx];
    switch (v.kind) {
      case Verdict::Kind::kOutput:
        if (v.port < exp_tx.size())
          ++exp_tx[v.port];
        else
          ++exp_other;  // an absent port: the runtime counts it as bad_port
        break;
      case Verdict::Kind::kDrop:
        ++exp_drops;
        break;
      case Verdict::Kind::kController:
        ++exp_packet_ins;
        break;
      case Verdict::Kind::kFlood:
        ++exp_other;
        break;
    }
  }

  const Workload& wl_;
  Runtime& rt_;
  const Verdicts& expect_;
  std::vector<Pending> pending_[kWorkers];
};

void run_latency(const Workload& wl, const RunOptions& o, Result& r, Collected& col) {
  Runtime::Config rcfg;
  rcfg.n_workers = kWorkers;
  rcfg.n_ports = wl.n_ports;
  // The pool absorbs a kStallBudgetS stall at the offered rate, and every
  // ring can hold the whole pool, so a stall anywhere shows up as lateness
  // (a refused inject is retried), never as a lost packet.  TX stays queued
  // (sink_tx off) for the load thread to drain and time.
  rcfg.pool_capacity =
      static_cast<uint32_t>(kOfferedMpps * 1e6 * kStallBudgetS) + 8192;
  rcfg.port.ring_size = next_pow2(rcfg.pool_capacity);
  rcfg.sink_tx = false;
  Rig rig(wl, rcfg);
  Runtime& rt = rig.rt();
  Verdicts expect = reference_verdicts(rig.sw(), wl);
  if (o.faults.flip_verdict) {
    Verdict& v = expect[0][0];
    v = v.kind == Verdict::Kind::kOutput ? Verdict::drop() : Verdict::output(1);
  }
  rig.sw().datapath().clear_stats();
  rig.start();
  const std::vector<esw::flow::FlowMod> first = wl.batch(0);
  const bool acked = rig.await_barrier(rig.send_batch(first), 10s);
  r.check(acked, "barriers", "latency set-up batch unanswered");

  const double warm = warmup_s(o), measure = o.seconds / 2;
  const double ticks_per_s = esw::tsc_ghz() * 1e9;
  LoadGen gen(wl, rt, expect);
  const uint64_t start = esw::rdtsc();
  const uint64_t record = start + static_cast<uint64_t>(warm * ticks_per_s);
  const uint64_t end = record + static_cast<uint64_t>(measure * ticks_per_s);
  WriteStream ws(wl, rig, 1);
  {
    std::jthread load([&] { gen.run(start, record, end); });
    ws.run_until(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(warm + measure)));
  }
  rt.stop();
  account_session(rig, col, r);
  col.pending_max = std::max(col.pending_max, ws.pending_max);

  const Runtime::Counters fin = rt.counters();
  col.pool_exhausted += fin.pool_exhausted + gen.pool_dry;
  col.backpressure += fin.backpressure_events;
  uint64_t mismatch = gen.exp_other;
  std::ostringstream detail;
  for (uint32_t p = 1; p <= wl.n_ports; ++p) {
    const uint64_t e = gen.exp_tx[p], g = gen.got_tx[p];
    mismatch += e > g ? e - g : g - e;
    if (e != g) detail << " port " << p << " expected " << e << " got " << g << ";";
  }
  const auto diff = [](uint64_t a, uint64_t b) { return a > b ? a - b : b - a; };
  mismatch += diff(gen.exp_drops, fin.drops) + diff(gen.exp_packet_ins, fin.packet_ins);
  if (gen.exp_drops != fin.drops)
    detail << " drops expected " << gen.exp_drops << " got " << fin.drops << ";";
  if (gen.exp_packet_ins != fin.packet_ins)
    detail << " packet-ins expected " << gen.exp_packet_ins << " got " << fin.packet_ins;

  const auto soj = gen.sojourn.percentiles_ns();
  r.set("lat_p50_us", soj.p50 / 1e3);
  r.set("netio.sojourn_p99_us", soj.p99 / 1e3);
  r.set("netio.gen_late_p99_us", gen.lateness.percentiles_ns().p99 / 1e3);
  r.set("netio.rx_backlog_max", static_cast<double>(gen.rx_backlog_max));

  r.attempted += gen.injected + ws.mods_sent + first.size();
  // A dry pool only delays the generator (lateness); a rejected TX or an
  // absent port loses a packet.
  r.failed += mismatch + fin.tx_rejected + fin.bad_port + ws.unanswered + (acked ? 0 : 1);
  r.check(gen.drained, "latency_drain", "injected packets not all processed and drained");
  r.check(mismatch == 0, "verdict_accounting", detail.str());
  r.check(fin.tx_rejected == 0, "tx_rejected",
          std::to_string(fin.tx_rejected) + " in the latency phase");
  r.check(fin.bad_port == 0, "bad_port", std::to_string(fin.bad_port) + " outputs to absent ports");
  r.check(ws.unanswered == 0, "barriers", std::to_string(ws.unanswered) + " unanswered");
  if (const esw::state::Conntrack* ct = rig.sw().conntrack()) {
    const auto s = ct->stats();
    r.check(s.commits == s.live + s.expired + s.evictions_forced, "ct_conservation",
            "latency phase");
    r.check(s.retired_total == s.retire_pending + s.reclaimed_total, "ct_reclaim",
            "latency phase");
  }
}

}  // namespace

void run_e2e(const Workload& wl, const RunOptions& o, Result& r) {
  pin_current_thread(Role::kControl);
  // Set-up: fresh rigs, each torn down untimed; the last one runs the
  // capacity phase.
  SetupTimes times;
  Collected col;
  CapacityRig cap;
  const int setups = o.smoke ? 1 : 5;
  for (int i = 0; i < setups; ++i) {
    if (cap.rig != nullptr) {
      cap.rig->rt().stop();
      account_session(*cap.rig, col, r);
      r.attempted += cap.rig->rt().counters().source_packets;
      cap.reset();
    }
    cap = build_capacity_rig(wl, times, r);
  }
  r.set("setup_s", median(times.total_s));
  r.set("core.install_s", median(times.install_s));
  r.set("core.first_batch_ms", median(times.first_batch_s) * 1e3);

  preflight(wl, r);
  run_capacity(cap, wl, o, r, col);
  cap.reset();
  // Peak RSS of set-up and the capacity phase: the latency phase's
  // stall-sized rings and pool are harness memory, not the switch's.
  r.set("rss_mb", peak_rss_mb());
  run_latency(wl, o, r, col);

  r.set("mod_p50_us", median(col.mod_us));
  r.set("mod_p99_us", quantile(col.mod_us, 0.99));
  r.set("core.apply_us_p50", median(col.apply_us));
  r.set("core.apply_us_p99", quantile(col.apply_us, 0.99));
  r.set("usecases.agent_poll_us", median(col.poll_us));
  r.set("usecases.agent_errors", static_cast<double>(col.agent_errors));
  r.set("core.reclaim_pending_max", static_cast<double>(col.pending_max));
  r.set("netio.pool_exhausted", static_cast<double>(col.pool_exhausted));
  r.set("netio.backpressure_events", static_cast<double>(col.backpressure));
  r.check(col.agent_errors == 0, "mods_refused",
          std::to_string(col.agent_errors) + " FLOW_MODs answered with ERROR");
}

}  // namespace e2e
