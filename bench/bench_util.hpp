// Shared helpers for the figure-reproduction benches.
//
// Every point runs one bounded measurement inside a single google-benchmark
// iteration and reports packets/second as a counter, so each series point
// costs a predictable amount of wall time.  Two harnesses, one each:
//   * single-thread points replay through the net::run_loop_burst timed loop
//     (netio/nfpa.hpp) into a backend's process_burst;
//   * multi-worker points run core::SwitchRuntime instances fed by a
//     net::ReplaySource and timed by measure_window() below: RX ring ->
//     process_burst -> TX, the runtime's whole path.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/failpoint.hpp"
#include "core/eswitch.hpp"
#include "core/switch_runtime.hpp"
#include "netio/nfpa.hpp"
#include "netio/pcap.hpp"
#include "netio/trace_source.hpp"
#include "ovs/ovs_switch.hpp"
#include "perf/latency.hpp"
#include "usecases/usecases.hpp"

namespace esw::bench {

/// Trace input mode (`run_all --trace FILE` / env ESW_TRACE_PCAP): throughput
/// figures replay a real capture instead of the use case's generated mix —
/// the CAIDA-slice / attack-trace / corner-case on-ramp.  ESW_TRACE_PORT
/// (default 1) sets the ingress port stamped on every frame.  Loaded once;
/// a bad capture aborts the bench rather than silently measuring nothing.
struct TraceInput {
  bool active = false;
  net::TrafficSet ts;
};

inline const TraceInput& trace_input() {
  static const TraceInput ti = [] {
    TraceInput t;
    const char* path = std::getenv("ESW_TRACE_PCAP");
    if (path == nullptr || *path == '\0') return t;
    const net::PcapReader r = net::PcapReader::from_file(path);
    if (!r.ok()) {
      std::fprintf(stderr, "[bench] ESW_TRACE_PCAP=%s: %s\n", path,
                   r.error().c_str());
      std::exit(2);
    }
    uint32_t in_port = 1;
    if (const char* p = std::getenv("ESW_TRACE_PORT")) in_port = std::atoi(p);
    uint64_t skipped = 0;
    t.ts = net::traffic_from_pcap(r, in_port, &skipped);
    if (skipped > 0)
      std::fprintf(stderr, "[bench] trace: skipped %llu unusable records\n",
                   static_cast<unsigned long long>(skipped));
    t.active = true;
    return t;
  }();
  return ti;
}

/// Latency-capture mode (`run_all --latency` / env ESW_BENCH_LATENCY): every
/// throughput point additionally emits the latency_ns percentile counters
/// that digest into the esw-bench-v1 `latency_ns` block.  The measurement
/// loops always sample (RunOpts::latency_sample_every); the env var only
/// gates whether the point carries the block.
inline bool latency_capture_enabled() {
  static const bool on = [] {
    const char* v = std::getenv("ESW_BENCH_LATENCY");
    return v != nullptr && *v != '\0' && *v != '0';
  }();
  return on;
}

/// Emits a histogram's percentiles as the flat `latency_ns_*` counters the
/// report digester lifts into the point's latency_ns block (bench_json.hpp).
inline void set_latency_counters(benchmark::State& state,
                                 const perf::LatencyHistogram& hist) {
  if (hist.empty()) return;
  const perf::LatencyPercentiles p = hist.percentiles_ns();
  state.counters["latency_ns_p50"] = p.p50;
  state.counters["latency_ns_p90"] = p.p90;
  state.counters["latency_ns_p99"] = p.p99;
  state.counters["latency_ns_p999"] = p.p999;
  state.counters["latency_ns_max"] = p.max;
  state.counters["latency_samples"] = static_cast<double>(p.samples);
}

inline net::RunOpts measure_opts(size_t n_flows) {
  net::RunOpts opts;
  opts.min_seconds = 0.05;
  opts.min_packets = 4000;
  // One pass over the active flows warms the flow caches (bounded so the
  // slow-path-bound baseline finishes in reasonable time; steady-state
  // thrashing shows regardless once flows exceed the cache sizes).
  opts.warmup_packets = std::min<uint64_t>(n_flows, 20000);
  return opts;
}

/// One throughput point for any backend: fresh instance per iteration
/// (constructed from `cfg`), pipeline installed, burst loop measured.  Every
/// backend rides the identical harness — the unified-interface contract.
template <core::Dataplane Switch, typename Cfg>
net::RunStats run_throughput_point(const uc::UseCase& uc, const net::TrafficSet& ts,
                                   size_t n_flows, const Cfg& cfg,
                                   core::DataplaneStats* stats_out = nullptr) {
  Switch sw(cfg);
  sw.install(uc.pipeline);
  const net::RunStats st = net::run_loop_burst(ts, uc::burst_fn(sw), measure_opts(n_flows));
  if (stats_out != nullptr) *stats_out = sw.stats();
  return st;
}

/// Standard ES-vs-OVS throughput point for a use case (burst datapath).
/// The backend choice is a bench axis (state.range), so it stays a runtime
/// flag — but this `?:` is the single per-backend branch in the bench tree.
inline void throughput_point(benchmark::State& state, const uc::UseCase& uc,
                             size_t n_flows, bool use_eswitch,
                             const core::CompilerConfig& cfg = {},
                             const ovs::OvsSwitch::Config& ocfg = {}) {
  // Trace mode replaces the generated mix with the capture's frames; the
  // pipeline (and the flows axis label) stay the figure's own.  Bind by
  // reference — a real capture's arena is too big to copy per point.
  const TraceInput& trace = trace_input();
  const net::TrafficSet generated =
      trace.active ? net::TrafficSet{} : net::TrafficSet::from_flows(uc.traffic(n_flows, 42));
  const net::TrafficSet& ts = trace.active ? trace.ts : generated;
  for (auto _ : state) {
    core::DataplaneStats ds{};
    const net::RunStats st =
        use_eswitch ? run_throughput_point<core::Eswitch>(uc, ts, n_flows, cfg, &ds)
                    : run_throughput_point<ovs::OvsSwitch>(uc, ts, n_flows, ocfg, &ds);
    state.counters["pps"] = st.pps;
    state.counters["cycles_per_pkt"] = st.cycles_per_pkt;
    // The backend's degradation ledger rides every point; on chaos legs (any
    // failpoint armed, e.g. via ESW_FAILPOINTS) the point is marked chaos=1
    // and the esw-bench-v1 validator requires the ledger to be present.  A
    // microloop has no buffer pool, so it has no pool counters to report.
    state.counters["chaos"] = common::FailpointRegistry::any_armed() ? 1 : 0;
    state.counters["template_fallbacks"] = static_cast<double>(ds.template_fallbacks);
    state.counters["fusion_fallbacks"] = static_cast<double>(ds.fusion_fallbacks);
    state.counters["mods_refused_table_full"] =
        static_cast<double>(ds.mods_refused_table_full);
    // Schema marker (`run_all --check` gates it on fig10/fig11): which input
    // fed this point — 1 = pcap trace, 0 = generated traffic.
    state.counters["trace"] = trace.active ? 1 : 0;
    if (latency_capture_enabled()) set_latency_counters(state, st.latency);
  }
}

/// A positive number from the environment, or `fallback` (the multi-worker
/// benches' ESW_<FIG>_* knobs).
inline double env_double(const char* name, double fallback) {
  const char* s = std::getenv(name);
  return s != nullptr && std::atof(s) > 0 ? std::atof(s) : fallback;
}

/// The multi-worker benches' runtime shape: `workers` workers over a panel of
/// at least 8 ports (L3 routes output to ports 1-8), with per-worker latency
/// histograms.
template <typename Backend>
typename core::SwitchRuntime<Backend>::Config runtime_config(uint32_t workers) {
  typename core::SwitchRuntime<Backend>::Config rcfg;
  rcfg.measure_latency = true;
  rcfg.n_workers = workers;
  rcfg.n_ports = std::max<uint32_t>(workers, 8);
  rcfg.pool_capacity = 4096 * workers;
  return rcfg;
}

/// What a measured window of running SwitchRuntimes delivered.
struct RuntimeWindow {
  std::vector<double> worker_pps;  // every runtime's workers, in order
  double pps = 0;                  // their sum
  double seconds = 0;
  perf::LatencyHistogram latency;  // merged over all workers, warmup excluded
};

/// The multi-worker measured window: starts every runtime (backends
/// installed, sources set), lets them warm up for `warmup_ms`, clears their
/// latency histograms, then runs `control(t0, t_end)` on this thread — the
/// control plane, e.g. a paced flow-mod stream — and sleeps out the rest of
/// the `measure_ms` window.  Rates are each worker's `processed` delta over
/// the window; the runtimes are stopped before returning.
template <typename Runtime, typename Control>
RuntimeWindow measure_window(const std::vector<Runtime*>& rts, double warmup_ms,
                             double measure_ms, Control&& control) {
  using Clock = std::chrono::steady_clock;
  for (Runtime* rt : rts) rt->start();
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(warmup_ms));
  std::vector<uint64_t> start;
  for (Runtime* rt : rts) {
    rt->clear_latency();
    for (uint32_t w = 0; w < rt->n_workers(); ++w)
      start.push_back(rt->worker_counters(w).processed);
  }
  const auto t0 = Clock::now();
  const auto t_end = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(measure_ms));
  control(t0, t_end);
  std::this_thread::sleep_until(t_end);

  RuntimeWindow win;
  win.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  size_t i = 0;
  for (Runtime* rt : rts) {
    for (uint32_t w = 0; w < rt->n_workers(); ++w, ++i) {
      const uint64_t done = rt->worker_counters(w).processed - start[i];
      win.worker_pps.push_back(static_cast<double>(done) / win.seconds);
      win.pps += win.worker_pps.back();
    }
    win.latency.merge(rt->latency_histogram());
  }
  for (Runtime* rt : rts) rt->stop();
  return win;
}

}  // namespace esw::bench
