// Fig. 19: packet rate as packet-processing cores grow from 1 to 5 (L3
// routing over 2K prefixes; 100 / 10K / 500K active flows), ES vs OVS —
// measured with *real concurrent worker threads*, not sequential per-core
// simulation.  Both legs run core::SwitchRuntime workers fed by a
// net::ReplaySource (each worker its own traffic shard) and timed by
// bench::measure_window, so both pay the same path: RX ring ->
// process_burst -> verdict execution -> TX.
//
//   * ES (es:1) runs one shared Eswitch inside one runtime of N workers,
//     while the bench thread stays the control plane.  The churn:1 variant
//     streams a sustained flow-mod churn (non-colliding /24 route add/delete
//     pairs, the LPM in-place update path + epoch reclamation) from the
//     control thread for the whole measurement window and reports the
//     achieved mods/s.
//   * OVS (es:0) runs N share-nothing runtimes of one worker each, every one
//     over its own OvsSwitch — OVS's per-PMD-thread caches (the slow-path
//     classifier is identical read-only state).
//
// Reported per point: aggregate `pps`, per-worker `pps_w<i>`, `threads`,
// for churn points `churn_mods_per_s`, and the merged per-worker latency
// percentile block (`latency_ns_*`, warmup excluded) — churn:1 vs churn:0 is
// the p99/p99.9-under-update-load comparison.  Scaling on shared hardware is
// bounded by the machine's core count; the CI gate checks 4-vs-1 workers.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace esw;
using Clock = std::chrono::steady_clock;

constexpr double kNicCapPps = 23.8e6;  // Intel XL710, 64-byte packets

double warmup_ms() { return bench::env_double("ESW_FIG19_WARMUP_MS", 100); }
double measure_ms() { return bench::env_double("ESW_FIG19_MEASURE_MS", 300); }

/// ES: one shared switch, `workers` concurrent workers, optional
/// control-plane churn during the window.
bench::RuntimeWindow run_eswitch(const uc::UseCase& uc, uint32_t workers, size_t n_flows,
                                 bool churn, double* mods_per_s) {
  core::SwitchRuntime<core::Eswitch> rt(bench::runtime_config<core::Eswitch>(workers),
                                        core::CompilerConfig{});
  rt.backend().install(uc.pipeline);
  rt.set_source(net::ReplaySource(uc::traffic_shards(uc, n_flows, workers, 42)));

  uint64_t mods = 0;
  const bench::RuntimeWindow win = bench::measure_window(
      std::vector{&rt}, warmup_ms(), measure_ms(),
      [&](Clock::time_point t0, Clock::time_point t_end) {
        if (!churn) return;
        // Sustained background churn on the control thread: add/delete /24
        // routes in 230.0.0.0/8 — above the use case's 1-223 prefix space,
        // so they collide with nothing and every mod rides the in-place
        // incremental LPM path (epoch-published cells), as a live RIB update
        // stream would.  Paced at a target rate (default 10k mods/s, 10× the
        // CI floor) so the control thread models a controller session rather
        // than a core-saturating spin that starves the workers it measures.
        const double rate = bench::env_double("ESW_FIG19_CHURN_RATE", 10000);
        while (Clock::now() < t_end) {
          for (int k = 0; k < 16 && Clock::now() < t_end; ++k) {
            flow::FlowMod fm;
            fm.table_id = 0;
            fm.priority = 24;
            fm.match.set(flow::FieldId::kIpDst,
                         (230u << 24) | (static_cast<uint32_t>(mods % 4096) << 8),
                         0xFFFFFF00);
            fm.actions = {flow::Action::output(static_cast<uint32_t>(1 + mods % 8))};
            rt.backend().apply(fm);
            fm.command = flow::FlowMod::Cmd::kDelete;
            rt.backend().apply(fm);
            mods += 2;
          }
          const auto next = t0 + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         static_cast<double>(mods) / rate));
          std::this_thread::sleep_until(next < t_end ? next : t_end);
        }
      });
  *mods_per_s = static_cast<double>(mods) / win.seconds;
  return win;
}

/// OVS: N share-nothing runtimes of one worker each, every one a private
/// OvsSwitch over its own shard (per-PMD caches), genuinely simultaneous.
bench::RuntimeWindow run_ovs(const uc::UseCase& uc, uint32_t workers, size_t n_flows) {
  using Runtime = core::SwitchRuntime<ovs::OvsSwitch>;
  std::vector<net::TrafficSet> sets = uc::traffic_shards(uc, n_flows, workers, 42);
  std::vector<std::unique_ptr<Runtime>> owned;
  std::vector<Runtime*> rts;
  for (net::TrafficSet& ts : sets) {
    owned.push_back(std::make_unique<Runtime>(bench::runtime_config<ovs::OvsSwitch>(1)));
    owned.back()->backend().install(uc.pipeline);
    owned.back()->set_source(net::ReplaySource(std::move(ts), 1));
    rts.push_back(owned.back().get());
  }
  return bench::measure_window(rts, warmup_ms(), measure_ms(),
                               [](Clock::time_point, Clock::time_point) {});
}

void BM_Fig19_MultiCore(benchmark::State& state) {
  const auto workers = static_cast<uint32_t>(state.range(0));
  const size_t n_flows = static_cast<size_t>(state.range(1));
  const bool use_es = state.range(2) == 1;
  const bool churn = state.range(3) == 1;
  const auto uc = uc::make_l3(2000);

  for (auto _ : state) {
    double mods_per_s = 0;
    const bench::RuntimeWindow win = use_es
                                         ? run_eswitch(uc, workers, n_flows, churn, &mods_per_s)
                                         : run_ovs(uc, workers, n_flows);
    state.counters["threads"] = workers;
    state.counters["pps"] = win.pps;
    for (uint32_t w = 0; w < workers; ++w)
      state.counters["pps_w" + std::to_string(w)] = win.worker_pps[w];
    state.counters["nic_saturated"] = win.pps > kNicCapPps ? 1 : 0;
    if (churn) state.counters["churn_mods_per_s"] = mods_per_s;
    // Every point carries the merged per-worker percentile block (the fig19
    // --check contract requires it on churn points; the churn:0 twin is the
    // baseline the churn tail is read against).
    bench::set_latency_counters(state, win.latency);
  }
}

void args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"workers", "flows", "es", "churn"});
  for (const int64_t workers : {1, 2, 3, 4, 5})
    for (const int64_t flows : {100, 10000, 500000}) {
      b->Args({workers, flows, 1, 0});
      b->Args({workers, flows, 1, 1});
      b->Args({workers, flows, 0, 0});
    }
  b->Iterations(1)->Unit(benchmark::kMillisecond)->UseRealTime();
}
BENCHMARK(BM_Fig19_MultiCore)->Apply(args);

}  // namespace
