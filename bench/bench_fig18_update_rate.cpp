// Fig. 18: packet rate (normalized to the unloaded case) on the gateway use
// case at 1K active flows while the last-level routing table (Table 110) is
// updated 1…100K times per second.
//
// Expected shape: ESWITCH retains most of its rate even at 100K updates/sec
// (non-destructive per-table LPM updates); OVS collapses already at ~100
// updates/sec because every update invalidates the entire megaflow cache.
// A second series replays the paper's batched-update experiment (periodic
// bursts of 20 adds + 20 deletes).
#include <benchmark/benchmark.h>

#include <chrono>
#include <type_traits>

#include "bench_util.hpp"

namespace {

using namespace esw;

flow::FlowMod route_mod(uint32_t i, bool del) {
  flow::FlowMod fm;
  fm.command = del ? flow::FlowMod::Cmd::kDelete : flow::FlowMod::Cmd::kAdd;
  fm.table_id = uc::kGatewayRoutingTable;
  // Low priority: consistent with LPM ordering (no overlapping RIB rules
  // under 240/8) and cheap to insert near the rule vector's tail.
  fm.priority = 1;
  // Churn /24s under 240/8 (outside the generated RIB).
  fm.match.set(flow::FieldId::kIpDst, 0xF0000000u | ((i % 4096) << 8), 0xFFFFFF00u);
  if (!del) fm.actions = {flow::Action::output(3)};
  return fm;
}

// Replays `ts` through net::run_loop for 0.15 s, applying updates at
// `updates_per_sec` on the way: every 256 packets the schedule is checked
// against the time since the window opened.  One warm pass first: the
// loaded period must measure steady state plus update disruption, not the
// initial cold-cache population.
template <typename ApplyFn, typename ProcessFn>
double loaded_pps(double updates_per_sec, ApplyFn&& apply, ProcessFn&& process,
                  const net::TrafficSet& ts) {
  net::RunOpts opts;
  opts.warmup_packets = ts.size();
  opts.min_seconds = 0.15;
  opts.min_packets = 0;
  opts.latency_sample_every = 0;
  uint64_t pkts = 0;  // warmup included
  uint32_t upd = 0;
  double issued = 0;
  std::chrono::steady_clock::time_point t0;
  const auto step = [&](net::Packet& p) {
    process(p);
    if (++pkts == opts.warmup_packets) t0 = std::chrono::steady_clock::now();
    if (pkts <= opts.warmup_packets || (pkts - opts.warmup_packets) % 256 != 0) return;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    while (issued < elapsed * updates_per_sec) {
      // Add a route, then delete that same route on the next tick, so the
      // table size stays bounded and deletes always hit.
      apply(route_mod(upd / 2, (upd & 1) != 0));
      ++upd;
      issued += 1;
    }
  };
  return net::run_loop(ts, step, opts).pps;
}

// The unloaded rate is the same loop at 0 updates/s, so normed_rate divides
// like by like.
constexpr auto no_updates = [](const flow::FlowMod&) {};

// Both backends take the same flow-mods through the Dataplane surface.
template <core::Dataplane Backend>
void update_rate(benchmark::State& state, double rate) {
  const auto uc = uc::make_gateway(10, 20, 10000);
  const auto ts = net::TrafficSet::from_flows(uc.traffic(1000, 42));

  for (auto _ : state) {
    Backend sw;
    sw.install(uc.pipeline);
    const auto process = [&](net::Packet& p) { sw.process(p); };
    const double unloaded = loaded_pps(0, no_updates, process, ts);
    const double loaded = loaded_pps(
        rate, [&](const flow::FlowMod& fm) { sw.apply(fm); }, process, ts);
    if constexpr (std::is_same_v<Backend, core::Eswitch>)
      state.counters["incremental_updates"] =
          static_cast<double>(sw.update_stats().incremental);
    state.counters["normed_rate"] = loaded / unloaded;
    state.counters["pps"] = loaded;
  }
}

void BM_Fig18_UpdateRate(benchmark::State& state) {
  const double rate = static_cast<double>(state.range(0));
  if (state.range(1) == 1)
    update_rate<core::Eswitch>(state, rate);
  else
    update_rate<ovs::OvsSwitch>(state, rate);
}

void args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"updates_per_sec", "es"});
  for (const int64_t rate : {1, 10, 100, 1000, 10000, 100000})
    for (const int64_t es : {1, 0}) b->Args({rate, es});
  b->Iterations(1);
}
BENCHMARK(BM_Fig18_UpdateRate)->Apply(args);

// Batched updates: periodic bursts of 20 adds and 20 deletes (paper: at most
// 3% rate change for ESWITCH, 23% for OVS).
template <core::Dataplane Backend>
void batched_updates(benchmark::State& state) {
  const auto uc = uc::make_gateway(10, 20, 10000);
  const auto ts = net::TrafficSet::from_flows(uc.traffic(1000, 42));

  for (auto _ : state) {
    Backend sw;
    sw.install(uc.pipeline);
    const auto process = [&](net::Packet& p) { sw.process(p); };
    const double unloaded = loaded_pps(0, no_updates, process, ts);
    uint32_t i = 0;
    const double loaded = loaded_pps(
        50.0,  // 50 bursts/sec...
        [&](const flow::FlowMod&) {
          std::vector<flow::FlowMod> batch;
          for (int k = 0; k < 20; ++k) batch.push_back(route_mod(i + k, false));
          for (int k = 0; k < 20; ++k) batch.push_back(route_mod(i + k, true));
          sw.apply_batch(batch);
          i += 20;
        },
        process, ts);
    state.counters["normed_rate"] = loaded / unloaded;
  }
}

void BM_Fig18_BatchedUpdates(benchmark::State& state) {
  if (state.range(0) == 1)
    batched_updates<core::Eswitch>(state);
  else
    batched_updates<ovs::OvsSwitch>(state);
}
BENCHMARK(BM_Fig18_BatchedUpdates)->Arg(1)->Arg(0)->ArgName("es")->Iterations(1);

}  // namespace
