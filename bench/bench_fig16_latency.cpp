// Fig. 16: per-packet latency on the gateway pipeline as the active flow set
// grows, ES vs OVS, with the §4.4 model's lower and upper bounds (178 / 253
// cycles on the paper's 2 GHz testbed parameters).
//
// Expected shape: ES small and flat (0.1 µs in the paper), OVS between 0.2
// and 13 µs depending on which cache level serves the traffic.
//
// Every packet is individually timed with serialized TSC reads into an HDR
// histogram (perf/latency.hpp), so each point carries the full percentile
// block — p50/p90/p99/p99.9/max in nanoseconds — besides the legacy p50/p99
// cycle counters.  Tail percentiles are the point: a flat p50 with a fat
// p99.9 is exactly the cache-thrashing signature Fig. 16 exists to show.
#include <benchmark/benchmark.h>

#include "perf/costmodel.hpp"

#include "bench_util.hpp"

namespace {

using namespace esw;

void BM_Fig16_Latency(benchmark::State& state) {
  const size_t n_flows = static_cast<size_t>(state.range(0));
  const bool use_es = state.range(1) == 1;
  const auto uc = uc::make_gateway(10, 20, 10000);
  const auto ts = net::TrafficSet::from_flows(uc.traffic(n_flows, 42));

  // Time every packet: this is the latency figure, so no sampling stride.
  net::RunOpts opts = bench::measure_opts(n_flows);
  opts.latency_sample_every = 1;

  for (auto _ : state) {
    net::RunStats st;
    if (use_es) {
      core::Eswitch sw;
      sw.install(uc.pipeline);
      st = net::run_loop(ts, [&](net::Packet& p) { sw.process(p); }, opts);
    } else {
      ovs::OvsSwitch sw;
      sw.install(uc.pipeline);
      st = net::run_loop(ts, [&](net::Packet& p) { sw.process(p); }, opts);
    }
    state.counters["cycles_per_pkt"] = st.cycles_per_pkt;
    state.counters["latency_p50_cycles"] =
        static_cast<double>(st.latency.value_at_percentile(50));
    state.counters["latency_p99_cycles"] =
        static_cast<double>(st.latency.value_at_percentile(99));
    bench::set_latency_counters(state, st.latency);
    if (use_es) {
      const auto model = perf::CostModel::gateway_model();
      state.counters["model_lb_cycles"] = model.cycles(4);   // all-L1 bound
      state.counters["model_ub_cycles"] = model.cycles(29);  // all-L3 bound
    }
  }
}

void args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"flows", "es"});
  for (const int64_t flows : {1, 10, 100, 1000, 10000, 100000, 1000000})
    for (const int64_t es : {1, 0}) b->Args({flows, es});
  b->Iterations(1);
}
BENCHMARK(BM_Fig16_Latency)->Apply(args);

}  // namespace
