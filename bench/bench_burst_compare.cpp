// Burst-vs-burst-of-one datapath comparison.  Not a paper figure: this
// bench guards the burst-mode fast path — batched parse with header
// prefetch, one plan load and one touched-stage stat flush per burst, the
// round-based walk with cross-stage prefetch and bulk cuckoo probes.
//
// Three modes per point, emitted as separate points of BENCH_burst.json:
//   mode:1  burst harness + process_burst   (the production shape)
//   mode:2  burst harness + process()       (isolates the datapath batching:
//           same loader/dispatch costs as mode 1, a burst of one per packet)
//   mode:0  run_loop + process()            (the per-packet reference,
//           with run_loop's indexed per-packet loader)
// process() is a burst of one through the same walk, so modes 0 and 2 are
// the gates' denominators: what a burst buys over running the walk one
// packet at a time.
//
// Two workloads:
//   BM_Burst_L2 — Fig. 10 L2 (1K-entry MAC table, hash template, cache-warm):
//     here the burst win is overhead amortization; the walk stays compute
//     bound, so mode 1 vs 2 is a non-regression check.
//   BM_Burst_L3 — Fig. 11 L3 at 100K prefixes / 500K flows: tbl24 lookups
//     miss the private caches, so the LPM template's one-ahead prefetch is
//     load bearing and mode 1 must beat mode 2 outright.
//
// CI (Release) asserts per point: pps(1) ≥ 1.3 × pps(0) end to end;
// pps(1) ≥ 1.05 × pps(2) on L3; pps(1) ≥ 0.95 × pps(2) on L2.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

namespace {

using namespace esw;

void burst_point(benchmark::State& state, const uc::UseCase& uc, size_t n_flows,
                 int mode) {
  const auto ts = net::TrafficSet::from_flows(uc.traffic(n_flows, 42));
  for (auto _ : state) {
    core::Eswitch sw;
    sw.install(uc.pipeline);
    auto opts = bench::measure_opts(n_flows);
    opts.min_seconds = 0.15;  // steadier points for the ratio check
    net::RunStats st;
    switch (mode) {
      case 1:
        st = net::run_loop_burst(ts, uc::burst_fn(sw), opts);
        break;
      case 2:
        st = net::run_loop_burst(
            ts,
            [&](net::Packet* const* pkts, uint32_t n) {
              for (uint32_t i = 0; i < n; ++i) {
                flow::Verdict v = sw.process(*pkts[i]);
                benchmark::DoNotOptimize(v);
              }
            },
            opts);
        break;
      default:
        st = net::run_loop(ts, [&](net::Packet& p) { sw.process(p); }, opts);
        break;
    }
    state.counters["pps"] = st.pps;
    state.counters["cycles_per_pkt"] = st.cycles_per_pkt;
  }
}

void BM_Burst_L2(benchmark::State& state) {
  const auto uc = uc::make_l2(static_cast<size_t>(state.range(0)));
  burst_point(state, uc, static_cast<size_t>(state.range(1)),
              static_cast<int>(state.range(2)));
}

void BM_Burst_L3(benchmark::State& state) {
  const auto uc = uc::make_l3(static_cast<size_t>(state.range(0)));
  burst_point(state, uc, static_cast<size_t>(state.range(1)),
              static_cast<int>(state.range(2)));
}

void l2_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"size", "flows", "mode"});
  for (const int64_t flows : {1000, 100000})
    for (const int64_t mode : {1, 2, 0}) b->Args({1000, flows, mode});
  b->Iterations(1);
}
BENCHMARK(BM_Burst_L2)->Apply(l2_args);

void l3_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"prefixes", "flows", "mode"});
  for (const int64_t mode : {1, 2, 0}) b->Args({100000, 500000, mode});
  b->Iterations(1);
}
BENCHMARK(BM_Burst_L3)->Apply(l3_args);

}  // namespace
