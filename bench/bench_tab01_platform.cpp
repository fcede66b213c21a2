// Table 1 companion.  The paper measures 15.7 Mpps single-core with DPDK
// l2fwd (pure port forwarding, no classification) and uses it as the
// benchmark for all other measurements.  This repo has no NIC, so there is
// no forwarding ceiling to measure; the l2fwd series is the per-packet
// harness floor instead.
//
// Series:
//   l2fwd     — net::run_loop's indexed loader (a frame copy) plus one call
//               and a length read: no parse, port, ring or TX step, so it
//               bounds what any per-packet point can read, nothing more;
//   es_1rule  — ESWITCH with a single direct-code rule (minimal pipeline);
//   es_l2_1   — ESWITCH L2 use case with a one-entry MAC table (Fig. 10's
//               best case, directly comparable to the paper's 14 Mpps).
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

namespace {

using namespace esw;

void BM_Tab01_L2Fwd(benchmark::State& state) {
  // Copy in, no classification: the loader-plus-call floor.
  const auto uc = uc::make_l2(1);
  const auto ts = net::TrafficSet::from_flows(uc.traffic(64, 42));
  for (auto _ : state) {
    uint64_t sink = 0;
    const auto st = net::run_loop(
        ts, [&](net::Packet& p) { sink += p.len(); }, bench::measure_opts(64));
    benchmark::DoNotOptimize(sink);
    state.counters["pps"] = st.pps;
    state.counters["cycles_per_pkt"] = st.cycles_per_pkt;
  }
}
BENCHMARK(BM_Tab01_L2Fwd)->Iterations(1);

void BM_Tab01_EswitchOneRule(benchmark::State& state) {
  flow::Pipeline pl;
  pl.table(0).add(flow::FlowEntry{{}, 1, {flow::Action::output(1)}, flow::kNoGoto});
  core::Eswitch sw;
  sw.install(pl);
  const auto uc = uc::make_l2(1);
  const auto ts = net::TrafficSet::from_flows(uc.traffic(64, 42));
  for (auto _ : state) {
    const auto st =
        net::run_loop(ts, [&](net::Packet& p) { sw.process(p); }, bench::measure_opts(64));
    state.counters["pps"] = st.pps;
    state.counters["cycles_per_pkt"] = st.cycles_per_pkt;
  }
}
BENCHMARK(BM_Tab01_EswitchOneRule)->Iterations(1);

void BM_Tab01_EswitchL2(benchmark::State& state) {
  const auto uc = uc::make_l2(1);
  bench::throughput_point(state, uc, 64, true);
}
BENCHMARK(BM_Tab01_EswitchL2)->Iterations(1);

}  // namespace
