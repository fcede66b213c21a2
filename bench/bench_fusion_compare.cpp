// Fused-plan datapath comparison: the plan with its machine program vs the
// interpreter.  Not a paper figure: this bench guards the whole-pipeline
// JIT fusion (jit/fusion.hpp) — one direct-code function for the
// steady-state goto graph, inter-table dispatch inlined, goto targets
// resolved at compile time — which is the switch's only machine code.
//
// Two modes per point, emitted as separate points of BENCH_fusion.json and
// tagged with the `fused` counter (1 = a plan was published) and the
// `program` counter (1 = the plan carries machine code):
//   mode:2  burst harness + plan with its machine program (the production
//           shape)
//   mode:0  burst harness + the same plan without a program (JIT off): every
//           stage walks its pinned impl, direct code interpreted
//
// Three workloads:
//   BM_Fusion_L2 — Fig. 10 L2 (1K-entry MAC table): single table, so fusion
//     can only shave the dispatch epilogue/prologue pair; mode 2 vs 0 is a
//     non-regression check (CI: ≥ 0.95×).
//   BM_Fusion_L3 — Fig. 11 L3 at 100K prefixes: single LPM table whose
//     lookups miss the private caches; the table body dominates, so this too
//     is a non-regression check (CI: ≥ 0.95×).
//   BM_Fusion_Gateway — Fig. 13 access gateway (10 CE × 20 users, 10K
//     prefixes): the paper's deepest goto chain; CI asserts
//     pps(2) ≥ 1.15 × pps(0).  Its tables are all cuckoo and LPM, so no
//     mode has a machine program: modes 2 and 0 run the same plan.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

namespace {

using namespace esw;

void fusion_point(benchmark::State& state, const uc::UseCase& uc,
                  size_t n_flows, int mode) {
  const auto ts = net::TrafficSet::from_flows(uc.traffic(n_flows, 42));
  core::CompilerConfig cfg;
  cfg.enable_jit = mode == 2;
  for (auto _ : state) {
    core::Eswitch sw(cfg);
    sw.install(uc.pipeline);
    auto opts = bench::measure_opts(n_flows);
    opts.min_seconds = 0.15;
    // Best-of-three passes: the CI ratio gates compare modes of the same
    // workload, and scheduler noise only ever subtracts, so the max
    // envelope is the steady-state number the contract is about.
    net::RunStats st = net::run_loop_burst(ts, uc::burst_fn(sw), opts);
    for (int pass = 1; pass < 3; ++pass) {
      const net::RunStats again = net::run_loop_burst(ts, uc::burst_fn(sw), opts);
      if (again.pps > st.pps) st = again;
    }
    state.counters["pps"] = st.pps;
    state.counters["cycles_per_pkt"] = st.cycles_per_pkt;
    state.counters["fused"] = sw.fused_active() ? 1 : 0;
    state.counters["program"] =
        sw.fused_active() && sw.datapath().fused()->program != nullptr ? 1 : 0;
  }
}

void BM_Fusion_L2(benchmark::State& state) {
  const auto uc = uc::make_l2(static_cast<size_t>(state.range(0)));
  fusion_point(state, uc, static_cast<size_t>(state.range(1)),
               static_cast<int>(state.range(2)));
}

void BM_Fusion_L3(benchmark::State& state) {
  const auto uc = uc::make_l3(static_cast<size_t>(state.range(0)));
  fusion_point(state, uc, static_cast<size_t>(state.range(1)),
               static_cast<int>(state.range(2)));
}

void BM_Fusion_Gateway(benchmark::State& state) {
  const auto uc =
      uc::make_gateway(10, 20, static_cast<size_t>(state.range(0)));
  fusion_point(state, uc, static_cast<size_t>(state.range(1)),
               static_cast<int>(state.range(2)));
}

void l2_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"size", "flows", "mode"});
  for (const int64_t mode : {2, 0}) b->Args({1000, 100000, mode});
  b->Iterations(1);
}
BENCHMARK(BM_Fusion_L2)->Apply(l2_args);

void l3_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"prefixes", "flows", "mode"});
  for (const int64_t mode : {2, 0}) b->Args({100000, 500000, mode});
  b->Iterations(1);
}
BENCHMARK(BM_Fusion_L3)->Apply(l3_args);

void gw_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"prefixes", "flows", "mode"});
  for (const int64_t mode : {2, 0}) b->Args({10000, 100000, mode});
  b->Iterations(1);
}
BENCHMARK(BM_Fusion_Gateway)->Apply(gw_args);

}  // namespace
