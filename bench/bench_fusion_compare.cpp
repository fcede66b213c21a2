// Fused-plan datapath comparison: with vs without the machine program, and
// the interpreter.  Not a paper figure: this bench guards the whole-pipeline
// JIT fusion (jit/fusion.hpp) — one direct-code function for the
// steady-state goto graph, inter-table dispatch inlined, goto targets
// resolved at compile time.
//
// Three modes per point, emitted as separate points of BENCH_fusion.json and
// tagged with the `fused` counter (1 = a plan was published) and the
// `program` counter (1 = the plan carries machine code):
//   mode:2  burst harness + plan with its machine program (the production
//           shape)
//   mode:1  burst harness + the same plan without a program, per-table JIT
//           still on: every stage walks its pinned impl, direct code through
//           its own per-table machine code.  Reached with no knob: a dry
//           install counts the jit.exec_map evaluations (H), then the
//           measured install arms the point at nth:H, so only the fused emit
//           (the last evaluation) is refused.
//   mode:0  burst harness + interpreter                (JIT off entirely)
//
// Three workloads:
//   BM_Fusion_L2 — Fig. 10 L2 (1K-entry MAC table): single table, so fusion
//     can only shave the dispatch epilogue/prologue pair; mode 2 vs 1 is a
//     non-regression check (CI: ≥ 0.95×).
//   BM_Fusion_L3 — Fig. 11 L3 at 100K prefixes: single LPM table whose
//     lookups miss the private caches; the table body dominates, so this too
//     is a non-regression check (CI: ≥ 0.95×).
//   BM_Fusion_Gateway — Fig. 13 access gateway (10 CE × 20 users, 10K
//     prefixes): the paper's deepest goto chain; CI asserts
//     pps(2) ≥ 1.15 × pps(1).  Its tables are all cuckoo and LPM, so no
//     mode has a machine program: modes 2 and 1 run the same plan.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "common/check.hpp"
#include "common/failpoint.hpp"

namespace {

using namespace esw;

/// Installs `pl` into `sw` with only the fused machine emit refused: a dry
/// install counts the jit.exec_map evaluations, and the fused emit is the
/// last of them.  A pipeline without direct-code tables evaluates none and
/// has no program to refuse.
void install_without_program(core::Eswitch& sw, const flow::Pipeline& pl,
                             const core::CompilerConfig& cfg) {
  auto& fpr = common::FailpointRegistry::instance();
  fpr.arm("jit.exec_map", "nth:1000000000");  // counts, never fires
  {
    core::Eswitch dry(cfg);
    dry.install(pl);
  }
  const uint64_t h = fpr.point("jit.exec_map").hits();
  fpr.disarm("jit.exec_map");
  if (h > 0) fpr.arm("jit.exec_map", "nth:" + std::to_string(h));
  sw.install(pl);
  fpr.disarm("jit.exec_map");
}

void fusion_point(benchmark::State& state, const uc::UseCase& uc,
                  size_t n_flows, int mode) {
  const auto ts = net::TrafficSet::from_flows(uc.traffic(n_flows, 42));
  core::CompilerConfig cfg;
  cfg.enable_jit = mode >= 1;
  for (auto _ : state) {
    core::Eswitch sw(cfg);
    if (mode == 1) {
      install_without_program(sw, uc.pipeline, cfg);
      ESW_CHECK_MSG(sw.fused_active() && sw.datapath().fused()->program == nullptr,
                    "mode 1 must run the plan without a machine program");
    } else {
      sw.install(uc.pipeline);
    }
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
  for (const int64_t mode : {2, 1, 0}) b->Args({1000, 100000, mode});
  b->Iterations(1);
}
BENCHMARK(BM_Fusion_L2)->Apply(l2_args);

void l3_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"prefixes", "flows", "mode"});
  for (const int64_t mode : {2, 1, 0}) b->Args({100000, 500000, mode});
  b->Iterations(1);
}
BENCHMARK(BM_Fusion_L3)->Apply(l3_args);

void gw_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"prefixes", "flows", "mode"});
  for (const int64_t mode : {2, 1, 0}) b->Args({10000, 100000, mode});
  b->Iterations(1);
}
BENCHMARK(BM_Fusion_Gateway)->Apply(gw_args);

}  // namespace
