// Conntrack figure (figure id "ct"): the stateful layer's cost and its
// behavior under attack.
//
//   * steady    — hit-path throughput with 100K and 1M concurrent connections
//                 live in the table (every measured packet is a lookup hit);
//   * flood     — a SYN flood of all-distinct tuples against a small table:
//                 sustained commit/evict churn at capacity.  Degradation must
//                 be accounted (evictions + drops), never a crash;
//   * churn     — the LB use case while backends are drained/re-enabled under
//                 traffic: per-connection affinity makes this a steady-state
//                 workload with a moving rendezvous target.
//
// Every point carries the conntrack counters; `run_all --check` enforces the
// conservation identity commits == live + expired + evicted on each one.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "state/conntrack.hpp"

namespace {

using namespace esw;

// `n` distinct inside->server TCP SYN flows: each is one connection, replayed
// round-robin by the measurement loop (first pass commits, the rest hit).
net::TrafficSet distinct_conns(size_t n) {
  std::vector<net::FlowSpec> flows(n);
  for (size_t i = 0; i < n; ++i) {
    proto::PacketSpec& s = flows[i].pkt;
    s.kind = proto::PacketKind::kTcp;
    s.ip_src = 0x0A000000u | static_cast<uint32_t>(i & 0xFFFFF);
    s.ip_dst = 0xCB007105u;
    s.sport = static_cast<uint16_t>(1024 + (i >> 20));
    s.dport = 443;
    s.tcp_flags = proto::kTcpFlagSyn;
    flows[i].in_port = uc::kCtInsidePort;
  }
  return net::TrafficSet::from_flows(flows);
}

void set_ct_counters(benchmark::State& state, const state::Conntrack::Stats& cs,
                     const net::RunStats& st) {
  state.counters["pps"] = st.pps;
  state.counters["cycles_per_pkt"] = st.cycles_per_pkt;
  state.counters["chaos"] = common::FailpointRegistry::any_armed() ? 1 : 0;
  state.counters["trace"] = 0;
  state.counters["ct_entries"] = static_cast<double>(cs.live);
  state.counters["ct_commits"] = static_cast<double>(cs.commits);
  state.counters["ct_commit_drops"] = static_cast<double>(cs.commit_drops);
  state.counters["ct_evictions_forced"] = static_cast<double>(cs.evictions_forced);
  state.counters["ct_expired"] = static_cast<double>(cs.expired);
  if (bench::latency_capture_enabled()) bench::set_latency_counters(state, st.latency);
}

// Steady state: table sized above the connection count, one warmup pass
// commits every connection, the measured window is pure hit-path.  The
// window lasts at least 0.5 s, like the flood's: CI's flood/steady gate
// divides the two, and single 0.05 s passes let one stall move the ratio.
void BM_Ct_Steady(benchmark::State& state) {
  const size_t conns = static_cast<size_t>(state.range(0));
  uc::CtUseCase fw = uc::make_ct_firewall(
      static_cast<uint32_t>(std::max<size_t>(conns * 2, 1u << 16)));
  const net::TrafficSet ts = distinct_conns(conns);

  net::RunOpts opts;
  opts.warmup_packets = conns;    // one full pass: every connection committed
  opts.min_packets = conns;       // one full pass: every connection touched
  opts.min_seconds = 0.5;

  for (auto _ : state) {
    core::CompilerConfig cfg;
    cfg.ct = fw.ct;
    core::Eswitch sw(cfg);
    sw.install(fw.pipeline);
    const net::RunStats st = net::run_loop_burst(ts, uc::burst_fn(sw), opts);
    set_ct_counters(state, sw.conntrack()->stats(), st);
  }
}

void steady_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"conns"});
  b->Args({100000});
  b->Args({1000000});
  b->Iterations(1);
}
BENCHMARK(BM_Ct_Steady)->Apply(steady_args);

// Adversarial: 256K distinct SYNs cycled against an 8K-entry table — every
// packet past capacity is a miss that must evict to commit.  Measured for at
// least 0.5 s, as the steady point it is divided by.
void BM_Ct_SynFlood(benchmark::State& state) {
  uc::CtUseCase fw = uc::make_ct_firewall(/*capacity=*/8192);
  const net::TrafficSet ts = distinct_conns(1u << 18);

  net::RunOpts opts;
  opts.warmup_packets = 20000;
  opts.min_packets = 1u << 18;
  opts.min_seconds = 0.5;

  for (auto _ : state) {
    core::CompilerConfig cfg;
    cfg.ct = fw.ct;
    core::Eswitch sw(cfg);
    sw.install(fw.pipeline);
    const net::RunStats st = net::run_loop_burst(ts, uc::burst_fn(sw), opts);
    set_ct_counters(state, sw.conntrack()->stats(), st);
  }
}
BENCHMARK(BM_Ct_SynFlood)->ArgNames({"capacity"})->Args({8192})->Iterations(1);

// Backend churn: LB traffic while one backend at a time is drained and
// restored every few thousand packets.  Committed connections keep their
// affinity; only the rendezvous choice for new connections moves.
void BM_Ct_BackendChurn(benchmark::State& state) {
  constexpr size_t kBackends = 8;
  const size_t conns = static_cast<size_t>(state.range(0));
  uc::CtUseCase lb = uc::make_ct_lb(kBackends,
                                    static_cast<uint32_t>(conns * 2));
  const net::TrafficSet ts = net::TrafficSet::from_flows(lb.traffic(conns, 42));

  net::RunOpts opts;
  opts.warmup_packets = conns;
  opts.min_packets = conns;
  opts.min_seconds = 0.05;

  for (auto _ : state) {
    core::CompilerConfig cfg;
    cfg.ct = lb.ct;
    core::Eswitch sw(cfg);
    sw.install(lb.pipeline);
    state::Conntrack* ct = sw.conntrack();
    const net::BurstFn inner = uc::burst_fn(sw);
    uint64_t bursts = 0;
    uint32_t drained = 0;
    const net::BurstFn churned = [&](net::Packet* const* pkts, uint32_t n) {
      if ((++bursts & 0xFF) == 0) {  // every 256 bursts: move the drain
        ct->set_backend_enabled(1, drained, true);
        drained = (drained + 1) % kBackends;
        ct->set_backend_enabled(1, drained, false);
      }
      inner(pkts, n);
    };
    const net::RunStats st = net::run_loop_burst(ts, churned, opts);
    set_ct_counters(state, ct->stats(), st);
  }
}
BENCHMARK(BM_Ct_BackendChurn)
    ->ArgNames({"conns"})
    ->Args({100000})
    ->Iterations(1);

}  // namespace
