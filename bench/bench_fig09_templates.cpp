// Fig. 9: per-lookup running time (CPU cycles) as a function of the number of
// flow entries, for the direct code / compound hash (cuckoo) / linked list
// templates on the paper's synthetic table (vlan_vid=3, ip_src=10.0.0.3,
// ip_proto=17, udp_dst=N).  The crossover calibrates the direct-code
// fallback constant (the paper fixes it at 4).
//
// Also serves as the keys-in-code ablation: "direct-interp" executes the same
// lowered entries from data memory instead of specialized machine code.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "flow/dsl.hpp"

namespace {

using namespace esw;
using core::TableTemplate;

flow::Pipeline synthetic_table(int n_entries) {
  flow::Pipeline pl;
  for (int i = 0; i < n_entries; ++i) {
    flow::FlowEntry e;
    e.match.set(flow::FieldId::kVlanVid, 3);
    e.match.set(flow::FieldId::kIpSrc, 0x0A000003);
    e.match.set(flow::FieldId::kIpProto, 17);
    e.match.set(flow::FieldId::kUdpDst, static_cast<uint64_t>(i + 1));
    e.priority = 10;
    e.actions = {flow::Action::output(1)};
    pl.table(0).add(e);
  }
  return pl;
}

net::TrafficSet synthetic_traffic(int n_entries) {
  std::vector<net::FlowSpec> flows;
  for (int i = 0; i < n_entries; ++i) {
    net::FlowSpec fs;
    fs.pkt.kind = proto::PacketKind::kUdp;
    fs.pkt.vlan_vid = 3;
    fs.pkt.ip_src = 0x0A000003;
    fs.pkt.dport = static_cast<uint16_t>(i + 1);
    flows.push_back(fs);
  }
  return net::TrafficSet::from_flows(flows);
}

void template_point(benchmark::State& state, TableTemplate tmpl, bool jit) {
  const int n = static_cast<int>(state.range(0));
  core::CompilerConfig cfg;
  cfg.force_template = tmpl;
  cfg.enable_jit = jit;
  core::Eswitch sw(cfg);
  sw.install(synthetic_table(n));
  const auto ts = synthetic_traffic(n);

  net::Packet p;
  size_t i = 0;
  // Warm caches, then let google-benchmark time raw lookups.
  for (int w = 0; w < 1000; ++w) {
    ts.load(i++, p);
    benchmark::DoNotOptimize(sw.process(p));
  }
  const uint64_t c0 = rdtsc();
  uint64_t iters = 0;
  for (auto _ : state) {
    ts.load(i++, p);
    benchmark::DoNotOptimize(sw.process(p));
    ++iters;
  }
  state.counters["cycles_per_lookup"] =
      static_cast<double>(rdtsc() - c0) / static_cast<double>(iters);
}

void BM_Fig09_DirectCode(benchmark::State& state) {
  template_point(state, TableTemplate::kDirectCode, true);
}
void BM_Fig09_DirectCodeInterp(benchmark::State& state) {
  template_point(state, TableTemplate::kDirectCode, false);
}
void BM_Fig09_Hash(benchmark::State& state) {
  template_point(state, TableTemplate::kCuckooHash, true);
}
void BM_Fig09_LinkedList(benchmark::State& state) {
  template_point(state, TableTemplate::kLinkedList, true);
}

BENCHMARK(BM_Fig09_DirectCode)->DenseRange(1, 9)->ArgName("entries");
BENCHMARK(BM_Fig09_DirectCodeInterp)->DenseRange(1, 9)->ArgName("entries");
BENCHMARK(BM_Fig09_Hash)->DenseRange(1, 9)->ArgName("entries");
BENCHMARK(BM_Fig09_LinkedList)->DenseRange(1, 9)->ArgName("entries");

}  // namespace
