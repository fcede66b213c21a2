// The paper's evaluation workloads (§4.1): L2 switching, L3 routing, the
// load balancer (Fig. 7) and the vPE access gateway (Fig. 8), plus the Fig. 1
// firewall, the Fig. 3 megaflow example and a snort-like ACL generator for
// the §3.2 decomposition experiment.
//
// Each use case bundles the OpenFlow pipeline with a traffic generator whose
// `n_flows` parameter sweeps the "number of active flows" axis of the
// evaluation; generators are seeded and deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/dataplane.hpp"
#include "flow/pipeline.hpp"
#include "netio/nfpa.hpp"
#include "netio/pktgen.hpp"
#include "state/ct_config.hpp"

namespace esw::uc {

/// Adapts any `core::Dataplane` backend into a net::BurstFn for the
/// single-thread timed loop (net::run_loop_burst), which never passes bursts
/// larger than kBurstSize.  That loop times process_burst alone — no rings,
/// no verdict execution; the multi-worker benches run the SwitchRuntime
/// instead.  Shared by the figure benches and the examples so the adapter
/// tracks the process_burst contract in one place.
template <core::Dataplane Switch>
net::BurstFn burst_fn(Switch& sw) {
  return [&sw](net::Packet* const* pkts, uint32_t n) {
    flow::Verdict verdicts[net::kBurstSize];
    sw.process_burst(pkts, n, verdicts);
  };
}

struct UseCase {
  flow::Pipeline pipeline;
  /// Generates `n_flows` distinct flows replayed round-robin by the harness.
  std::function<std::vector<net::FlowSpec>(size_t n_flows, uint64_t seed)> traffic;
};

/// Per-worker traffic for the multi-worker runs (net::ReplaySource shards):
/// `n_shards` sets of max(1, n_flows / n_shards) flows, shard w generated
/// with seed `seed + w`.
std::vector<net::TrafficSet> traffic_shards(const UseCase& uc, size_t n_flows,
                                            uint32_t n_shards, uint64_t seed);

/// L2 switching: one MAC table of `table_size` entries; traffic destinations
/// are aligned to the table ("adequately aligned to avoid frequent table
/// misses"); flow diversity beyond the table size comes from varying source
/// addresses and ports.
UseCase make_l2(size_t table_size, uint64_t seed = 1);

/// L3 routing: `n_prefixes` sampled with a realistic RIB length mix (priority
/// = prefix length, so the table is LPM-compliant); traffic destinations fall
/// under random prefixes.
UseCase make_l3(size_t n_prefixes, uint64_t seed = 2);

/// Load balancer (Fig. 7a, single stage): `n_services` HTTP VIPs; ingress web
/// traffic splits on the first bit of ip_src between two backends per
/// service; reverse direction forwards unconditionally; the rest drops.
/// Half of the generated traffic targets random services, half is junk that
/// the pipeline drops (the paper's mix).
UseCase make_load_balancer(size_t n_services, uint64_t seed = 3);

/// Access gateway (Fig. 8): `n_ce` customer endpoints (VLAN per CE),
/// `users_per_ce` users each (per-CE NAT tables), `n_prefixes` routing
/// entries.  Traffic is the user→network direction (the paper's dominating
/// path), n_flows spread across users by varying L4 ports.
UseCase make_gateway(size_t n_ce, size_t users_per_ce, size_t n_prefixes,
                     uint64_t seed = 4);

/// Gateway constants exposed for benches/examples.
inline constexpr uint32_t kGatewayNetPort = 0;
inline constexpr uint8_t kGatewayRoutingTable = 110;
inline constexpr uint8_t kGatewayDownstreamTable = 120;

/// Fig. 1 firewall, single-stage (a) and two-stage (b) variants.
flow::Pipeline make_firewall_fig1a();
flow::Pipeline make_firewall_fig1b();

/// Fig. 3: the 8-bit-port flow table whose megaflow cache contents depend on
/// packet arrival order, plus the two arrival sequences (as udp_dst ports).
flow::Pipeline make_fig3_pipeline();
std::vector<net::FlowSpec> fig3_sequence_1();  // 190,189,187,183,175,159,191
std::vector<net::FlowSpec> fig3_sequence_2();  // 191 first

/// Snort-community-like 5-tuple ACLs for the §3.2 decomposition experiment.
flow::FlowTable make_snort_like_acls(size_t n_rules, uint64_t seed = 5);

// --- stateful use cases (src/state/ connection tracking) ---------------------

/// A use case whose pipeline needs the conntrack layer: the CtConfig it must
/// be constructed with rides along (assign to CompilerConfig::ct).
struct CtUseCase {
  flow::Pipeline pipeline;
  state::CtConfig ct;
  std::function<std::vector<net::FlowSpec>(size_t n_flows, uint64_t seed)> traffic;
};

/// Port conventions shared by all three stateful use cases.
inline constexpr uint32_t kCtInsidePort = 1;   // protected / client side
inline constexpr uint32_t kCtOutsidePort = 2;  // untrusted / backend side

/// Stateful firewall: inside traffic commits and forwards out; outside
/// traffic forwards in only when it belongs to an established connection
/// (`ct_state` established bit), everything else drops.  Traffic mixes
/// inside flows, their replies, and unsolicited outside packets the firewall
/// must drop.
CtUseCase make_ct_firewall(uint32_t capacity = 1u << 16, uint64_t seed = 6);

/// SNAT gateway: the firewall shape with commit profile 1 rewriting inside
/// sources to `snat_ip` and an allocated port; replies un-NAT on the way in.
/// Traffic is the inside->out direction (reply tuples depend on the dynamic
/// port allocation, so tests derive them from the live table instead).
CtUseCase make_ct_nat(uint32_t snat_ip, uint32_t capacity = 1u << 16,
                      uint64_t seed = 7);
/// The SNAT use case's VIP-side address constants for tests/examples.
inline constexpr uint32_t kCtNatDefaultIp = 0xC6336401;  // 198.51.100.1

/// Consistent-hashing load balancer: TCP flows to the VIP commit with an LB
/// profile that rendezvous-hashes them onto one of `n_backends` backends and
/// keeps per-connection affinity in the entry (backend churn never remaps a
/// committed connection).  Backend i listens on kCtLbBackendBase + i : 8080.
CtUseCase make_ct_lb(size_t n_backends, uint32_t capacity = 1u << 16,
                     uint64_t seed = 8);
inline constexpr uint32_t kCtLbVip = 0x0A630001;         // 10.99.0.1
inline constexpr uint16_t kCtLbVipPort = 80;
inline constexpr uint32_t kCtLbBackendBase = 0x0AC80001; // 10.200.0.1 + i
inline constexpr uint16_t kCtLbBackendPort = 8080;

}  // namespace esw::uc
