// The unified switch-backend interface.
//
// Both datapath implementations — the compiling `core::Eswitch` and the
// flow-caching baseline `ovs::OvsSwitch` — satisfy the `Dataplane` concept,
// so the agent session (`uc::OfAgent` bridges), the measurement harness and
// every figure bench drive either backend through one non-virtual surface:
// no per-backend adapter code, no virtual dispatch on the per-packet path
// (the NFV dataplane-benchmarking prescription: compare switches through the
// same harness).  Both also satisfy `ConcurrentDataplane`, so the one switch
// runtime (`core::SwitchRuntime`) runs either of them.
#pragma once

#include <concepts>
#include <cstdint>
#include <vector>

#include "flow/pipeline.hpp"
#include "flow/wire.hpp"
#include "netio/packet.hpp"

namespace esw::core {

/// Per-mod outcome of a best-effort batch (apply_batch_partial): the agent
/// maps each refused mod to one OpenFlow ERROR while the rest of the batch
/// lands.
enum class ModStatus : uint8_t {
  kApplied = 0,
  kRefusedTableFull,  // table_capacity admission refusal (OFPFMFC_TABLE_FULL)
  kRefusedInvalid,    // malformed mod (bad goto, unknown shape, ...)
};

/// Verdict-level counters every backend reports in the same shape.
/// Flood fan-outs count under `outputs` (one per processed packet — the
/// per-copy accounting lives with the runtime's ports).
struct DataplaneStats {
  uint64_t packets = 0;
  uint64_t outputs = 0;
  uint64_t drops = 0;
  uint64_t to_controller = 0;
  // Degradation counters (additive; zero on backends without the edge).
  // Every gracefully absorbed fault lands in exactly one of these — the
  // chaos soak's accounting audits that (docs/ROBUSTNESS.md).
  uint64_t pool_exhausted = 0;           // buffer alloc failed at the backend
  uint64_t jit_fallbacks = 0;            // plans published without their program
  uint64_t mods_refused_table_full = 0;  // adds refused at table_capacity
  uint64_t backpressure_events = 0;      // RX pauses under pool exhaustion
  // Connection-tracking counters (src/state/; zero when ct is disabled or on
  // backends without the subsystem).  ct_evictions_forced and
  // ct_commit_drops are the stateful layer's degradation edges.
  uint64_t ct_entries = 0;               // live connections right now
  uint64_t ct_commit_drops = 0;          // commits refused at capacity
  uint64_t ct_evictions_forced = 0;      // capacity/failpoint-forced evictions
  uint64_t ct_expired = 0;               // idle-timeout removals
};

/// What a switch backend must provide: bulk install, single and transactional
/// batched flow-mods, scalar and burst processing, verdict-level stats and
/// the authoritative rule store.  Compile-time (template/CRTP-style)
/// polymorphism only — the per-packet calls inline into the harness loops.
template <typename T>
concept Dataplane = requires(T sw, const T csw, const flow::Pipeline& pl,
                             const flow::FlowMod& fm,
                             const std::vector<flow::FlowMod>& fms, net::Packet& pkt,
                             net::Packet* const* pkts, uint32_t n,
                             flow::Verdict* out) {
  { sw.install(pl) };
  { sw.apply(fm) };
  { sw.apply_batch(fms) };
  { sw.process(pkt) } -> std::same_as<flow::Verdict>;
  { sw.process_burst(pkts, n, out) };
  { csw.stats() } -> std::convertible_to<DataplaneStats>;
  { csw.pipeline() } -> std::convertible_to<const flow::Pipeline&>;
};

/// A backend the switch runtime can drive: the Dataplane surface plus
/// per-worker execution contexts wired to epoch reclamation.
/// register_worker() returns nullptr once the backend's worker limit is
/// reached; quiesce() lets the runtime tick a parked worker's epoch slot
/// (the backpressure and watchdog paths).
template <typename T>
concept ConcurrentDataplane =
    Dataplane<T> && requires(T sw, typename T::Worker* w, net::Packet* const* pkts,
                             uint32_t n, flow::Verdict* out) {
      { sw.register_worker() } -> std::same_as<typename T::Worker*>;
      sw.unregister_worker(w);
      sw.process_burst(*w, pkts, n, out);
      sw.quiesce(*w);
    };

}  // namespace esw::core
