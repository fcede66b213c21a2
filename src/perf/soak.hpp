// Long-haul soak harness: the multicore runtime (core::SwitchRuntime over an
// Eswitch) replayed for N packets / T seconds under continuous control-plane
// churn, with conservation and drift checks that only sustained operation can
// violate.
//
// A throughput bench answers "how fast"; the soak answers "does it stay
// correct and leak-free while fast".  After the run every invariant the
// architecture promises is audited:
//   * packet conservation  — every injected packet is processed or still
//     queued, and every processed packet got exactly one verdict;
//   * byte conservation    — RX bytes = TX bytes + queued bytes (when no
//     verdict consumed or copied frames);
//   * buffer leaks         — the mbuf pool refills to capacity once the
//     rings are drained (a lost buffer is a lost pointer);
//   * reclamation leaks    — the epoch domain's pending count returns to
//     zero after the run (a stuck grace period is a memory leak in motion);
//   * verdict drift        — the backend's own packet/verdict counters agree
//     with the runtime's (a torn counter path miscounts forever);
//   * latency floors       — measured percentiles stay under a per-centile
//     ceiling file (tail regressions fail the nightly, not a human reader).
//
// Faults can be planted (SoakOptions::fault) so the harness's own tests can
// prove each check actually fires — a soak that cannot fail is a no-op.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "perf/latency.hpp"

namespace esw::perf {

inline constexpr char kSoakSchemaId[] = "esw-soak-v1";

struct SoakOptions {
  /// Stop once this many packets were processed (0 = unbounded; then
  /// max_seconds must be set).  Nightly runs 100M+; ctest runs ~100k.
  uint64_t target_packets = 100'000'000;
  double max_seconds = 0;       // wall-clock bound, 0 = none
  uint32_t workers = 2;
  size_t n_prefixes = 2000;     // L3 use case FIB size (the Fig. 19 pipeline)
  size_t n_flows = 10000;       // active flows replayed round-robin
  /// Control-plane churn: paced LPM route add/delete pairs per second in
  /// 230.0.0.0/8 (collision-free with the use case's own prefixes), riding
  /// the in-place update path + epoch reclamation.  Each pair also churns
  /// an exact-match side table and a linked-list side table.  0 = no churn.
  double churn_rate = 1000;
  double checkpoint_every_ms = 100;  // drift-audit cadence
  std::string trace_pcap;       // non-empty: replay this capture's frames
  std::string floor_file;       // non-empty: JSON percentile ceilings (ns)
  uint64_t seed = 42;

  /// Planted faults, one per check family, so tests can prove the checks
  /// fire: kLeakBuffer steals a pool buffer; kStuckWorker registers a
  /// backend worker that never ticks (grace period never ends, reclamation
  /// pends forever); kCounterDrift zeroes the backend's stats mid-run.
  enum class Fault { kNone, kLeakBuffer, kStuckWorker, kCounterDrift };
  Fault fault = Fault::kNone;

  /// Chaos mode: rotate through a fixed failpoint schedule (one point armed
  /// per window of chaos_period_ms), with per-window accounting that every
  /// injected fault landed in the degradation counter its policy names —
  /// while all the standard conservation/leak/drift checks stay on.  The
  /// chaos churn additionally exercises tbl8-extending /30 routes, a hash
  /// side table and a tiny direct-code table (a fused-program re-emit per
  /// mod).
  bool chaos = false;
  double chaos_period_ms = 200;

  /// Stateful layer: a conntrack (auto-commit, midstream pickup) attached to
  /// the datapath, sized to this many entries.  Sizing it below n_flows makes
  /// sustained accounted eviction the steady state — the degradation policy
  /// under permanent table pressure, audited by the ct-conservation check.
  /// 0 = no conntrack; chaos mode defaults it to n_flows / 2 so the
  /// ct.insert schedule slot always has a live site to hit.
  uint32_t ct_capacity = 0;
};

/// Maps a CLI/env fault name ("leak-buffer", "stuck-worker", "counter-drift",
/// "none") to the enum; nullopt for anything else.
std::optional<SoakOptions::Fault> soak_fault_from_name(std::string_view name);

struct SoakCheck {
  std::string name;
  bool ok = false;
  std::string detail;  // expected-vs-actual, or why the check was skipped
};

/// Where every absorbed fault went: the graceful-degradation counters the
/// chaos accounting audits, snapshotted at the end of the run.
struct DegradationSummary {
  uint64_t pool_exhausted = 0;
  uint64_t backpressure_events = 0;
  uint64_t alloc_failures = 0;
  uint64_t tx_rejected = 0;
  uint64_t jit_fallbacks = 0;  // DataplaneStats::jit_fallbacks
  uint64_t fusion_fallbacks = 0;   // plans published without machine code
  uint64_t fusion_retries = 0;     // elapsed re-emit retry windows
  uint64_t fusion_recoveries = 0;  // plans that regained their program
  uint64_t template_fallbacks = 0;
  uint64_t mods_refused_table_full = 0;
  uint64_t watchdog_stalled = 0;
  uint64_t watchdog_recovered = 0;
  uint64_t ct_commit_drops = 0;      // conntrack at capacity, commit refused
  uint64_t ct_evictions_forced = 0;  // conntrack evicted to make room
  uint64_t ct_expired = 0;           // conntrack timeout-wheel removals
};

struct FailpointStat {
  std::string name;
  uint64_t hits = 0;
  uint64_t fires = 0;
};

struct SoakReport {
  uint64_t packets = 0;      // processed through the datapath
  double seconds = 0;
  double pps = 0;
  uint64_t churn_mods = 0;   // flow-mods applied during the run
  uint64_t checkpoints = 0;
  bool chaos = false;
  uint64_t chaos_windows = 0;  // completed failpoint windows
  DegradationSummary degradation;
  std::vector<FailpointStat> failpoints;
  LatencyPercentiles latency_ns{};
  std::vector<SoakCheck> checks;

  bool ok() const {
    for (const SoakCheck& c : checks)
      if (!c.ok) return false;
    return true;
  }
  /// Serializes as an esw-soak-v1 JSON document (the nightly artifact).
  std::string to_json() const;
};

/// Runs the soak to completion and audits every invariant.  Aborts (CHECK)
/// only on harness misuse — invariant violations come back as failed checks.
SoakReport run_soak(const SoakOptions& opts);

}  // namespace esw::perf
