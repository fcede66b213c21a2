// Conntrack configuration — deliberately light so core/analysis.hpp can
// embed it in CompilerConfig without pulling the whole stateful layer into
// every translation unit.  The runtime half lives in state/conntrack.hpp.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace esw::state {

/// Declarative commit-profile description: what a `ct:commit:N` action does
/// to the connection it creates.  Plain data (copyable) — the Conntrack
/// builds its runtime profile table (port-allocation cursors, backend
/// enable masks) from this at construction.
struct CtProfileConfig {
  enum class Kind : uint8_t {
    kNone,  // plain commit, no rewrite
    kSnat,  // source NAT: src -> (snat_ip, allocated port), reversed on replies
    kLb,    // load balancer: dst -> rendezvous-hashed backend, per-conn affinity
  };
  Kind kind = Kind::kNone;

  // kSnat: external address and the port-allocation range (inclusive).
  uint32_t snat_ip = 0;
  uint16_t snat_port_lo = 1024;
  uint16_t snat_port_hi = 65535;

  // kLb: backend pool as (ip, port) pairs; at most 64 (the runtime enable
  // mask is one word so churn is an atomic bit flip, no reclamation).
  std::vector<std::pair<uint32_t, uint16_t>> backends;
};

/// Connection-tracking knobs, carried inside core::CompilerConfig (`cfg.ct`).
/// `enabled` gates everything: a default-constructed config costs nothing on
/// the datapath (one null-pointer load per burst).
struct CtConfig {
  bool enabled = false;

  /// Max concurrent entries (slab-allocated up front).  A commit past this
  /// force-evicts an accounted victim; if none can be found the commit is
  /// dropped (accounted) — never a crash (docs/STATEFUL.md).
  uint32_t capacity = 1u << 20;

  /// Admit a non-SYN TCP commit straight to Established (conntrack pickup of
  /// pre-existing flows).  Off: such packets stamp new|inv and a commit on
  /// them is refused.
  bool midstream_pickup = false;

  /// Commit every missing connection automatically (no ct:commit action
  /// needed).  The soak uses this to drive continuous insert/evict churn
  /// through an unmodified pipeline.
  bool auto_commit = false;

  /// Tests drive the clock via Conntrack::set_now_ms() instead of
  /// steady_clock — deterministic expiry.
  bool manual_clock = false;

  // Per-state idle timeouts (ms since last packet in either direction).
  uint32_t tcp_syn_timeout_ms = 30'000;
  uint32_t tcp_est_timeout_ms = 600'000;
  uint32_t tcp_closed_timeout_ms = 5'000;
  uint32_t udp_timeout_ms = 60'000;
  uint32_t icmp_timeout_ms = 10'000;

  /// Commit profiles addressed by `ct:commit:N` (index into this vector);
  /// index 0 should stay kNone so a bare `ct:commit` means "track only".
  std::vector<CtProfileConfig> profiles;
};

}  // namespace esw::state
