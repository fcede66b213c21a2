// Randomized-but-valid workload generation for the differential oracle.
//
// PipelineGen emits multi-table OpenFlow pipelines that deliberately sweep the
// compiler's whole template space — cuckoo exact-match hash, LPM, range,
// direct-code-eligible small tables, tuple-space/linked-list mask mixes and the
// snort-like ACL shapes that trigger Fig. 6 decomposition — with goto chains,
// per-table miss policies and randomized compiler knobs.  The matched traffic
// generator then aims a controllable fraction of packets at installed entries
// (synthesizing frames from the entries' own matches) and fills the rest with
// random-but-parseable frames, over a controllable number of distinct flows.
//
// Everything is a pure function of the seed: a campaign that diverges in CI
// replays bit-for-bit from its logged seed (see testing/seed.hpp).
//
// Generated pipelines avoid the one OpenFlow behavior the spec leaves
// undefined and the backends could legitimately disagree on: two overlapping
// entries with equal priority in one table.  Within a table, either
// priorities are distinct or equal-priority entries are disjoint by
// construction (distinct exact keys, distinct prefixes of one length).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/analysis.hpp"
#include "flow/pipeline.hpp"
#include "netio/pktgen.hpp"

namespace esw::testing {

struct GenOptions {
  uint32_t min_tables = 1;
  uint32_t max_tables = 4;
  uint32_t max_entries_per_table = 48;
  /// Fraction (num/den) of generated packets synthesized from an installed
  /// entry's match; the rest are random-but-parseable frames.
  uint32_t hit_num = 3, hit_den = 4;
  bool allow_decomposition = true;
};

struct GeneratedWorkload {
  flow::Pipeline pipeline;
  core::CompilerConfig cfg;  // knobs drawn for this pipeline
  std::string description;   // compact shape summary for logs/artifacts
};

/// Best-effort packet spec matching `m`: constrained fields take the match
/// value (masked bits randomized via `rng`), the packet kind is derived from
/// protocol prerequisites.  Matches no single frame can satisfy (conflicting
/// transport constraints, metadata) come back unsatisfied in those fields —
/// harmless for the oracle, which compares backends, not hit rates.
net::FlowSpec spec_for_match(const flow::Match& m, Rng& rng);

class PipelineGen {
 public:
  explicit PipelineGen(uint64_t seed, const GenOptions& opts = {});

  /// One fresh randomized pipeline + compiler config.
  GeneratedWorkload next_pipeline();

  /// A matched traffic mix for `wl`: `n_flows` distinct flow specs (per the
  /// hit/miss split), replayed in random order until `n_packets` are emitted.
  std::vector<net::FlowSpec> traffic(const GeneratedWorkload& wl, size_t n_packets,
                                     size_t n_flows);

  Rng& rng() { return rng_; }

 private:
  void gen_exact_hash(flow::FlowTable& t, const std::vector<uint8_t>& later);
  void gen_lpm(flow::FlowTable& t, const std::vector<uint8_t>& later);
  void gen_range(flow::FlowTable& t, const std::vector<uint8_t>& later);
  void gen_direct_small(flow::FlowTable& t, const std::vector<uint8_t>& later);
  void gen_tuple_space(flow::FlowTable& t, const std::vector<uint8_t>& later);
  void gen_acl(flow::FlowTable& t);

  flow::ActionList random_actions(const std::vector<uint8_t>& later,
                                  int16_t* goto_out);

  GenOptions opts_;
  Rng rng_;
  uint64_t n_generated_ = 0;
};

}  // namespace esw::testing
