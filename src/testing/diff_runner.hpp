// The differential oracle: prove that the specialized datapath is
// behavior-identical to the general-purpose one it replaces.
//
// One trace is replayed through four legs —
//
//   1. es-jit:    core::Eswitch with the JIT on (bursts run the fused plan
//                 with its machine program),
//   2. es-interp: core::Eswitch with the JIT off (the same fused plan with no
//                 machine program: every stage walks its pinned impl, direct
//                 code through the IR interpreter),
//   3. ovs:       ovs::OvsSwitch (microflow/megaflow caches over the slow
//                 path),
//   4. ref:       flow::Pipeline::run, the spec interpreter, one packet at a
//                 time — it shares no compiler, analysis or cache code with
//                 the legs above,
//
// comparing per-packet verdicts and mutated frame bytes on every leg, and
// end-of-run DataplaneStats on the three that keep them (the ref leg has
// none).  Detection is cheap: each leg folds its behavior into a running hash
// over (verdict, frame bytes) while processing in bursts (the production
// shape), so agreement costs no per-packet bookkeeping.  On disagreement the
// runner binary-searches the shortest failing trace prefix (replaying fresh
// backends per probe — processing is deterministic, so a divergence at packet
// i reproduces under any prefix that includes it), single-steps the last
// packet for a human-readable detail, and writes a repro artifact: the
// minimized pcap plus a DSL dump of the pipeline and compiler knobs that
// load_repro() reads back for replay.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "core/analysis.hpp"
#include "flow/pipeline.hpp"
#include "netio/pktgen.hpp"
#include "ovs/ovs_switch.hpp"
#include "testing/pipeline_gen.hpp"

namespace esw::testing {

/// The oracle replays a net::TrafficSet like every other harness: raw frames,
/// each with its own ingress port (pcap carries no port metadata, so the
/// artifact stores ports in the rules dump).  The old name stays only for the
/// frozen end-to-end benchmark.
using DiffTrace = net::TrafficSet;

struct DiffOptions {
  /// Where repro artifacts land on divergence; empty = don't write.
  std::string artifact_dir;
  /// The baseline's configuration.  Union-mode megaflows only: the minimal
  /// (Shelly-style) masks are deliberately unsound (Fig. 3) and would report
  /// false divergences.
  ovs::OvsSwitch::Config ovs{};
  /// Test-only fault injection: applied to the es-jit leg's verdict stream
  /// (packet index, real verdict) -> observed verdict.  Lets tests prove the
  /// minimizer finds a planted divergence and produces a working artifact.
  std::function<flow::Verdict(size_t, flow::Verdict)> fault;
};

struct Divergence {
  size_t prefix_len = 0;  // shortest failing prefix, in packets
  std::string kind;       // "verdict" | "bytes" | "stats"
  std::string detail;
  std::string description;  // generator's pipeline summary (campaigns)
  std::string pcap_path;    // written artifacts (empty when not writing)
  std::string rules_path;
};

class DiffRunner {
 public:
  explicit DiffRunner(const DiffOptions& opts = {}) : opts_(opts) {}

  /// Replays `trace` through all four legs; nullopt = behaviorally equal.
  /// On divergence, minimizes and (artifact_dir set) writes `<tag>.pcap` +
  /// `<tag>.rules`.
  std::optional<Divergence> run(const flow::Pipeline& pl,
                                const core::CompilerConfig& cfg,
                                const net::TrafficSet& trace,
                                const std::string& tag = "repro");

  struct CampaignStats {
    uint64_t pipelines = 0;
    uint64_t packets = 0;
  };

  /// Seeded campaign: `n_pipelines` generated workloads of
  /// `packets_per_pipeline` packets each (flow counts drawn per pipeline to
  /// sweep cache pressure), stopping at the first divergence.
  std::optional<Divergence> campaign(uint64_t seed, uint32_t n_pipelines,
                                     uint32_t packets_per_pipeline,
                                     const GenOptions& gen_opts = {},
                                     CampaignStats* stats_out = nullptr);

 private:
  struct PathSummary {
    uint64_t behavior_hash = 0;
    core::DataplaneStats stats;
  };

  bool diverged(const flow::Pipeline& pl, const core::CompilerConfig& cfg,
                const net::TrafficSet& trace, size_t prefix, std::string* kind);
  std::string classify(const flow::Pipeline& pl, const core::CompilerConfig& cfg,
                       const net::TrafficSet& trace, size_t prefix, std::string* kind);

  DiffOptions opts_;
};

/// Serializes the repro artifact pair.  Returns false on I/O failure.
bool write_repro(const std::string& pcap_path, const std::string& rules_path,
                 const flow::Pipeline& pl, const core::CompilerConfig& cfg,
                 const net::TrafficSet& trace, size_t prefix_len,
                 const std::string& header_comment);

struct ReproArtifact {
  flow::Pipeline pipeline;
  core::CompilerConfig cfg;
  net::TrafficSet trace;  // empty when the pcap holds no records
};

/// Reads a `.rules` + `.pcap` artifact pair back; nullopt (with `error` set)
/// on malformed input.
std::optional<ReproArtifact> load_repro(const std::string& rules_path,
                                        const std::string& pcap_path,
                                        std::string* error);

}  // namespace esw::testing
