// Pipeline compilation helpers: template selection + construction for one
// (sub)table, parser-plan derivation for the whole pipeline, and the
// whole-pipeline fusion planner (ROADMAP item 3).
#pragma once

#include <array>
#include <memory>
#include <string>

#include "core/analysis.hpp"
#include "core/compiled_table.hpp"
#include "core/datapath.hpp"
#include "flow/pipeline.hpp"

namespace esw::core {

/// Builds the implementation for one table's entries according to analysis
/// (honoring cfg.force_template when its prerequisite holds).  Reports the
/// chosen template via `chosen_out` when non-null.  A specialized build that
/// exhausts its resource budget (tbl8 groups, LPM result slots) degrades to
/// the linked-list template — the infallible bottom of Fig. 4's fallback
/// chain — and sets *fell_back; only a linked-list build failure propagates.
std::unique_ptr<CompiledTable> build_table_impl(const std::vector<BuildEntry>& entries,
                                                const CompilerConfig& cfg, BuildCtx& ctx,
                                                TableTemplate* chosen_out = nullptr,
                                                bool* fell_back = nullptr);

/// The minimal parser plan covering every matched field and every packet-
/// mutating action in the pipeline — the parser-template specialization of
/// §3.1.  With cfg.specialize_parser == false, returns the full L2–L4 plan.
proto::ParserPlan compute_parser_plan(const flow::Pipeline& pl, const CompilerConfig& cfg);

/// Plan needed for a given ProtoBit requirement set.
proto::ParserPlan plan_for_requirements(uint32_t required);

/// ProtoBits an action list needs parsed (set-field targets, checksum-fixup
/// dependencies, dec-TTL).
uint32_t action_proto_requirements(const flow::ActionList& actions);

/// Outcome of one fusion-planning pass over the steady-state pipeline.
struct FusionResult {
  /// The plan to publish, or nullptr: either the pipeline is not fusable
  /// (why_not says why) or the machine compile failed (machine_failed) —
  /// both degrade to the staged walk.
  std::unique_ptr<FusedPipeline> fused;
  /// The currently published plan is already exact (same fingerprint):
  /// skip the republish entirely.
  bool unchanged = false;
  /// Machine code was wanted but ExecBuffer refused the mapping (the
  /// jit.exec_map edge) — eligible for the bounded re-fusion retry.
  bool machine_failed = false;
  std::string why_not;
};

/// Decides fusability and builds the fused plan for the pipeline's current
/// compiled state.  Fusability rules: fusion enabled, non-empty pipeline, no
/// decomposed logical tables (their goto graph lives in private sub-slots),
/// every table's root slot published with a live impl, and the datapath
/// start pointing at the first table.  Conntrack hooks and controller miss
/// policies ARE fusable — they ride the chunk's pre/post stages.
///
/// When `prev` (the currently published plan) is passed: an identical
/// fingerprint short-circuits to `unchanged`, and an identical direct-code
/// member set (program_key) reuses the previous machine program instead of
/// re-emitting — churn that only touched non-direct-code tables (linked-list
/// clone-swaps, template fallbacks) republishes the plan without running the
/// JIT.
FusionResult fuse_pipeline(const flow::Pipeline& pl, const CompiledDatapath& dp,
                           const GotoMap& goto_map,
                           const std::array<bool, 256>& decomposed,
                           const CompilerConfig& cfg, const FusedPipeline* prev);

}  // namespace esw::core
