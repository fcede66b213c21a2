// Pipeline compilation helpers: template selection + construction for one
// (sub)table, parser-plan derivation for the whole pipeline, and the
// whole-pipeline fusion planner.
#pragma once

#include <array>
#include <memory>
#include <vector>

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
/// §3.1.  With conntrack on (cfg.ct.enabled), returns the full L2–L4 plan.
proto::ParserPlan compute_parser_plan(const flow::Pipeline& pl, const CompilerConfig& cfg);

/// Plan needed for a given ProtoBit requirement set.
proto::ParserPlan plan_for_requirements(uint32_t required);

/// ProtoBits an action list needs parsed (set-field targets, checksum-fixup
/// dependencies, dec-TTL).
uint32_t action_proto_requirements(const flow::ActionList& actions);

/// Decomposition sub-slots behind each logical table, in topological order
/// of the decomposition DAG (empty when the table is not decomposed).
using SubSlotMap = std::array<std::vector<int32_t>, 256>;

/// Outcome of one fusion-planning pass over the steady-state pipeline.
struct FusionResult {
  /// The plan to publish; nullptr for an empty pipeline, or when the
  /// published plan is already exact (same fingerprint) and the republish is
  /// skipped.
  std::unique_ptr<FusedPipeline> fused;
  /// Machine code was wanted but ExecBuffer refused the mapping (the
  /// jit.exec_map edge): `fused` carries no program and every stage walks
  /// its pinned impl.  The next refresh emits again.
  bool machine_failed = false;
};

/// Builds the fused plan for the pipeline's current compiled state.  Every
/// non-empty pipeline gets one: each logical table contributes its root slot
/// and then its decomposition sub-slots (`sub_slots`, topological order), so
/// every goto in the plan goes forward.  Conntrack hooks and controller miss
/// policies ride the chunk's pre/post stages.  A table without a slot or an
/// impl, or a start slot that is not the first table, is a programming error
/// (ESW_CHECK).
///
/// With the JIT on, the direct-code members are compiled into one machine
/// program; when the exec mapper refuses, the plan is published without a
/// program.  When `prev` (the currently published plan) is passed: an
/// identical fingerprint returns no plan (unless a wanted program is missing
/// from it, which re-emits it), and an identical
/// direct-code member set (program_key) reuses the previous machine program
/// instead of re-emitting — churn that only touched non-direct-code tables
/// republishes the plan without running the JIT.
FusionResult fuse_pipeline(const flow::Pipeline& pl, const CompiledDatapath& dp,
                           const GotoMap& goto_map, const SubSlotMap& sub_slots,
                           const CompilerConfig& cfg, const FusedPipeline* prev);

}  // namespace esw::core
