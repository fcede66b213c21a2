// Flow table analysis (§3.2): decide which template a table compiles into.
//
// The compiler "always attempts to compile into the most efficient table
// template available" and falls back along Fig. 4's chain when a prerequisite
// fails: direct code (#flows ≤ CONST) → compound hash (global mask, exact
// match; served by the resizable cuckoo table at every size) → LPM
// (single-field prefix rules, priorities consistent) → range → linked list
// (no prerequisite).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "cls/key_shape.hpp"
#include "core/decompose.hpp"
#include "core/template_kind.hpp"
#include "flow/table.hpp"
#include "state/ct_config.hpp"

namespace esw::core {

/// Upper bound on tables one decomposition may produce.
inline constexpr uint32_t kDecomposeMaxTables = 4096;

struct CompilerConfig {
  /// Fig. 9's calibrated constant: tables up to this size compile directly.
  uint32_t direct_code_max_entries = 4;
  /// Emit the fused x86-64 program for the plan's direct-code stages (else
  /// the portable specialized interpreter over the same lowered IR).
  bool enable_jit = true;
  /// Run the Fig. 6 table decomposition pass on linked-list-bound tables.
  bool enable_decomposition = false;
  /// Force one template for every table (calibration benches / ablation).
  std::optional<TableTemplate> force_template;
  /// Unused: kept only because bench/e2e still assigns it; delete it in the
  /// next benchmark change.
  uint32_t cuckoo_min_entries = 32768;
  /// Per-logical-table entry cap on the flow-mod path (0 = unbounded).  An
  /// add that would grow a table past this refuses with TableFullError —
  /// surfaced over OpenFlow as OFPFMFC_TABLE_FULL — instead of growing
  /// without bound.  Replacing an existing (match, priority) entry is always
  /// allowed; install() is not subject to the cap (it is the operator's
  /// wholesale program load, not controller churn).
  uint32_t table_capacity = 0;
  /// Connection tracking (src/state/): `ct.enabled` attaches a Conntrack to
  /// the compiled datapath; `ct:commit` actions and `ct_state` matches are
  /// parse/compile-valid either way but inert while disabled.
  state::CtConfig ct;
};

/// Analysis input: (match, priority) pairs in priority-descending order —
/// either a control-plane table or a decomposition-internal one.
using AnalysisEntries = std::vector<DecomposedPipeline::Entry>;

struct AnalysisResult {
  TableTemplate chosen = TableTemplate::kLinkedList;
  std::string reason;
};

/// Compound-hash prerequisite (served by the cuckoo template): all entries
/// share one field set and identical per-field masks ("every field is
/// matched by exactly the same mask in each entry"), plus at most one
/// catch-all default with strictly lowest priority.  On success reports the
/// shared key shape via `shape_out` (nullable).
bool hash_prerequisite(const AnalysisEntries& entries, cls::KeyShape* shape_out);

/// LPM prerequisite: single IPv4 field, prefix masks only, overlapping
/// prefixes ordered so the more specific has strictly higher priority; at most
/// one catch-all (the /0 default) with strictly lowest priority.
bool lpm_prerequisite(const AnalysisEntries& entries, flow::FieldId* field_out);

/// Range prerequisite (extension template): every non-catch-all entry matches
/// exactly one shared field with a prefix-style mask (each rule = one aligned
/// value range).  No ordering constraint — the interval flattening bakes
/// priorities in — so it catches e.g. priority-inverted prefix tables that
/// LPM must reject.
bool range_prerequisite(const AnalysisEntries& entries, flow::FieldId* field_out);

/// Template choice under `cfg`.
AnalysisResult analyze_entries(const AnalysisEntries& entries, const CompilerConfig& cfg);
AnalysisResult analyze_table(const flow::FlowTable& t, const CompilerConfig& cfg);

}  // namespace esw::core
