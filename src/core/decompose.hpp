// Flow table decomposition (§3.2, Fig. 6): rewrite one "difficult" flow table
// into a semantically equivalent multi-stage pipeline whose stages fit the
// fast templates — greedily pivoting on the column of minimal key diversity.
//
// The underlying decision problem is coNP-hard (paper's appendix), so this is
// the paper's heuristic: DECOMPOSE(T) picks the field with the fewest distinct
// keys, emits a router table over those keys, distributes the stripped rules
// (wildcards replicated into every branch, set-pruning style), and recurses.
//
// Implemented for exact-or-wildcard pivot columns, matching the paper's
// simplified exposition; masked fields can participate in residual tables but
// never as a pivot, and a table with no eligible pivot is returned unchanged
// — which is also the paper's observation for production pipelines ("in
// essentially all cases our decomposer simply returned its input intact").
#pragma once

#include <cstdint>
#include <vector>

#include "flow/table.hpp"

namespace esw::core {

/// A decomposition-internal pipeline.  Table 0 is the root; `internal_next`
/// links within the decomposition; leaves carry the original entry's actions
/// and logical goto target.
struct DecomposedPipeline {
  struct Entry {
    flow::Match match;
    uint16_t priority = 0;
    flow::ActionList actions;           // empty for pure routing entries
    int16_t logical_goto = flow::kNoGoto;  // original goto (leaves only)
    int32_t internal_next = -1;            // next decomposition table, or -1
  };
  struct Table {
    std::vector<Entry> entries;  // priority-descending, stable
  };
  std::vector<Table> tables;

  /// True when the input was already in (or could not leave) its given shape:
  /// a single table identical to the input.
  bool unchanged() const { return tables.size() == 1; }

  /// Table indexes, root first, ordered so that every internal_next edge
  /// points forward.  Index order is not enough: a memoized sub-table can be
  /// shared by a router allocated after it.
  std::vector<int32_t> topological_order() const;
};

/// Runs DECOMPOSE(T).  `max_tables` bounds the output; on overflow the input
/// is returned unchanged (the compiler then falls back to the linked list).
DecomposedPipeline decompose(const flow::FlowTable& input, uint32_t max_tables = 4096);

}  // namespace esw::core
