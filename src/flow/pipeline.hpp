// The OpenFlow pipeline (linked hierarchy of flow tables, §2 of the paper)
// plus the *reference interpreter*: a direct datapath that walks the tables
// exactly as the spec prescribes.  Slow, obviously correct, and used as the
// semantic oracle in differential tests, as the OVS-model slow path, and as
// the pre-compilation representation inside ESWITCH.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "flow/table.hpp"

namespace esw::flow {

struct FlowMod;

/// One step of a pipeline traversal (for megaflow construction and tests).
struct TraceStep {
  uint8_t table_id = 0;
  const FlowEntry* entry = nullptr;  // nullptr = table miss
};

class Pipeline {
 public:
  /// Returns the table with this id, creating it (empty) if absent.
  FlowTable& table(uint8_t id);

  const FlowTable* find_table(uint8_t id) const;

  /// Lowest-numbered table — packet processing starts here ("Table 0").
  const FlowTable* first_table() const;

  const std::vector<FlowTable>& tables() const { return tables_; }
  std::vector<FlowTable>& tables() { return tables_; }
  bool empty() const { return tables_.empty(); }

  /// Validates OpenFlow constraints (goto targets exist and go forward only);
  /// returns an error message or nullopt.
  std::optional<std::string> validate() const;

  /// The one rule-store edit every backend makes for a flow-mod: add/modify
  /// stores flow::entry_from(fm), replacing an equal (match, priority) entry;
  /// delete removes that exact entry (a no-op on an absent table or entry).
  /// An add/modify whose goto_table does not go forward or names a missing
  /// table throws CheckError before anything mutates, so a valid pipeline
  /// stays valid.  Whether a mod is refused depends only on which tables
  /// exist, never on their entries.
  void apply(const FlowMod& fm);

  /// A scratch pipeline to validate the batch `fms` against before any of it
  /// lands: every table, without entries (apply() refuses a mod only for its
  /// goto, which depends on the table set alone), except that with
  /// `edited_entries` each table the batch edits keeps its entries, which a
  /// capacity check reads.  Nothing else of the rule store is copied.
  Pipeline scratch_for(const std::vector<FlowMod>& fms, bool edited_entries) const;

  /// Reference interpretation of one parsed packet.  Mutates the packet when
  /// the accumulated action set says so and returns the verdict.  If `trace`
  /// is given, every table visit is recorded.
  Verdict process(net::Packet& pkt, proto::ParseInfo& pi,
                  std::vector<TraceStep>* trace = nullptr) const;

  /// Parses with a full parser plan, then processes.
  Verdict run(net::Packet& pkt) const;

 private:
  std::vector<FlowTable> tables_;  // sorted by id
};

}  // namespace esw::flow
