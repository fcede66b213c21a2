#include "flow/pipeline.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"
#include "flow/wire.hpp"

namespace esw::flow {

FlowTable& Pipeline::table(uint8_t id) {
  auto pos = std::find_if(tables_.begin(), tables_.end(),
                          [&](const FlowTable& t) { return t.id() >= id; });
  if (pos != tables_.end() && pos->id() == id) return *pos;
  return *tables_.insert(pos, FlowTable(id));
}

const FlowTable* Pipeline::find_table(uint8_t id) const {
  for (const FlowTable& t : tables_)
    if (t.id() == id) return &t;
  return nullptr;
}

const FlowTable* Pipeline::first_table() const {
  return tables_.empty() ? nullptr : &tables_.front();
}

std::optional<std::string> Pipeline::validate() const {
  for (const FlowTable& t : tables_) {
    for (const FlowEntry& e : t.entries()) {
      if (e.goto_table == kNoGoto) continue;
      if (e.goto_table <= t.id()) {
        std::ostringstream os;
        os << "table " << int(t.id()) << ": goto_table " << e.goto_table
           << " must reference a later table";
        return os.str();
      }
      if (!find_table(static_cast<uint8_t>(e.goto_table))) {
        std::ostringstream os;
        os << "table " << int(t.id()) << ": goto_table " << e.goto_table
           << " does not exist";
        return os.str();
      }
    }
  }
  return std::nullopt;
}

void Pipeline::apply(const FlowMod& fm) {
  if (fm.command == FlowMod::Cmd::kDelete) {
    if (find_table(fm.table_id) != nullptr) table(fm.table_id).remove(fm.match, fm.priority);
    return;
  }
  if (fm.goto_table != kNoGoto) {
    ESW_CHECK_MSG(fm.goto_table > fm.table_id, "goto_table must go forward");
    ESW_CHECK_MSG(find_table(static_cast<uint8_t>(fm.goto_table)) != nullptr,
                  "goto_table target does not exist");
  }
  table(fm.table_id).add(entry_from(fm));
}

Pipeline Pipeline::scratch_for(const std::vector<FlowMod>& fms, bool edited_entries) const {
  Pipeline scratch;
  scratch.tables_.reserve(tables_.size());
  for (const FlowTable& t : tables_) scratch.tables_.emplace_back(t.id());
  if (!edited_entries) return scratch;
  for (const FlowMod& fm : fms) {
    const FlowTable* t = find_table(fm.table_id);
    if (t == nullptr || t->empty()) continue;
    FlowTable& s = scratch.table(fm.table_id);
    if (s.empty()) s = *t;  // first mod on this table: not yet copied
  }
  return scratch;
}

Verdict Pipeline::process(net::Packet& pkt, proto::ParseInfo& pi,
                          std::vector<TraceStep>* trace) const {
  const FlowTable* t = first_table();
  if (t == nullptr) return Verdict::drop();

  ActionSetBuilder action_set;
  while (true) {
    const FlowEntry* e = t->lookup(pkt.data(), pi);
    if (trace) trace->push_back({t->id(), e});
    if (e == nullptr) {
      // Table miss: drop or punt, per table configuration (§2).
      return t->miss_policy() == FlowTable::MissPolicy::kController
                 ? Verdict::controller()
                 : Verdict::drop();
    }
    e->n_packets++;
    e->n_bytes += pkt.len();
    action_set.merge(e->actions);
    if (e->goto_table == kNoGoto) break;
    t = find_table(static_cast<uint8_t>(e->goto_table));
    ESW_DCHECK(t != nullptr);  // guaranteed by validate()
  }
  return action_set.execute(pkt, pi);
}

Verdict Pipeline::run(net::Packet& pkt) const {
  proto::ParseInfo pi;
  proto::parse(pkt.data(), pkt.len(), proto::ParserPlan::full(), pi);
  pi.in_port = pkt.in_port();
  return process(pkt, pi);
}

}  // namespace esw::flow
