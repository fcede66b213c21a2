#include "core/eswitch.hpp"

#include <algorithm>
#include <limits>
#include <set>

#include "common/check.hpp"
#include "state/conntrack.hpp"

namespace esw::core {

using flow::FlowEntry;
using flow::FlowMod;
using flow::FlowTable;

Eswitch::Eswitch(const CompilerConfig& cfg) : cfg_(cfg) {
  root_template_.fill(TableTemplate::kLinkedList);
  if (cfg_.ct.enabled) {
    // The conntrack shares the datapath's epoch domain: the per-burst worker
    // tick that lets table retirements reclaim also ages out ct entries.
    ct_ = std::make_unique<state::Conntrack>(cfg_.ct, &dp_.domain());
    dp_.set_conntrack(ct_.get());
  }
}

Eswitch::~Eswitch() {
  dp_.set_conntrack(nullptr);
}

DataplaneStats Eswitch::stats() const {
  const CompiledDatapath::Stats s = dp_.stats();
  DataplaneStats out{s.packets, s.outputs, s.drops, s.to_controller};
  out.jit_fallbacks = degradation_.fusion_fallbacks;
  out.mods_refused_table_full = degradation_.mods_refused_table_full;
  if (ct_ != nullptr) {
    const state::Conntrack::Stats cs = ct_->stats();
    out.ct_entries = cs.live;
    out.ct_commit_drops = cs.commit_drops;
    out.ct_evictions_forced = cs.evictions_forced;
    out.ct_expired = cs.expired;
  }
  return out;
}

void Eswitch::install(const flow::Pipeline& pl) {
  const auto err = pl.validate();
  ESW_CHECK_MSG(!err.has_value(), err.value_or(""));
  pipeline_ = pl;
  compile_all();
}

void Eswitch::compile_all() {
  installing_ = true;
  dp_.reset();
  goto_map_.assign(256, -1);
  for (auto& v : sub_slots_) v.clear();

  // Root slots first so any goto resolves, then table bodies.
  for (const FlowTable& t : pipeline_.tables())
    goto_map_[t.id()] = dp_.add_slot();
  for (const FlowTable& t : pipeline_.tables()) rebuild_logical(t.id());
  refresh_start_and_plan();
  fusion_retry_.reset();  // the old program's degradation owes us nothing
  refresh_fusion();
  installing_ = false;
}

/// Re-plans the fused walk against the freshly published compiled state.
/// Must run after every control-plane mutation and *before* dp_.reclaim(): a
/// published plan pins impl pointers, so any update that retired one has to
/// republish the plan while the retiree is still in its grace period.
void Eswitch::refresh_fusion() {
  // After a refused machine emit, plans keep being republished (they pin
  // impls churn may retire) but without a program until the retry window
  // elapses; then one emit attempt runs.
  const bool retrying =
      fusion_retry_.has_value() && update_seq_ >= fusion_retry_->next_at;
  if (retrying) ++degradation_.fusion_retries;

  FusionResult r = fuse_pipeline(pipeline_, dp_, goto_map_, sub_slots_, cfg_,
                                 dp_.fused(), !fusion_retry_.has_value() || retrying);
  if (r.machine_failed) {
    // The exec-map edge: publish the plan without machine code and schedule
    // a bounded-backoff re-emit.  With retries disabled (base 0) the window
    // never elapses: the plan stays without a program until install().
    ++degradation_.fusion_fallbacks;
    if (!fusion_retry_.has_value()) {
      const uint64_t base = cfg_.jit_retry_base_updates;
      fusion_retry_ = JitRetry{
          base > 0 ? update_seq_ + base : std::numeric_limits<uint64_t>::max(), base};
    } else if (retrying) {
      fusion_retry_->backoff =
          std::min<uint64_t>(fusion_retry_->backoff * 2,
                             std::max(cfg_.jit_retry_max_updates,
                                      cfg_.jit_retry_base_updates));
      fusion_retry_->next_at = update_seq_ + fusion_retry_->backoff;
    }
  } else if (retrying) {
    ++degradation_.fusion_recoveries;
    fusion_retry_.reset();
  }
  if (r.fused == nullptr) return;  // the published plan is exact, or none is due
  ++update_stats_.fusion_republishes;
  dp_.set_fused(std::move(r.fused));
}

void Eswitch::rebuild_logical(uint8_t id, bool fresh_table) {
  const FlowTable* t = pipeline_.find_table(id);
  ESW_CHECK(t != nullptr);
  const int32_t root = goto_map_[id];
  ESW_CHECK(root >= 0);
  BuildCtx ctx{dp_.actions(), goto_map_};

  ++update_stats_.table_rebuilds;
  // Template re-selection accounting: a churn-path rebuild whose re-analysis
  // lands on a different template than the table ran on means the table
  // crossed a shape's sweet spot (or broke a prerequisite).  Wholesale
  // install() and first builds of fresh tables don't count.
  const TableTemplate prev_kind = root_template_[id];
  const auto note_reselection = [&](TableTemplate kind) {
    if (!installing_ && !fresh_table && kind != prev_kind)
      ++update_stats_.template_reselections;
  };
  // The outgoing sub-table chain (if any) becomes unreachable once the root
  // swaps below; retire it behind the swap so its slots recycle after the
  // grace period instead of leaking until the next install().
  std::vector<int32_t> stale_subs = std::move(sub_slots_[id]);
  sub_slots_[id].clear();
  bool fell_back = false;

  if (cfg_.enable_decomposition &&
      analyze_table(*t, cfg_).chosen == TableTemplate::kLinkedList) {
    DecomposedPipeline d = decompose(*t, cfg_.decompose_max_tables);
    if (!d.unchanged()) {
      // Fresh slots for the sub-tables; the logical root keeps its slot so
      // cross-table gotos stay valid across the swap.
      std::vector<int32_t> slot_of(d.tables.size(), -1);
      slot_of[0] = root;
      for (size_t i = 1; i < d.tables.size(); ++i)
        slot_of[i] = dp_.add_slot();

      // Children first, root last: readers that enter through the old root
      // never see a half-published chain.
      for (size_t i = d.tables.size(); i-- > 0;) {
        std::vector<BuildEntry> entries = d.tables[i].entries;
        for (BuildEntry& e : entries)
          if (e.internal_next >= 0) e.internal_next = slot_of[e.internal_next];
        TableTemplate kind{};
        auto impl = build_table_impl(entries, cfg_, ctx, &kind, &fell_back);
        dp_.set_impl(slot_of[i], std::move(impl));
        if (i == 0) {
          note_reselection(kind);
          root_template_[id] = kind;
        }
      }
      // Topological order of the decomposition DAG: the fusion planner lays
      // the sub-tables out as stages in this order.
      const std::vector<int32_t> order = d.topological_order();
      for (size_t k = 1; k < order.size(); ++k)
        sub_slots_[id].push_back(slot_of[static_cast<size_t>(order[k])]);
      for (const int32_t s : stale_subs) dp_.retire_slot(s);
      if (fell_back) ++degradation_.template_fallbacks;
      return;
    }
  }

  TableTemplate kind{};
  auto impl = build_table_impl(to_build_entries(*t), cfg_, ctx, &kind, &fell_back);
  dp_.set_impl(root, std::move(impl));
  note_reselection(kind);
  root_template_[id] = kind;
  for (const int32_t s : stale_subs) dp_.retire_slot(s);
  if (fell_back) ++degradation_.template_fallbacks;
}

void Eswitch::refresh_start_and_plan() {
  const FlowTable* first = pipeline_.first_table();
  dp_.set_start(first != nullptr ? goto_map_[first->id()] : -1);
  dp_.set_plan(compute_parser_plan(pipeline_, cfg_));
}

void Eswitch::maybe_widen_plan(const FlowEntry& e) {
  // O(1) plan widening on the incremental path — a full recompute per update
  // would dominate at high flow-mod rates.
  const uint32_t req = e.match.proto_required() | action_proto_requirements(e.actions);
  const proto::ParserPlan needed = plan_for_requirements(req);
  proto::ParserPlan plan = dp_.plan();
  if ((needed.need_l3 && !plan.need_l3) || (needed.need_l4 && !plan.need_l4)) {
    plan.need_l3 |= needed.need_l3;
    plan.need_l4 |= needed.need_l4;
    dp_.set_plan(plan);
  }
}

/// Table-capacity admission control (cfg_.table_capacity, 0 = unbounded):
/// an add that would grow the table past the cap throws TableFullError
/// *before* any state mutates — the OpenFlow TABLE_FULL refusal shape.
/// Replacing an existing (match, priority) entry never grows the table and
/// is always admitted.
void Eswitch::check_capacity(const flow::Pipeline& pl, const FlowMod& fm) const {
  if (cfg_.table_capacity == 0 || fm.command == FlowMod::Cmd::kDelete) return;
  const FlowTable* t = pl.find_table(fm.table_id);
  if (t == nullptr || t->size() < cfg_.table_capacity) return;
  for (const FlowEntry& e : t->entries())
    if (e.priority == fm.priority && e.match == fm.match) return;
  throw TableFullError("table " + std::to_string(fm.table_id) +
                       " at capacity (" + std::to_string(cfg_.table_capacity) +
                       " entries)");
}

void Eswitch::apply_to_pipeline(flow::Pipeline& pl, const FlowMod& fm) const {
  switch (fm.command) {
    case FlowMod::Cmd::kAdd:
    case FlowMod::Cmd::kModify: {
      if (fm.goto_table != flow::kNoGoto) {
        ESW_CHECK_MSG(fm.goto_table > fm.table_id, "goto_table must go forward");
        ESW_CHECK_MSG(pl.find_table(static_cast<uint8_t>(fm.goto_table)) != nullptr,
                      "goto_table target does not exist");
      }
      check_capacity(pl, fm);
      pl.table(fm.table_id).add(flow::entry_from(fm));
      break;
    }
    case FlowMod::Cmd::kDelete: {
      if (pl.find_table(fm.table_id) != nullptr)
        pl.table(fm.table_id).remove(fm.match, fm.priority);
      break;
    }
  }
}

/// §3.4's non-destructive incremental update: the published impl absorbs the
/// mod in place — every incremental template (cuckoo, LPM, linked list) is
/// reader-safe under registered workers, retiring what it displaces through
/// the epoch domain.  False = the template refused; the caller rebuilds.
bool Eswitch::try_incremental(uint8_t table, const FlowMod& fm) {
  const int32_t root = goto_map_[table];
  CompiledTable* impl = root >= 0 ? dp_.impl_mut(root) : nullptr;
  if (impl == nullptr || is_decomposed(table)) return false;
  BuildCtx ctx{dp_.actions(), goto_map_};
  if (fm.command == FlowMod::Cmd::kAdd) {
    const FlowEntry e = flow::entry_from(fm);
    // Widen the parser plan first: the entry is live the moment try_add
    // publishes it.
    maybe_widen_plan(e);
    if (!impl->try_add(e, ctx)) return false;
  } else if (fm.command == FlowMod::Cmd::kDelete) {
    if (!impl->try_remove(fm.match, fm.priority)) return false;
  } else {
    return false;
  }
  ++update_stats_.incremental;
  return true;
}

void Eswitch::apply_one(const FlowMod& fm, DirtySet* dirty) {
  const bool new_table =
      fm.command != FlowMod::Cmd::kDelete && pipeline_.find_table(fm.table_id) == nullptr;

  // Control plane first; throws leave no trace.
  apply_to_pipeline(pipeline_, fm);

  if (fm.command == FlowMod::Cmd::kDelete && pipeline_.find_table(fm.table_id) == nullptr)
    return;  // delete on a never-created table: no-op

  if (new_table) {
    goto_map_[fm.table_id] = dp_.add_slot();
    if (dirty != nullptr) {
      // Batch path: the slot exists (gotos resolve; readers miss on its null
      // impl until commit), the one build runs at commit from the batch's
      // final state.
      (*dirty)[fm.table_id] = true;  // created by this batch
      return;
    }
    rebuild_logical(fm.table_id, /*fresh_table=*/true);
    refresh_start_and_plan();
    return;
  }

  // A table already scheduled for a commit-time rebuild takes further batch
  // mods in the pipeline only — one rebuild per table per batch, not one per
  // failing mod.
  if (dirty != nullptr && dirty->count(fm.table_id) != 0) return;

  if (!try_incremental(fm.table_id, fm)) {
    if (dirty != nullptr) {
      dirty->emplace(fm.table_id, false);
      return;
    }
    rebuild_logical(fm.table_id);
    refresh_start_and_plan();
  }
}

/// Batch commit: one rebuild per dirty table (from the final pipeline state)
/// and one start/plan refresh.
void Eswitch::commit_batch(const DirtySet& dirty) {
  for (const auto& [id, fresh] : dirty) rebuild_logical(id, fresh);
  if (!dirty.empty()) refresh_start_and_plan();
}

void Eswitch::apply(const FlowMod& fm) {
  ++update_seq_;
  try {
    apply_one(fm);
  } catch (const TableFullError&) {
    ++degradation_.mods_refused_table_full;
    throw;
  }
  refresh_fusion();
  dp_.reclaim();
}

void Eswitch::apply_batch(const std::vector<FlowMod>& fms) {
  ++update_seq_;
  // Validate every mod against a scratch copy: all-or-nothing semantics.
  flow::Pipeline scratch = pipeline_;
  try {
    for (const FlowMod& fm : fms) apply_to_pipeline(scratch, fm);
  } catch (const TableFullError&) {
    ++degradation_.mods_refused_table_full;
    throw;
  }
  const auto err = scratch.validate();
  ESW_CHECK_MSG(!err.has_value(), err.value_or(""));

  // Commit through the regular path: validated mods cannot throw, and each
  // lands incrementally where its table's template allows, so a batch of
  // route adds does not force wholesale LPM rebuilds.  Tables that do need a
  // rebuild collect in the dirty set and rebuild once at commit.
  DirtySet dirty;
  for (const FlowMod& fm : fms) apply_one(fm, &dirty);
  commit_batch(dirty);
  refresh_fusion();
  dp_.reclaim();
}

std::vector<ModStatus> Eswitch::apply_batch_partial(const std::vector<FlowMod>& fms) {
  ++update_seq_;
  std::vector<ModStatus> out;
  out.reserve(fms.size());
  DirtySet dirty;
  for (const FlowMod& fm : fms) {
    try {
      apply_one(fm, &dirty);
      out.push_back(ModStatus::kApplied);
    } catch (const TableFullError&) {
      // apply_one throws before mutating anything, so refusing this mod
      // leaves the batch's accumulated state intact and the rest still lands.
      ++degradation_.mods_refused_table_full;
      out.push_back(ModStatus::kRefusedTableFull);
    } catch (const CheckError&) {
      out.push_back(ModStatus::kRefusedInvalid);
    }
  }
  commit_batch(dirty);
  refresh_fusion();
  dp_.reclaim();
  return out;
}

}  // namespace esw::core
