#include "core/eswitch.hpp"

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
  DataplaneStats out = degradation_;
  out.packets = s.packets;
  out.outputs = s.outputs;
  out.drops = s.drops;
  out.to_controller = s.to_controller;
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
  dp_.reset();
  goto_map_.assign(256, -1);
  for (auto& v : sub_slots_) v.clear();

  // Root slots first so any goto resolves, then table bodies.
  for (const FlowTable& t : pipeline_.tables())
    goto_map_[t.id()] = dp_.add_slot();
  for (const FlowTable& t : pipeline_.tables()) rebuild_logical(t.id());
  refresh_start_and_plan();
  refresh_fusion();
}

/// Re-plans the fused walk against the freshly published compiled state.
/// Must run after every control-plane mutation and *before* dp_.reclaim(): a
/// published plan pins impl pointers, so any update that retired one has to
/// republish the plan while the retiree is still in its grace period.
void Eswitch::refresh_fusion() {
  FusionResult r = fuse_pipeline(pipeline_, dp_, goto_map_, sub_slots_, cfg_, dp_.fused());
  // The exec-map edge: the plan is published without machine code, and the
  // next refresh finds the wanted program missing and emits it again.
  if (r.machine_failed) ++degradation_.fusion_fallbacks;
  if (r.fused == nullptr) return;  // the published plan is exact, or none is due
  ++update_stats_.fusion_republishes;
  dp_.set_fused(std::move(r.fused));
}

void Eswitch::rebuild_logical(uint8_t id) {
  const FlowTable* t = pipeline_.find_table(id);
  ESW_CHECK(t != nullptr);
  const int32_t root = goto_map_[id];
  ESW_CHECK(root >= 0);
  BuildCtx ctx{dp_.actions(), goto_map_};

  ++update_stats_.table_rebuilds;
  // The outgoing sub-table chain (if any) becomes unreachable once the root
  // swaps below; retire it behind the swap so its slots recycle after the
  // grace period instead of leaking until the next install().
  std::vector<int32_t> stale_subs = std::move(sub_slots_[id]);
  sub_slots_[id].clear();
  bool fell_back = false;

  if (cfg_.enable_decomposition &&
      analyze_table(*t, cfg_).chosen == TableTemplate::kLinkedList) {
    DecomposedPipeline d = decompose(*t, kDecomposeMaxTables);
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
        if (i == 0) root_template_[id] = kind;
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
/// an add that would grow the table past the cap is counted and throws
/// TableFullError *before* any state mutates — the OpenFlow TABLE_FULL
/// refusal shape.  Replacing an existing (match, priority) entry never grows
/// the table and is always admitted.
void Eswitch::check_capacity(const flow::Pipeline& pl, const FlowMod& fm) {
  if (cfg_.table_capacity == 0 || fm.command == FlowMod::Cmd::kDelete) return;
  const FlowTable* t = pl.find_table(fm.table_id);
  if (t == nullptr || t->size() < cfg_.table_capacity) return;
  for (const FlowEntry& e : t->entries())
    if (e.priority == fm.priority && e.match == fm.match) return;
  ++degradation_.mods_refused_table_full;
  throw TableFullError("table " + std::to_string(fm.table_id) +
                       " at capacity (" + std::to_string(cfg_.table_capacity) +
                       " entries)");
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

void Eswitch::apply_one(const FlowMod& fm, DirtySet& dirty) {
  const bool new_table =
      fm.command != FlowMod::Cmd::kDelete && pipeline_.find_table(fm.table_id) == nullptr;

  // Control plane first; a refusal throws before anything mutates.
  check_capacity(pipeline_, fm);
  pipeline_.apply(fm);

  if (fm.command == FlowMod::Cmd::kDelete && pipeline_.find_table(fm.table_id) == nullptr)
    return;  // delete on a never-created table: no-op

  if (new_table) {
    // The slot exists (gotos resolve; readers miss on its null impl until
    // commit); the one build runs at commit from the batch's final state.
    goto_map_[fm.table_id] = dp_.add_slot();
    dirty.insert(fm.table_id);
    return;
  }

  // A table already scheduled for a commit-time rebuild takes further batch
  // mods in the pipeline only — one rebuild per table per batch, not one per
  // failing mod.
  if (dirty.count(fm.table_id) != 0) return;

  if (!try_incremental(fm.table_id, fm)) dirty.insert(fm.table_id);
}

/// The tail every update shares: one rebuild per dirty table (from the final
/// pipeline state), one start/plan refresh, one fusion re-plan and one epoch
/// reclaim pass, however many mods the batch carried.
void Eswitch::commit_batch(const DirtySet& dirty) {
  for (const uint8_t id : dirty) rebuild_logical(id);
  if (!dirty.empty()) refresh_start_and_plan();
  refresh_fusion();
  dp_.reclaim();
}

void Eswitch::apply(const FlowMod& fm) {
  DirtySet dirty;
  apply_one(fm, dirty);
  commit_batch(dirty);
}

void Eswitch::apply_batch(const std::vector<FlowMod>& fms) {
  // Validate every mod against a scratch pipeline: all-or-nothing semantics.
  // Only the capacity check reads entries, so only then are the edited
  // tables' entries copied.
  flow::Pipeline scratch = pipeline_.scratch_for(fms, cfg_.table_capacity != 0);
  for (const FlowMod& fm : fms) {
    check_capacity(scratch, fm);
    scratch.apply(fm);
  }

  // Commit through the regular path: validated mods cannot throw, and each
  // lands incrementally where its table's template allows, so a batch of
  // route adds does not force wholesale LPM rebuilds.  Tables that do need a
  // rebuild collect in the dirty set and rebuild once at commit.
  DirtySet dirty;
  for (const FlowMod& fm : fms) apply_one(fm, dirty);
  commit_batch(dirty);
}

std::vector<ModStatus> Eswitch::apply_batch_partial(const std::vector<FlowMod>& fms) {
  std::vector<ModStatus> out;
  out.reserve(fms.size());
  DirtySet dirty;
  for (const FlowMod& fm : fms) {
    // apply_one throws before mutating anything, so refusing this mod leaves
    // the batch's accumulated state intact and the rest still lands.
    try {
      apply_one(fm, dirty);
      out.push_back(ModStatus::kApplied);
    } catch (const TableFullError&) {
      out.push_back(ModStatus::kRefusedTableFull);
    } catch (const CheckError&) {
      out.push_back(ModStatus::kRefusedInvalid);
    }
  }
  commit_batch(dirty);
  return out;
}

}  // namespace esw::core
