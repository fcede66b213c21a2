#include "core/compiler.hpp"

#include "common/check.hpp"
#include "proto/headers.hpp"

namespace esw::core {

using flow::FieldId;

std::unique_ptr<CompiledTable> build_table_impl(const std::vector<BuildEntry>& entries,
                                                const CompilerConfig& cfg, BuildCtx& ctx,
                                                TableTemplate* chosen_out,
                                                bool* fell_back) {
  AnalysisResult ar = analyze_entries(entries, cfg);

  // A forced template only sticks when its prerequisite actually holds.
  flow::Match mask_template;
  bool has_catch_all = false;
  FieldId lpm_field = FieldId::kCount;
  FieldId range_field = FieldId::kCount;
  switch (ar.chosen) {
    case TableTemplate::kCuckooHash:
      if (!hash_prerequisite(entries, &mask_template, &has_catch_all))
        ar.chosen = TableTemplate::kLinkedList;
      break;
    case TableTemplate::kLpm:
      if (!lpm_prerequisite(entries, &lpm_field))
        ar.chosen = TableTemplate::kLinkedList;
      break;
    case TableTemplate::kRange:
      if (!range_prerequisite(entries, &range_field))
        ar.chosen = TableTemplate::kLinkedList;
      break;
    default:
      break;
  }

  std::unique_ptr<CompiledTable> impl;
  try {
    switch (ar.chosen) {
      case TableTemplate::kDirectCode:
        impl = DirectCodeTable::build(entries, ctx);
        break;
      case TableTemplate::kCuckooHash:
        impl = CuckooTemplateTable::build(entries, mask_template, ctx);
        break;
      case TableTemplate::kLpm:
        impl = LpmTemplateTable::build(entries, lpm_field, ctx, cfg.lpm_max_tbl8_groups);
        break;
      case TableTemplate::kRange:
        impl = RangeTemplateTable::build(entries, range_field, ctx);
        break;
      default:  // kLinkedList; analysis never hands out kCompoundHash
        impl = LinkedListTable::build(entries, ctx);
        break;
    }
  } catch (const CheckError&) {
    // A specialized build ran out of its resource (tbl8 budget, result-table
    // overflow).  The linked-list template has no such budgets — take the
    // bottom of Fig. 4's chain instead of aborting the update.  A genuine
    // linked-list build failure is a programming error and propagates.
    if (ar.chosen == TableTemplate::kLinkedList) throw;
    ar.chosen = TableTemplate::kLinkedList;
    impl = LinkedListTable::build(entries, ctx);
    if (fell_back != nullptr) *fell_back = true;
  }
  if (chosen_out != nullptr) *chosen_out = ar.chosen;
  return impl;
}

proto::ParserPlan plan_for_requirements(uint32_t required) {
  using namespace esw::proto;
  constexpr uint32_t kL3Bits = kProtoIpv4 | kProtoArp | kProtoTcp | kProtoUdp | kProtoIcmp;
  constexpr uint32_t kL4Bits = kProtoTcp | kProtoUdp | kProtoIcmp;
  proto::ParserPlan plan;
  plan.need_l4 = (required & kL4Bits) != 0;
  plan.need_l3 = plan.need_l4 || (required & kL3Bits) != 0;
  return plan;
}

uint32_t action_proto_requirements(const flow::ActionList& actions) {
  using namespace esw::proto;
  uint32_t required = 0;
  for (const flow::Action& a : actions) {
    if (a.type == flow::ActionType::kSetField) {
      required |= flow::field_info(a.field).proto_required;
      // Rewriting IP addresses perturbs the TCP/UDP pseudo-header checksum:
      // the datapath must parse L4 to fix it up, even if nothing matches L4.
      if (a.field == flow::FieldId::kIpSrc || a.field == flow::FieldId::kIpDst)
        required |= kProtoTcp;
    }
    if (a.type == flow::ActionType::kDecTtl) required |= kProtoIpv4;
    // Conntrack commits key on the full five-tuple; the datapath must parse
    // L4 even when no rule matches transport fields.
    if (a.type == flow::ActionType::kCtCommit) required |= kProtoIpv4 | kProtoTcp;
  }
  return required;
}

namespace {

// FNV-1a over a 64-bit word — the plan fingerprints below only need cheap,
// deterministic identity, not cryptographic strength.
uint64_t fnv1a64(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}
constexpr uint64_t kFnvBasis = 14695981039346656037ull;

/// Links machine members into regions (FusedPipeline::Stage::region_next):
/// members joined by a goto the program resolves into a jmp share one ring,
/// so the walk can flush every counter a machine call may have bumped by
/// visiting the entry stage's ring instead of the whole plan.
void link_machine_regions(FusedPipeline& fp,
                          const std::vector<jit::FusedProgram::Member>& members) {
  std::vector<uint32_t> parent(fp.stages.size());
  for (uint32_t i = 0; i < parent.size(); ++i) parent[i] = i;
  const auto find = [&](uint32_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (const jit::FusedProgram::Member& m : members) {
    for (const jit::LoweredEntry& e : *m.entries) {
      int32_t action = -1, next = -1;
      jit::unpack_result(e.result, action, next);
      if (next < 0) continue;
      const int32_t ts = fp.stage_of_slot[static_cast<size_t>(next)];
      if (fp.stages[static_cast<size_t>(ts)].entry != nullptr)
        parent[find(m.stage)] = find(static_cast<uint32_t>(ts));
    }
  }
  // Chain each region's members in stage order, then close the ring.
  std::vector<int32_t> head(fp.stages.size(), -1), tail(fp.stages.size(), -1);
  for (const jit::FusedProgram::Member& m : members) {
    const uint32_t r = find(m.stage);
    if (head[r] < 0)
      head[r] = static_cast<int32_t>(m.stage);
    else
      fp.stages[static_cast<size_t>(tail[r])].region_next = m.stage;
    tail[r] = static_cast<int32_t>(m.stage);
  }
  for (uint32_t r = 0; r < fp.stages.size(); ++r)
    if (head[r] >= 0)
      fp.stages[static_cast<size_t>(tail[r])].region_next = static_cast<uint32_t>(head[r]);
}

}  // namespace

FusionResult fuse_pipeline(const flow::Pipeline& pl, const CompiledDatapath& dp,
                           const GotoMap& goto_map, const SubSlotMap& sub_slots,
                           const CompilerConfig& cfg, const FusedPipeline* prev,
                           bool emit) {
  FusionResult res;
  if (pl.tables().empty()) return res;

  auto fused = std::make_unique<FusedPipeline>();
  fused->stage_of_slot.assign(static_cast<size_t>(dp.num_slots()), -1);
  fused->stages.reserve(pl.tables().size());
  uint64_t fingerprint = kFnvBasis;
  uint64_t program_key = kFnvBasis;

  const auto add_stage = [&](int32_t slot, flow::FlowTable::MissPolicy miss) {
    ESW_CHECK_MSG(slot >= 0 && slot < dp.num_slots(), "table without a trampoline slot");
    const CompiledTable* impl = dp.impl(slot);
    ESW_CHECK_MSG(impl != nullptr, "table without a compiled impl");
    const uint32_t idx = static_cast<uint32_t>(fused->stages.size());
    FusedPipeline::Stage st;
    st.slot = slot;
    st.impl = impl;
    st.miss = miss;
    st.want_prefetch =
        impl->memory_bytes() >= CompiledDatapath::kPrefetchMinBytes;
    // Cuckoo stages past the private caches probe a round's packets in one
    // pipelined call, which pays only where probes stall on memory; cache-
    // resident ones (every small hash table) keep the scalar lookup, and LPM
    // and the linked list the per-transition prefetch.
    st.batched = impl->kind() == TableTemplate::kCuckooHash && st.want_prefetch;
    if (st.batched) fused->batched.push_back(idx);
    st.region_next = idx;
    fused->stage_of_slot[static_cast<size_t>(slot)] = static_cast<int32_t>(idx);
    const bool is_dc = impl->kind() == TableTemplate::kDirectCode;
    fingerprint = fnv1a64(fingerprint, static_cast<uint64_t>(slot));
    fingerprint = fnv1a64(fingerprint, reinterpret_cast<uint64_t>(impl));
    fingerprint = fnv1a64(fingerprint, static_cast<uint64_t>(st.miss));
    // The program key tracks only what the emitted code depends on: the
    // slot->stage topology and the direct-code members' entry chains.
    program_key = fnv1a64(program_key, static_cast<uint64_t>(slot));
    program_key = fnv1a64(program_key,
                          is_dc ? reinterpret_cast<uint64_t>(impl) : 0);
    fused->stages.push_back(st);
  };

  // Stages in pipeline order: tables ascend by id and the control plane
  // validates goto_table > table_id, so logical gotos only go forward.  A
  // decomposed table contributes its root, then its sub-tables in the
  // topological order Eswitch keeps them in, so internal gotos go forward
  // too and the walk's monotone-stage guard never fires on a valid pipeline.
  for (const flow::FlowTable& t : pl.tables()) {
    add_stage(goto_map[t.id()], t.miss_policy());
    for (const int32_t sub : sub_slots[t.id()]) add_stage(sub, t.miss_policy());
  }
  ESW_CHECK_MSG(dp.start() >= 0 &&
                    static_cast<size_t>(dp.start()) < fused->stage_of_slot.size() &&
                    fused->stage_of_slot[static_cast<size_t>(dp.start())] == 0,
                "start slot is not the first table");
  const uint32_t n_stages = static_cast<uint32_t>(fused->stages.size());
  fingerprint = fnv1a64(fingerprint, n_stages);
  program_key = fnv1a64(program_key, n_stages);
  fused->fingerprint = fingerprint;
  fused->program_key = program_key;

  // Machine members: every direct-code stage — the program is their only
  // machine code.
  std::vector<jit::FusedProgram::Member> members;
  if (cfg.enable_jit && jit::ExecBuffer::supported()) {
    for (uint32_t i = 0; i < n_stages; ++i) {
      const CompiledTable* impl = fused->stages[i].impl;
      if (impl->kind() != TableTemplate::kDirectCode) continue;
      members.push_back({i, &static_cast<const DirectCodeTable*>(impl)->lowered()});
    }
  }
  const bool want_program = emit && !members.empty();

  if (prev != nullptr && prev->fingerprint == fingerprint &&
      (prev->program != nullptr || !want_program)) {
    // The published plan still references exactly these impls (retired impls
    // cannot have been freed before the republish decision), so it is exact.
    return res;
  }

  if (want_program) {
    if (prev != nullptr && prev->program != nullptr &&
        prev->program_key == program_key) {
      fused->program = prev->program;  // churn left the members intact
    } else {
      fused->program = jit::FusedProgram::compile(members, fused->stage_of_slot, n_stages);
    }
    if (fused->program == nullptr) {
      res.machine_failed = true;  // exec map refused: publish without a program
    } else {
      for (const jit::FusedProgram::Member& m : members)
        fused->stages[m.stage].entry = fused->program->entry(m.stage);
      link_machine_regions(*fused, members);
    }
  }

  res.fused = std::move(fused);
  return res;
}

proto::ParserPlan compute_parser_plan(const flow::Pipeline& pl,
                                      const CompilerConfig& cfg) {
  // A conntrack-enabled switch keys every packet on the five-tuple in the
  // pre-stage, so parser specialization below L4 is off the table.
  if (!cfg.specialize_parser || cfg.ct.enabled) return proto::ParserPlan::full();

  uint32_t required = 0;
  for (const flow::FlowTable& t : pl.tables()) {
    for (const flow::FlowEntry& e : t.entries()) {
      required |= e.match.proto_required();
      required |= action_proto_requirements(e.actions);
    }
  }
  return plan_for_requirements(required);
}

}  // namespace esw::core
