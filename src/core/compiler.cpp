#include "core/compiler.hpp"

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
    case TableTemplate::kCompoundHash:
    case TableTemplate::kCuckooHash:  // same prerequisite as the compound hash
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
        impl = DirectCodeTable::build(entries, ctx, cfg.enable_jit);
        break;
      case TableTemplate::kCompoundHash:
        impl = HashTemplateTable::build(entries, mask_template, ctx);
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
      case TableTemplate::kLinkedList:
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

}  // namespace

FusionResult fuse_pipeline(const flow::Pipeline& pl, const CompiledDatapath& dp,
                           const GotoMap& goto_map,
                           const std::array<bool, 256>& decomposed,
                           const CompilerConfig& cfg, const FusedPipeline* prev) {
  FusionResult res;
  if (!cfg.enable_fusion) {
    res.why_not = "fusion disabled";
    return res;
  }
  if (pl.tables().empty()) {
    res.why_not = "empty pipeline";
    return res;
  }

  auto fused = std::make_unique<FusedPipeline>();
  fused->stage_of_slot.assign(static_cast<size_t>(dp.num_slots()), -1);
  fused->stages.reserve(pl.tables().size());
  uint64_t fingerprint = kFnvBasis;
  uint64_t program_key = kFnvBasis;

  // Stages in pipeline order (tables are sorted by id, and the control plane
  // validates goto_table > table_id, so the walk order is a forward DAG).
  for (const flow::FlowTable& t : pl.tables()) {
    const uint8_t id = t.id();
    if (decomposed[id]) {
      res.why_not = "decomposed logical table";
      return res;
    }
    const int32_t slot = goto_map[id];
    if (slot < 0 || slot >= dp.num_slots()) {
      res.why_not = "table without a trampoline slot";
      return res;
    }
    const CompiledTable* impl = dp.impl(slot);
    if (impl == nullptr) {
      res.why_not = "table without a compiled impl";
      return res;
    }
    FusedPipeline::Stage st;
    st.slot = slot;
    st.impl = impl;
    st.miss = t.miss_policy();
    st.want_prefetch =
        impl->memory_bytes() >= CompiledDatapath::kPrefetchMinBytes;
    // Cuckoo stages probe a round's packets in one pipelined call; compound
    // hash and LPM keep the per-transition prefetch.
    st.batched = impl->kind() == TableTemplate::kCuckooHash;
    if (st.batched) fused->batched.push_back(static_cast<uint32_t>(fused->stages.size()));
    fused->stage_of_slot[static_cast<size_t>(slot)] =
        static_cast<int32_t>(fused->stages.size());
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
  }
  if (dp.start() < 0 ||
      static_cast<size_t>(dp.start()) >= fused->stage_of_slot.size() ||
      fused->stage_of_slot[static_cast<size_t>(dp.start())] != 0) {
    res.why_not = "start slot is not the first table";
    return res;
  }
  fused->start_stage = 0;
  fingerprint = fnv1a64(fingerprint, static_cast<uint64_t>(fused->stages.size()));
  program_key = fnv1a64(program_key, static_cast<uint64_t>(fused->stages.size()));
  fused->fingerprint = fingerprint;
  fused->program_key = program_key;

  if (prev != nullptr && prev->fingerprint == fingerprint) {
    // The published plan still references exactly these impls (retired impls
    // cannot have been freed before the republish decision), so it is exact.
    res.unchanged = true;
    return res;
  }

  // Machine members: every direct-code stage, degraded-to-interpreter ones
  // included — the fused emit is a fresh exec-map attempt of its own.
  if (cfg.enable_jit && jit::ExecBuffer::supported()) {
    std::vector<jit::FusedProgram::Member> members;
    for (size_t i = 0; i < fused->stages.size(); ++i) {
      const CompiledTable* impl = fused->stages[i].impl;
      if (impl->kind() != TableTemplate::kDirectCode) continue;
      members.push_back({static_cast<uint32_t>(i),
                         &static_cast<const DirectCodeTable*>(impl)->lowered()});
    }
    if (!members.empty()) {
      if (prev != nullptr && prev->program != nullptr &&
          prev->program_key == program_key) {
        fused->program = prev->program;  // churn left the members intact
      } else {
        fused->program = jit::FusedProgram::compile(
            members, fused->stage_of_slot,
            static_cast<uint32_t>(fused->stages.size()));
        if (fused->program == nullptr) {
          res.machine_failed = true;  // exec map refused — staged walk + retry
          res.why_not = "fused machine compile failed";
          return res;
        }
      }
      for (const jit::FusedProgram::Member& m : members)
        fused->stages[m.stage].entry = fused->program->entry(m.stage);
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
