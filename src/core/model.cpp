#include "core/model.hpp"

#include <cmath>

#include "common/check.hpp"

namespace esw::core {

perf::CostModel derive_model(const Eswitch& sw, const std::vector<uint8_t>& path) {
  perf::CostModel m;
  m.add_pkt_io();
  m.add_parser();
  for (const uint8_t id : path) {
    const int32_t slot = sw.root_slot(id);
    ESW_CHECK_MSG(slot >= 0, "table not compiled");
    const CompiledTable* impl = sw.datapath().impl(slot);
    ESW_CHECK_MSG(impl != nullptr, "table has no implementation");
    const std::string name = "table " + std::to_string(id);
    switch (impl->kind()) {
      case TableTemplate::kDirectCode:
        m.add_direct_stage(name + " (direct)", static_cast<uint32_t>(impl->size()));
        break;
      case TableTemplate::kCuckooHash:
        m.add_hash_stage(name + " (hash)");
        break;
      case TableTemplate::kLpm:
        m.add_lpm_stage(name + " (lpm)");
        break;
      case TableTemplate::kRange: {
        const auto* rt = static_cast<const RangeTemplateTable*>(impl);
        const uint32_t steps = rt->num_intervals() <= 1
                                   ? 1
                                   : static_cast<uint32_t>(std::ceil(
                                         std::log2(rt->num_intervals())));
        m.add_range_stage(name + " (range)", steps);
        break;
      }
      default: {  // kLinkedList; no table reports kCompoundHash
        const auto* ll = static_cast<const LinkedListTable*>(impl);
        m.add_linked_list_stage(name + " (linked-list)",
                                static_cast<uint32_t>(ll->num_tuples()));
        break;
      }
    }
  }
  m.add_action_stage();
  return m;
}

std::vector<uint8_t> derive_hot_path(const Eswitch& sw, double min_fraction) {
  std::vector<uint8_t> path;
  const auto& dp = sw.datapath();
  const double packets = static_cast<double>(dp.stats().packets);
  if (packets <= 0) return path;
  for (const auto& t : sw.pipeline().tables()) {
    const int32_t slot = sw.root_slot(t.id());
    if (slot < 0) continue;
    const double lookups = static_cast<double>(dp.table_stats(slot).lookups);
    if (lookups / packets >= min_fraction) path.push_back(t.id());
  }
  return path;
}

}  // namespace esw::core
