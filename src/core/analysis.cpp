#include "core/analysis.hpp"

#include <algorithm>
#include <map>
#include <optional>

#include "common/bits.hpp"

namespace esw::core {

using flow::FieldId;

bool hash_prerequisite(const AnalysisEntries& entries, cls::KeyShape* shape_out) {
  std::optional<cls::KeyShape> shape;
  bool catch_all_seen = false;
  uint16_t catch_all_prio = 0;
  uint16_t min_specific_prio = 0xFFFF;
  bool have_specific = false;

  for (const auto& e : entries) {
    if (e.match.is_catch_all()) {
      if (catch_all_seen) return false;  // at most one default
      catch_all_seen = true;
      catch_all_prio = e.priority;
      continue;
    }
    if (!shape.has_value()) {
      shape.emplace(e.match);
    } else if (!shape->fits(e.match)) {
      return false;
    }
    have_specific = true;
    min_specific_prio = std::min(min_specific_prio, e.priority);
  }
  if (!have_specific) return false;  // pure-default tables stay direct code
  if (catch_all_seen && catch_all_prio >= min_specific_prio) return false;

  if (shape_out != nullptr) *shape_out = *shape;
  return true;
}

bool lpm_prerequisite(const AnalysisEntries& entries, FieldId* field_out) {
  FieldId field = FieldId::kCount;
  bool catch_all_seen = false;
  uint16_t catch_all_prio = 0;
  uint16_t min_specific_prio = 0xFFFF;
  bool have_specific = false;

  // (prefix_len, prefix) -> priority, for ancestor ordering checks.
  std::map<std::pair<uint8_t, uint32_t>, uint16_t> prefixes;

  for (const auto& e : entries) {
    if (e.match.is_catch_all()) {
      if (catch_all_seen) return false;
      catch_all_seen = true;
      catch_all_prio = e.priority;
      continue;
    }
    if (e.match.num_fields() != 1) return false;
    const FieldId f = *flow::MatchFields(e.match).begin();
    if (f != FieldId::kIpSrc && f != FieldId::kIpDst) return false;
    if (field == FieldId::kCount)
      field = f;
    else if (field != f)
      return false;

    const uint64_t mask = e.match.mask(f);
    if (!is_prefix_mask(mask, 32)) return false;
    const uint8_t len = static_cast<uint8_t>(prefix_len(mask, 32));
    const uint32_t prefix = static_cast<uint32_t>(e.match.value(f));
    if (!prefixes.emplace(std::make_pair(len, prefix), e.priority).second)
      return false;  // duplicate prefix at different priority: ambiguous
    have_specific = true;
    min_specific_prio = std::min(min_specific_prio, e.priority);
  }
  if (!have_specific) return false;
  if (catch_all_seen && catch_all_prio >= min_specific_prio) return false;

  // "whenever rules overlap the more specific one has higher priority".
  for (const auto& [key, prio] : prefixes) {
    const auto [len, prefix] = key;
    for (int alen = len - 1; alen >= 1; --alen) {
      const uint32_t ap =
          prefix & static_cast<uint32_t>(low_bits(alen) << (32 - alen));
      const auto it = prefixes.find({static_cast<uint8_t>(alen), ap});
      if (it != prefixes.end() && it->second >= prio) return false;
    }
  }
  if (field_out != nullptr) *field_out = field;
  return true;
}

bool range_prerequisite(const AnalysisEntries& entries, flow::FieldId* field_out) {
  FieldId field = FieldId::kCount;
  bool catch_all_seen = false;
  bool have_specific = false;
  for (const auto& e : entries) {
    if (e.match.is_catch_all()) {
      if (catch_all_seen) return false;
      catch_all_seen = true;
      continue;
    }
    if (e.match.num_fields() != 1) return false;
    const FieldId f = *flow::MatchFields(e.match).begin();
    if (field == FieldId::kCount)
      field = f;
    else if (field != f)
      return false;
    const auto width = flow::field_info(f).width_bits;
    if (width > 32) return false;  // interval keys kept in 32 bits of headroom
    if (!is_prefix_mask(e.match.mask(f), width)) return false;
    have_specific = true;
  }
  if (!have_specific) return false;
  if (field_out != nullptr) *field_out = field;
  return true;
}

AnalysisResult analyze_entries(const AnalysisEntries& entries,
                               const CompilerConfig& cfg) {
  if (cfg.force_template.has_value()) {
    const TableTemplate t = *cfg.force_template == TableTemplate::kCompoundHash
                                ? TableTemplate::kCuckooHash
                                : *cfg.force_template;
    return {t, "forced by config"};
  }

  if (entries.size() <= cfg.direct_code_max_entries)
    return {TableTemplate::kDirectCode,
            "table small enough to compile rules straight to code"};
  if (hash_prerequisite(entries, nullptr))
    return {TableTemplate::kCuckooHash, "global mask, exact match under mask"};
  if (lpm_prerequisite(entries, nullptr))
    return {TableTemplate::kLpm, "single-field prefix rules, priority-consistent"};
  if (range_prerequisite(entries, nullptr))
    return {TableTemplate::kRange, "single-field aligned ranges, any priorities"};
  return {TableTemplate::kLinkedList, "no faster template applies"};
}

AnalysisResult analyze_table(const flow::FlowTable& t, const CompilerConfig& cfg) {
  AnalysisEntries entries;
  entries.reserve(t.size());
  for (const flow::FlowEntry& e : t.entries())
    entries.push_back({e.match, e.priority, {}, e.goto_table, -1});
  return analyze_entries(entries, cfg);
}

}  // namespace esw::core
