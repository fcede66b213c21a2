#include "core/compiled_table.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/failpoint.hpp"

namespace esw::core {

using flow::FieldId;
using flow::FlowEntry;
using flow::Match;

std::vector<BuildEntry> to_build_entries(const flow::FlowTable& t) {
  std::vector<BuildEntry> out;
  out.reserve(t.size());
  for (const FlowEntry& e : t.entries())
    out.push_back({e.match, e.priority, e.actions, e.goto_table, -1});
  return out;
}

uint64_t resolve_result(const BuildEntry& e, BuildCtx& ctx) {
  const int32_t action =
      e.actions.empty() ? -1 : static_cast<int32_t>(ctx.registry.intern(e.actions));
  int32_t next = -1;
  if (e.internal_next >= 0) {
    next = e.internal_next;
  } else if (e.logical_goto != flow::kNoGoto) {
    ESW_CHECK_MSG(static_cast<size_t>(e.logical_goto) < ctx.goto_map.size() &&
                      ctx.goto_map[e.logical_goto] >= 0,
                  "goto target not compiled");
    next = ctx.goto_map[e.logical_goto];
  }
  return jit::pack_result(action, next);
}

// --- direct code -----------------------------------------------------------

std::unique_ptr<DirectCodeTable> DirectCodeTable::build(
    const std::vector<BuildEntry>& entries, BuildCtx& ctx) {
  auto t = std::make_unique<DirectCodeTable>();
  t->lowered_.reserve(entries.size());
  for (const BuildEntry& e : entries) {
    jit::LoweredEntry le;
    lower_match(e.match, le);
    le.result = resolve_result(e, ctx);
    t->lowered_.push_back(std::move(le));
  }
  return t;
}

uint64_t DirectCodeTable::lookup(const uint8_t* pkt, const proto::ParseInfo& pi,
                                 MemTrace* trace) const {
  if (trace != nullptr) {
    // Model the instruction-stream working set: the keys live *in the code*
    // (§3.3 — "compiling match keys right into the code directs some of this
    // load to the CPU instruction caches"), entry after entry until the hit.
    for (const jit::LoweredEntry& e : lowered_) {
      trace->touch(&e, 16 + e.tests.size() * sizeof(jit::FieldTest));
      const uint64_t r = jit::interpret(&e, 1, pkt, pi);
      if (r != jit::kMissResult) return r;
    }
    return jit::kMissResult;
  }
  return jit::interpret(lowered_.data(), lowered_.size(), pkt, pi);
}

size_t DirectCodeTable::memory_bytes() const {
  size_t n = 0;
  for (const auto& e : lowered_) n += sizeof(e) + e.tests.size() * sizeof(jit::FieldTest);
  return n;
}

// --- cuckoo hash -------------------------------------------------------------

std::unique_ptr<CuckooTemplateTable> CuckooTemplateTable::build(
    const std::vector<BuildEntry>& entries, const cls::KeyShape& shape, BuildCtx& ctx) {
  // Room for every input key below the grow threshold.
  const auto buckets = static_cast<uint32_t>(
      static_cast<double>(entries.size()) /
          (cls::CuckooTable::kGrowLoad * cls::CuckooTable::kSlotsPerBucket) +
      1);
  auto t = std::unique_ptr<CuckooTemplateTable>(new CuckooTemplateTable(shape, buckets));

  // Entries arrive priority-descending: on duplicate keys the first (highest
  // priority) wins, preserving flow-table semantics.
  uint8_t key[cls::KeyShape::kMaxKeyBytes];
  for (const BuildEntry& e : entries) {
    if (e.match.is_catch_all()) {
      if (t->has_catch_all_) {
        t->shadows_ = true;
        continue;
      }
      t->has_catch_all_ = true;
      t->catch_all_priority_ = e.priority;
      t->catch_all_result_.store(resolve_result(e, ctx), std::memory_order_relaxed);
      ++t->count_;
      continue;
    }
    const uint32_t key_len = shape.key(e.match, key);
    if (t->index_.lookup(key, key_len).has_value()) {
      t->shadows_ = true;
      continue;
    }
    t->index_.insert(key, key_len, resolve_result(e, ctx), e.priority);
    t->min_specific_priority_ = std::min(t->min_specific_priority_, e.priority);
    ++t->count_;
  }
  return t;
}

uint64_t CuckooTemplateTable::lookup(const uint8_t* pkt, const proto::ParseInfo& pi,
                                     MemTrace* trace) const {
  if (shape_.applies(pi)) {
    uint8_t key[cls::KeyShape::kMaxKeyBytes];
    const uint32_t key_len = shape_.key(pkt, pi, key);
    if (const auto v = index_.lookup(key, key_len, trace)) return v->value;
  }
  return catch_all_result_.load(std::memory_order_acquire);
}

void CuckooTemplateTable::prefetch(const uint8_t* pkt, const proto::ParseInfo& pi) const {
  if (!shape_.applies(pi)) return;
  uint8_t key[cls::KeyShape::kMaxKeyBytes];
  const uint32_t key_len = shape_.key(pkt, pi, key);
  index_.prefetch(key, key_len);
}

void CuckooTemplateTable::lookup_burst(const uint8_t* const* pkts,
                                       const proto::ParseInfo* const* pis, uint32_t m,
                                       uint64_t* res) const {
  constexpr uint32_t kGroup = 32;
  const uint32_t key_len = shape_.key_len();
  // One catch-all load per call: a concurrent catch-all add/remove lands
  // old-or-new for the whole group, as it would between scalar lookups.
  const uint64_t catch_all = catch_all_result_.load(std::memory_order_acquire);
  uint8_t keys[kGroup * cls::KeyShape::kMaxKeyBytes];
  const uint8_t* key_ptrs[kGroup];
  uint32_t lens[kGroup];
  uint32_t owner[kGroup];  // key j belongs to packet base + owner[j]
  cls::CuckooTable::Value vals[kGroup];
  bool hit[kGroup];
  for (uint32_t base = 0; base < m; base += kGroup) {
    const uint32_t c = std::min(kGroup, m - base);
    uint32_t k = 0;
    for (uint32_t i = 0; i < c; ++i) {
      const proto::ParseInfo& pi = *pis[base + i];
      if (!shape_.applies(pi)) {
        res[base + i] = catch_all;
        continue;
      }
      uint8_t* key = keys + k * key_len;
      shape_.key(pkts[base + i], pi, key);
      key_ptrs[k] = key;
      lens[k] = key_len;
      owner[k++] = i;
    }
    index_.lookup_burst(key_ptrs, lens, k, vals, hit);
    for (uint32_t j = 0; j < k; ++j)
      res[base + owner[j]] = hit[j] ? vals[j].value : catch_all;
  }
}

size_t CuckooTemplateTable::memory_bytes() const { return index_.memory_bytes(); }

bool CuckooTemplateTable::try_add(const FlowEntry& e, BuildCtx& ctx) {
  // Injectable insert refusal: false is the template's normal "I cannot take
  // this incrementally" answer, so the caller rebuilds — never crashes.
  if (ESW_FAILPOINT("hash.insert")) return false;
  const BuildEntry be{e.match, e.priority, e.actions, e.goto_table, -1};
  if (e.match.is_catch_all()) {
    if (e.priority >= min_specific_priority_) return false;
    if (has_catch_all_ && catch_all_priority_ != e.priority) return false;
    if (!has_catch_all_) ++count_;
    has_catch_all_ = true;
    catch_all_priority_ = e.priority;
    catch_all_result_.store(resolve_result(be, ctx), std::memory_order_release);
    return true;
  }
  // Must share the template's exact mask set and outrank the default.
  if (!shape_.fits(e.match)) return false;
  if (has_catch_all_ && e.priority <= catch_all_priority_) return false;

  uint8_t key[cls::KeyShape::kMaxKeyBytes];
  const uint32_t key_len = shape_.key(e.match, key);
  if (const auto v = index_.lookup(key, key_len)) {
    // Same key: a same-priority add replaces in place; another priority
    // would leave two entries for one slot, so rebuild.
    if (v->aux != e.priority) return false;
    index_.insert(key, key_len, resolve_result(be, ctx), e.priority);
    return true;
  }
  index_.insert(key, key_len, resolve_result(be, ctx), e.priority);
  min_specific_priority_ = std::min(min_specific_priority_, e.priority);
  ++count_;
  return true;
}

bool CuckooTemplateTable::try_remove(const Match& m, uint16_t priority) {
  if (shadows_) return false;
  if (m.is_catch_all()) {
    if (!has_catch_all_ || catch_all_priority_ != priority) return false;
    has_catch_all_ = false;
    catch_all_result_.store(jit::kMissResult, std::memory_order_release);
    --count_;
    return true;
  }
  if (!shape_.fits(m)) return false;  // cheap check before the hash probe
  uint8_t key[cls::KeyShape::kMaxKeyBytes];
  const uint32_t key_len = shape_.key(m, key);
  const auto v = index_.lookup(key, key_len);
  if (!v || v->aux != priority) return false;
  index_.erase(key, key_len);
  --count_;
  return true;
}

// --- LPM --------------------------------------------------------------------------

namespace {
uint32_t pmask32(uint8_t len) {
  return len == 0 ? 0 : static_cast<uint32_t>(low_bits(len) << (32 - len));
}
}  // namespace

std::unique_ptr<LpmTemplateTable> LpmTemplateTable::build(
    const std::vector<BuildEntry>& entries, FieldId field, BuildCtx& ctx) {
  // Distinct results ≤ entries; the extra headroom absorbs incremental adds
  // before an overflow forces a (rare) rebuild at double the size.
  const uint32_t results_cap = static_cast<uint32_t>(entries.size()) + 256;
  auto t = std::unique_ptr<LpmTemplateTable>(new LpmTemplateTable(results_cap));
  t->field_ = field;
  for (const BuildEntry& e : entries) {
    uint32_t prefix = 0;
    uint8_t len = 0;
    if (!e.match.is_catch_all()) {
      prefix = static_cast<uint32_t>(e.match.value(field));
      len = static_cast<uint8_t>(prefix_len(e.match.mask(field), 32));
    }
    const uint64_t packed = resolve_result(e, ctx);
    const uint32_t idx = t->intern_result(packed);
    t->lpm_.add_unpublished(prefix, len, idx);
    t->prefix_prio_[{prefix, len}] = e.priority;
    if (e.match.is_catch_all())
      t->proto_absent_result_.store(packed, std::memory_order_relaxed);
  }
  return t;
}

uint32_t LpmTemplateTable::intern_result(uint64_t packed) {
  const auto [it, inserted] = result_index_.try_emplace(packed, results_size_);
  if (inserted) {
    // Overflow throws like tbl8 exhaustion does: try_add turns it into a
    // rebuild (which sizes a fresh, larger array).
    if (results_size_ == results_cap_) {
      result_index_.erase(it);
      ESW_CHECK_MSG(false, "LPM result table full");
    }
    results_[results_size_++] = packed;
  }
  return it->second;
}

uint64_t LpmTemplateTable::lookup(const uint8_t* pkt, const proto::ParseInfo& pi,
                                  MemTrace* trace) const {
  // Non-IPv4 frames can still match the catch-all default (an empty match
  // has no protocol prerequisite) — only the prefixed entries need the field.
  if (!pi.has(proto::kProtoIpv4))
    return proto_absent_result_.load(std::memory_order_acquire);
  const uint32_t addr =
      static_cast<uint32_t>(flow::extract_field(field_, pkt, pi));
  const auto v = lpm_.lookup(addr, trace);
  if (!v) return jit::kMissResult;
  return results_[*v];
}

void LpmTemplateTable::prefetch(const uint8_t* pkt, const proto::ParseInfo& pi) const {
  if (!pi.has(proto::kProtoIpv4)) return;
  lpm_.prefetch(static_cast<uint32_t>(flow::extract_field(field_, pkt, pi)));
}

bool LpmTemplateTable::try_add(const FlowEntry& e, BuildCtx& ctx) {
  uint32_t prefix = 0;
  uint8_t len = 0;
  if (!e.match.is_catch_all()) {
    if (e.match.num_fields() != 1 || !e.match.has(field_)) return false;
    const uint64_t mask = e.match.mask(field_);
    if (!is_prefix_mask(mask, 32)) return false;
    len = static_cast<uint8_t>(prefix_len(mask, 32));
    prefix = static_cast<uint32_t>(e.match.value(field_));
  }
  if (prefix_prio_.count({prefix, len})) return false;  // replace needs rebuild

  // Priority consistency against ancestors and descendants (the latter form a
  // contiguous range in prefix order).
  for (int alen = len - 1; alen >= 0; --alen) {
    const auto it = prefix_prio_.find({prefix & pmask32(static_cast<uint8_t>(alen)),
                                       static_cast<uint8_t>(alen)});
    if (it != prefix_prio_.end() && it->second >= e.priority) return false;
  }
  if (len < 32) {
    const uint32_t hi = prefix | ~pmask32(len);
    for (auto it = prefix_prio_.lower_bound({prefix, 0});
         it != prefix_prio_.end() && it->first.first <= hi; ++it) {
      if (it->first.second > len && it->second <= e.priority) return false;
    }
  }

  const BuildEntry be{e.match, e.priority, e.actions, e.goto_table, -1};
  uint64_t packed;
  try {
    packed = resolve_result(be, ctx);
    lpm_.add(prefix, len, intern_result(packed));
  } catch (const CheckError&) {
    return false;  // e.g. out of tbl8 groups: the caller rebuilds the table
  }
  prefix_prio_[{prefix, len}] = e.priority;
  if (e.match.is_catch_all())
    proto_absent_result_.store(packed, std::memory_order_release);
  return true;
}

bool LpmTemplateTable::try_remove(const Match& m, uint16_t priority) {
  uint32_t prefix = 0;
  uint8_t len = 0;
  if (!m.is_catch_all()) {
    if (m.num_fields() != 1 || !m.has(field_)) return false;
    if (!is_prefix_mask(m.mask(field_), 32)) return false;
    len = static_cast<uint8_t>(prefix_len(m.mask(field_), 32));
    prefix = static_cast<uint32_t>(m.value(field_));
  }
  const auto it = prefix_prio_.find({prefix, len});
  if (it == prefix_prio_.end() || it->second != priority) return false;
  lpm_.remove(prefix, len);
  prefix_prio_.erase(it);
  if (m.is_catch_all())
    proto_absent_result_.store(jit::kMissResult, std::memory_order_release);
  return true;
}

// --- range (extension template) ----------------------------------------------------

std::unique_ptr<RangeTemplateTable> RangeTemplateTable::build(
    const std::vector<BuildEntry>& entries, FieldId field, BuildCtx& ctx) {
  auto t = std::unique_ptr<RangeTemplateTable>(new RangeTemplateTable());
  t->field_ = field;
  t->proto_required_ = flow::field_info(field).proto_required;

  const unsigned width = flow::field_info(field).width_bits;
  std::vector<cls::RangeTree::Rule> rules;
  rules.reserve(entries.size());
  // Entries arrive priority-descending: the index is the rank.
  for (uint32_t rank = 0; rank < entries.size(); ++rank) {
    const BuildEntry& e = entries[rank];
    cls::RangeTree::Rule r;
    if (e.match.is_catch_all()) {
      r.lo = 0;
      r.hi = low_bits(width);
      // First catch-all in priority order: what packets missing the field's
      // protocol layers (which no prefixed entry can match) fall through to.
      if (t->proto_absent_result_ == jit::kMissResult)
        t->proto_absent_result_ = resolve_result(e, ctx);
    } else {
      const uint64_t mask = e.match.mask(field);
      r.lo = e.match.value(field);
      r.hi = r.lo | (~mask & low_bits(width));
    }
    r.rank = rank;
    r.value = static_cast<uint32_t>(t->results_.size());
    t->results_.push_back(resolve_result(e, ctx));
    rules.push_back(r);
  }
  t->tree_.build(std::move(rules));
  return t;
}

uint64_t RangeTemplateTable::lookup(const uint8_t* pkt, const proto::ParseInfo& pi,
                                    MemTrace* trace) const {
  if ((pi.proto_mask & proto_required_) != proto_required_)
    return proto_absent_result_;
  const uint64_t key = flow::extract_field(field_, pkt, pi);
  const auto v = tree_.lookup(key, trace);
  if (!v) return jit::kMissResult;
  return results_[*v];
}

// --- linked list -----------------------------------------------------------------------

std::unique_ptr<LinkedListTable> LinkedListTable::build(
    const std::vector<BuildEntry>& entries, BuildCtx& ctx) {
  auto t = std::unique_ptr<LinkedListTable>(new LinkedListTable());
  // Entries arrive in match order.  A decomposition branch can carry two
  // entries with one (match, priority); the first one wins, as in the flow
  // table, so a later duplicate must not replace it.
  for (const BuildEntry& e : entries)
    if (t->ts_.find(e.match, e.priority) == nullptr)
      t->ts_.add(e.match, e.priority, resolve_result(e, ctx));
  return t;
}

uint64_t LinkedListTable::lookup(const uint8_t* pkt, const proto::ParseInfo& pi,
                                 MemTrace* trace) const {
  const auto* e = ts_.lookup(pkt, pi, nullptr, trace);
  return e != nullptr ? e->value : jit::kMissResult;
}

void LinkedListTable::prefetch(const uint8_t* pkt, const proto::ParseInfo& pi) const {
  ts_.prefetch(pkt, pi);
}

size_t LinkedListTable::memory_bytes() const {
  // Tuple index slots + entries; coarse but monotone in table size.
  return ts_.size() * 96 + ts_.num_tuples() * 64;
}

bool LinkedListTable::try_add(const FlowEntry& e, BuildCtx& ctx) {
  // Injectable refusal (tuple-space shape); deliberately absent from build(),
  // which must stay the infallible last resort of the fallback chain.
  if (ESW_FAILPOINT("tuple.insert")) return false;
  const BuildEntry be{e.match, e.priority, e.actions, e.goto_table, -1};
  ts_.add(e.match, e.priority, resolve_result(be, ctx));  // a replace keeps its rank
  return true;
}

bool LinkedListTable::try_remove(const Match& m, uint16_t priority) {
  return ts_.remove(m, priority);
}

}  // namespace esw::core
