#include "ovs/ovs_switch.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/check.hpp"

namespace esw::ovs {

using flow::FieldId;
using flow::Match;
using flow::Verdict;

OvsSwitch::OvsSwitch(const Config& cfg)
    : cfg_(cfg), microflow_(cfg.microflow_capacity), megaflow_(cfg.megaflow_flow_limit) {}

OvsSwitch::TableCls* OvsSwitch::find_cls(uint8_t id) {
  for (auto& c : classifiers_)
    if (c->table_id == id) return c.get();
  return nullptr;
}

void OvsSwitch::rebuild_classifiers() {
  classifiers_.clear();
  for (const flow::FlowTable& t : pipeline_.tables()) {
    auto c = std::make_unique<TableCls>();
    c->table_id = t.id();
    c->miss = t.miss_policy();
    for (const flow::FlowEntry& e : t.entries()) c->add(e);
    classifiers_.push_back(std::move(c));
  }
}

void OvsSwitch::install(const flow::Pipeline& pl) {
  const auto err = pl.validate();
  ESW_CHECK_MSG(!err.has_value(), err.value_or(""));
  pipeline_ = pl;
  rebuild_classifiers();
  megaflow_.invalidate_all();
  ++generation_;
}

void OvsSwitch::add_flow(uint8_t table, const flow::FlowEntry& e) {
  const bool new_table = pipeline_.find_table(table) == nullptr;
  pipeline_.table(table).add(e);
  if (new_table) {
    rebuild_classifiers();
  } else if (TableCls* c = find_cls(table)) {
    c->add(e);
  }
  // §2.2 footnote: entire cache invalidated on essentially all changes.
  megaflow_.invalidate_all();
  ++generation_;
}

void OvsSwitch::remove_flow(uint8_t table, const Match& m, uint16_t priority) {
  if (pipeline_.find_table(table) == nullptr) return;
  pipeline_.table(table).remove(m, priority);
  if (TableCls* c = find_cls(table)) c->ts.remove(m, priority);
  megaflow_.invalidate_all();
  ++generation_;
}

void OvsSwitch::apply(const flow::FlowMod& fm) {
  switch (fm.command) {
    case flow::FlowMod::Cmd::kAdd:
    case flow::FlowMod::Cmd::kModify:
      add_flow(fm.table_id, flow::entry_from(fm));
      break;
    case flow::FlowMod::Cmd::kDelete:
      remove_flow(fm.table_id, fm.match, fm.priority);
      break;
  }
}

void OvsSwitch::apply_batch(const std::vector<flow::FlowMod>& fms) {
  for (const flow::FlowMod& fm : fms) apply(fm);
}

Verdict OvsSwitch::replay(const MegaflowCache::Entry& e, net::Packet& pkt,
                          proto::ParseInfo& pi) {
  flow::ActionSetBuilder as;
  as.merge(e.actions);
  return as.execute(pkt, pi);
}

Verdict OvsSwitch::process(net::Packet& pkt, MemTrace* trace) {
  const Verdict v = classify(pkt, trace);
  ++stats_.packets;
  switch (v.kind) {
    case Verdict::Kind::kOutput:
    case Verdict::Kind::kFlood:
      ++stats_.outputs;
      break;
    case Verdict::Kind::kController:
      ++stats_.to_controller;
      break;
    case Verdict::Kind::kDrop:
      ++stats_.drops;
      break;
  }
  return v;
}

Verdict OvsSwitch::classify(net::Packet& pkt, MemTrace* trace) {
  ++cache_stats_.packets;
  proto::ParseInfo pi;
  proto::parse(pkt.data(), pkt.len(), proto::ParserPlan::full(), pi);
  pi.in_port = pkt.in_port();
  if (trace != nullptr) trace->touch(pkt.data(), 64);

  // Level 1: microflow cache (exact match on the full tuple).
  MicroflowCache::Key key;
  if (cfg_.enable_microflow) {
    key = MicroflowCache::Key::of_packet(pkt.data(), pi);
    const MicroflowCache::Ref mref = microflow_.lookup(key, generation_, trace);
    if (mref.idx >= 0) {
      if (const MegaflowCache::Entry* e = megaflow_.get(mref.idx, mref.stamp)) {
        ++cache_stats_.microflow_hits;
        return replay(*e, pkt, pi);
      }
      // Stale pointer (megaflow evicted): treat as a miss.
    }
  }

  // Level 2: megaflow cache (tuple space search).
  const MegaflowCache::Ref ref = megaflow_.lookup(pkt.data(), pi, trace);
  if (ref.idx >= 0) {
    ++cache_stats_.megaflow_hits;
    if (cfg_.enable_microflow)
      microflow_.insert(key, static_cast<uint64_t>(ref.idx), ref.stamp, generation_);
    return replay(*megaflow_.get(ref.idx, ref.stamp), pkt, pi);
  }

  // Level 3: vswitchd slow path.
  ++cache_stats_.upcalls;
  return slow_path(pkt, pi, trace);
}

void OvsSwitch::process_burst(net::Packet* const* pkts, uint32_t n, Verdict* out) {
  for (uint32_t i = 0; i < n; ++i) {
    if (i + 1 < n) esw_prefetch(pkts[i + 1]->data());
    out[i] = process(*pkts[i]);
  }
}

Verdict OvsSwitch::slow_path(net::Packet& pkt, proto::ParseInfo& pi, MemTrace* trace) {
  // Full pipeline traversal through the per-table classifiers, recording the
  // megaflow wildcards: "all header fields from all flow entries a packet
  // traverses, those that caused a match as well as those higher priority
  // ones that did not, need to be taken into consideration" — realized, as in
  // OVS, at tuple granularity via the classifier's visited-tuple masks.
  Match megaflow_match;
  flow::ActionList accumulated;
  flow::ActionSetBuilder as;

  auto unwildcard_packet = [&](FieldId f, uint64_t mask) {
    if (!flow::field_present(f, pi)) return;
    const uint64_t prev = megaflow_match.has(f) ? megaflow_match.mask(f) : 0;
    megaflow_match.set(f, flow::extract_field(f, pkt.data(), pi), prev | mask);
  };

  // Classification always consults the ethertype/protocol; megaflows must
  // record it, or a non-IP miss would install a catch-all and swallow IP
  // traffic (union mode; the minimal mode trades this soundness for the
  // smaller masks of Fig. 3).
  if (cfg_.megaflow_mode == MegaflowMode::kUnionOfVisited) {
    if (pi.has(proto::kProtoEth)) unwildcard_packet(FieldId::kEthType, 0xFFFF);
    if (pi.has(proto::kProtoIpv4)) unwildcard_packet(FieldId::kIpProto, 0xFF);
  }

  const TableCls* t = classifiers_.empty() ? nullptr : classifiers_.front().get();
  bool missed = false;
  Verdict miss_verdict = Verdict::drop();

  while (t != nullptr) {
    cls::TupleVisitStats visit;
    const auto* e = t->ts.lookup(pkt.data(), pi, &visit, trace);
    if (cfg_.megaflow_mode == MegaflowMode::kUnionOfVisited) {
      for (uint32_t bits = visit.fields_union; bits != 0; bits &= bits - 1) {
        const unsigned i = static_cast<unsigned>(__builtin_ctz(bits));
        unwildcard_packet(static_cast<FieldId>(i), visit.mask_union[i]);
      }
    }
    if (e == nullptr) {
      missed = true;
      miss_verdict = t->miss == flow::FlowTable::MissPolicy::kController
                         ? Verdict::controller()
                         : Verdict::drop();
      break;
    }
    if (cfg_.megaflow_mode == MegaflowMode::kMinimal) {
      for (FieldId f : flow::MatchFields(e->match))
        unwildcard_packet(f, e->match.mask(f));
    }
    accumulated.insert(accumulated.end(), e->value.actions.begin(),
                       e->value.actions.end());
    as.merge(e->value.actions);
    if (e->value.goto_table == flow::kNoGoto) break;
    t = const_cast<OvsSwitch*>(this)->find_cls(
        static_cast<uint8_t>(e->value.goto_table));
  }

  if (missed && miss_verdict.kind == Verdict::Kind::kController)
    return miss_verdict;  // punted packets are not cached
  if (missed) accumulated = {flow::Action::drop()};

  const MegaflowCache::Ref ref =
      megaflow_.insert(megaflow_match, accumulated, pi.proto_mask);
  if (cfg_.enable_microflow) {
    const MicroflowCache::Key key = MicroflowCache::Key::of_packet(pkt.data(), pi);
    microflow_.insert(key, static_cast<uint64_t>(ref.idx), ref.stamp, generation_);
  }
  if (missed) return miss_verdict;
  return as.execute(pkt, pi);
}

}  // namespace esw::ovs
