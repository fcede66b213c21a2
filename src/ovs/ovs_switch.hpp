// The OVS-model switch: the paper's baseline architecture (Fig. 2) —
// a four-level datapath hierarchy of microflow cache, megaflow cache,
// `vswitchd` (the full OpenFlow pipeline behind a per-table tuple-space
// classifier, as in real OVS), and controller.
//
// Megaflow construction supports two mask semantics:
//   * kUnionOfVisited — classic OVS (§2.2): unwildcard every field of every
//     tuple the slow-path classifier had to visit, matching or not;
//   * kMinimal — an idealized Shelly-style minimal mask (only the matched
//     entries' masks), the semantics under which Fig. 3's 7-vs-1
//     order-dependence materializes.
//
// Updates invalidate both caches wholesale (footnote 2: "OVS adopts the
// brute-force strategy to invalidate the entire cache after essentially all
// changes") and repopulate reactively through the slow path.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cls/tuple_space.hpp"
#include "common/check.hpp"
#include "core/dataplane.hpp"
#include "flow/pipeline.hpp"
#include "flow/wire.hpp"
#include "netio/packet.hpp"
#include "ovs/megaflow.hpp"
#include "ovs/microflow.hpp"

namespace esw::ovs {

enum class MegaflowMode : uint8_t { kUnionOfVisited, kMinimal };

class OvsSwitch {
 public:
  struct Config {
    uint32_t microflow_capacity = 8192;  // EMC size
    size_t megaflow_flow_limit = 200000;  // OVS default flow limit
    bool enable_microflow = true;
    MegaflowMode megaflow_mode = MegaflowMode::kUnionOfVisited;
  };

  OvsSwitch() : OvsSwitch(Config{}) {}
  explicit OvsSwitch(const Config& cfg);

  /// Installs the full pipeline (controller bulk programming).
  void install(const flow::Pipeline& pl);

  /// Unified Dataplane flow-mod entry points.  Every mod is the shared
  /// rule-store edit (flow::Pipeline::apply, so goto validation and
  /// add/modify/delete semantics match ESWITCH's), mirrored into the
  /// tuple-space classifiers; each call then invalidates the whole cache
  /// hierarchy once.  apply() throws CheckError on an invalid mod, leaving all
  /// state untouched; apply_batch() is all-or-nothing, validated against a
  /// scratch pipeline first; apply_batch_partial() applies every valid mod and
  /// reports one ModStatus per mod.
  void apply(const flow::FlowMod& fm);
  void apply_batch(const std::vector<flow::FlowMod>& fms);
  std::vector<core::ModStatus> apply_batch_partial(const std::vector<flow::FlowMod>& fms);

  /// One packet through the datapath hierarchy.
  flow::Verdict process(net::Packet& pkt, MemTrace* trace = nullptr);

  /// Burst entry point, so the baseline rides the same harness as ESWITCH.
  /// Packets run in order through the scalar hierarchy (cache population is
  /// order-dependent, so verdicts and stats match n process() calls exactly);
  /// the only burst-level win is the next frame's header prefetch — the
  /// cache hierarchy itself is looked up key-first and offers no cheap
  /// ahead-of-time hint.
  void process_burst(net::Packet* const* pkts, uint32_t n, flow::Verdict* out);

  /// The runtime's worker context.  The cache hierarchy is single-threaded
  /// state, so there is exactly one context: a second register_worker()
  /// returns nullptr while the first is held, and a core::SwitchRuntime over
  /// this backend runs one worker (or is driven inline).
  struct Worker {};
  Worker* register_worker() {
    if (worker_in_use_) return nullptr;
    worker_in_use_ = true;
    return &worker_;
  }
  void unregister_worker(Worker* w) {
    ESW_CHECK(w == &worker_ && worker_in_use_);
    worker_in_use_ = false;
  }
  void process_burst(Worker&, net::Packet* const* pkts, uint32_t n,
                     flow::Verdict* out) {
    process_burst(pkts, n, out);
  }
  /// No epoch domain: nothing to tick.
  void quiesce(Worker&) {}

  /// Which cache level served each packet (the Fig. 14 axis).
  struct CacheStats {
    uint64_t packets = 0;
    uint64_t microflow_hits = 0;
    uint64_t megaflow_hits = 0;
    uint64_t upcalls = 0;  // slow-path (vswitchd-level) traversals
  };
  const CacheStats& cache_stats() const { return cache_stats_; }

  /// Verdict-level counters in the unified Dataplane shape.
  const core::DataplaneStats& stats() const { return stats_; }

  void clear_stats() {
    cache_stats_ = CacheStats{};
    stats_ = core::DataplaneStats{};
  }

  const MegaflowCache& megaflow() const { return megaflow_; }
  const flow::Pipeline& pipeline() const { return pipeline_; }

 private:
  // vswitchd's per-table classifier: a tuple space over (actions, goto).
  struct SlowValue {
    flow::ActionList actions;
    int16_t goto_table = flow::kNoGoto;
  };
  // The tuple space keeps the flow table's (priority, insertion) order and
  // its replace-in-place semantics itself.
  struct TableCls {
    uint8_t table_id = 0;
    flow::FlowTable::MissPolicy miss = flow::FlowTable::MissPolicy::kDrop;
    cls::TupleSpace<SlowValue> ts;

    void add(const flow::FlowEntry& e) {
      ts.add(e.match, e.priority, SlowValue{e.actions, e.goto_table});
    }
  };

  TableCls* find_cls(uint8_t id);
  void rebuild_classifiers();
  void edit(const flow::FlowMod& fm);
  void invalidate_caches();
  flow::Verdict classify(net::Packet& pkt, MemTrace* trace);
  flow::Verdict slow_path(net::Packet& pkt, proto::ParseInfo& pi, MemTrace* trace);
  flow::Verdict replay(const MegaflowCache::Entry& e, net::Packet& pkt,
                       proto::ParseInfo& pi);

  Config cfg_;
  flow::Pipeline pipeline_;
  std::vector<std::unique_ptr<TableCls>> classifiers_;  // sorted by table id
  MicroflowCache microflow_;
  MegaflowCache megaflow_;
  uint64_t generation_ = 1;  // bumped on invalidation; stamps microflow slots
  CacheStats cache_stats_;
  core::DataplaneStats stats_;
  Worker worker_;
  bool worker_in_use_ = false;
};

static_assert(core::ConcurrentDataplane<OvsSwitch>,
              "OvsSwitch must satisfy the runtime's backend interface");

}  // namespace esw::ovs
