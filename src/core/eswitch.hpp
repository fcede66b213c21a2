// ESWITCH — the public switch facade.
//
// Owns the control-plane pipeline (the declarative program) and the compiled
// datapath (the specialized machine-code realization), and keeps the two in
// sync the way §3.4 prescribes:
//   * templates supporting it are updated incrementally and non-destructively
//     (cuckoo hash, LPM, linked list);
//   * the direct-code template rebuilds unconditionally;
//   * prerequisite violations rebuild the table under the next template in
//     Fig. 4's fallback chain (via re-analysis);
//   * rebuilds happen side by side and are published with one atomic
//     trampoline swap, giving per-flow-table update granularity;
//   * batches are transactional — validated against a scratch pipeline first,
//     so a bad mod in the middle leaves no partial state behind.
//
// Concurrency: apply()/apply_batch() run on one control thread while any
// number of registered packet workers process bursts.  Updates take one of
// two reader-safe shapes: in place, for every incremental template (cuckoo
// slot words, LPM cells, tuple-space chain heads), or a side-by-side rebuild
// published with a trampoline swap.  Every displaced object is retired
// through the datapath's epoch domain (freed only after all workers tick
// past the retirement; see common/epoch.hpp).  install() is stop-the-world:
// no workers registered.
//
// Decomposed logical tables occupy a fixed root slot; a rebuild appends fresh
// sub-table slots and swaps the root, so cross-table gotos stay valid.  The
// previous sub-table chain is retired behind the swap and its slots are
// recycled after the grace period.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/compiler.hpp"
#include "core/dataplane.hpp"
#include "core/datapath.hpp"
#include "flow/wire.hpp"

namespace esw::core {

class Eswitch {
 public:
  /// Packet-worker execution context (see CompiledDatapath::Worker).
  using Worker = CompiledDatapath::Worker;

  explicit Eswitch(const CompilerConfig& cfg = CompilerConfig{});
  ~Eswitch();  // out of line: ct_ holds an incomplete type here

  /// Replaces the whole configuration and recompiles from scratch.
  /// Stop-the-world: requires no registered workers.
  void install(const flow::Pipeline& pl);

  /// Applies one flow-mod (add / modify / delete), updating the datapath
  /// incrementally where the template allows.  Throws CheckError on invalid
  /// mods, leaving all state untouched.  Safe concurrently with registered
  /// workers' process_burst.
  void apply(const flow::FlowMod& fm);

  /// Transactional batch: every mod validated against a scratch pipeline
  /// before anything is applied; dirty tables are rebuilt once and swapped
  /// atomically ("partial updates automatically rolled back").  Exactly one
  /// fusion re-plan and one epoch reclaim pass per batch, however many mods
  /// it carries.
  void apply_batch(const std::vector<flow::FlowMod>& fms);

  /// Best-effort batch for controller ingestion (the OfAgent path): applies
  /// every mod it can and reports a per-mod outcome instead of aborting the
  /// remainder — a mid-batch TABLE_FULL refuses *that* mod (one error on the
  /// wire) while the rest land.  Same once-per-batch recompile/fusion/reclaim
  /// schedule as apply_batch; never throws for per-mod failures.
  std::vector<ModStatus> apply_batch_partial(const std::vector<flow::FlowMod>& fms);

  /// One packet: a burst of one through the fused walk (owner context).
  flow::Verdict process(net::Packet& pkt, MemTrace* trace = nullptr) {
    return dp_.process(pkt, trace);
  }
  /// Worker-context burst of one.
  flow::Verdict process(Worker& w, net::Packet& pkt, MemTrace* trace = nullptr) {
    return dp_.process(w, pkt, trace);
  }

  /// Datapath burst fast path: `n` packets run to completion, one verdict per
  /// packet.  Observably identical to n process() calls but amortizes parse,
  /// plan-load and stats overhead over the burst (see
  /// CompiledDatapath::process_burst).  Owner context — single-threaded use.
  void process_burst(net::Packet* const* pkts, uint32_t n, flow::Verdict* out) {
    dp_.process_burst(pkts, n, out);
  }
  /// Worker-context burst path — the entry concurrent packet threads use.
  void process_burst(Worker& w, net::Packet* const* pkts, uint32_t n,
                     flow::Verdict* out) {
    dp_.process_burst(w, pkts, n, out);
  }

  /// Registers a packet-worker context (control thread only; nullptr when the
  /// datapath's kMaxWorkers are active).
  Worker* register_worker() { return dp_.register_worker(); }
  /// Unregisters a worker whose thread has finished (joined).
  void unregister_worker(Worker* w) { dp_.unregister_worker(w); }
  bool has_workers() const { return dp_.has_workers(); }
  /// Forces a quiescent epoch tick for a worker that provably holds no
  /// datapath pointers (parked in backpressure) — the runtime watchdog's
  /// recovery lever against a stuck worker pinning the epoch horizon.
  void quiesce(Worker& w) { dp_.quiesce(w); }

  /// Verdict-level counters in the unified Dataplane shape, degradation and
  /// conntrack counters included.
  DataplaneStats stats() const;

  /// The connection-tracking layer, or nullptr when cfg.ct.enabled is false.
  /// Created at construction and owned for the switch's lifetime.
  state::Conntrack* conntrack() { return ct_.get(); }
  const state::Conntrack* conntrack() const { return ct_.get(); }

  const flow::Pipeline& pipeline() const { return pipeline_; }
  CompiledDatapath& datapath() { return dp_; }
  const CompiledDatapath& datapath() const { return dp_; }
  const CompilerConfig& config() const { return cfg_; }

  /// Template of a logical table's root (kLinkedList default if absent).
  TableTemplate table_template(uint8_t logical) const { return root_template_[logical]; }
  bool is_decomposed(uint8_t logical) const { return !sub_slots_[logical].empty(); }
  int32_t root_slot(uint8_t logical) const { return goto_map_[logical]; }
  /// Number of decomposition-internal tables behind a logical table (0 when
  /// not decomposed).
  uint32_t decomposed_table_count(uint8_t logical) const {
    return static_cast<uint32_t>(sub_slots_[logical].size()) + is_decomposed(logical);
  }

  struct UpdateStats {
    uint64_t incremental = 0;     // served in place by try_add/try_remove
    // Never incremented: clone-and-swap is gone.  Kept only because the
    // frozen bench/e2e still reads it; delete in the next benchmark change.
    uint64_t cow_swaps = 0;
    uint64_t table_rebuilds = 0;  // side-by-side rebuild + trampoline swap
    // Rebuilds whose re-analysis picked a *different* template than the one
    // the table ran on — the table grew (or shrank) past its shape's sweet
    // spot: small direct-code → cuckoo past direct_code_max_entries, and
    // every fallback demotion.  Wholesale install() recompiles are not
    // re-selections.
    uint64_t template_reselections = 0;
    // Fused whole-pipeline plans actually republished (set_fused with a new
    // plan).  A batch republishes at most once however many mods it carried;
    // the PR 9 fingerprint skip keeps no-op refreshes out of this count.
    uint64_t fusion_republishes = 0;
  };
  const UpdateStats& update_stats() const { return update_stats_; }

  /// Graceful-degradation ledger: every absorbed fault is accounted here
  /// (the chaos soak audits these against the failpoint fire counts).
  struct DegradationStats {
    uint64_t template_fallbacks = 0;  // exhausted builds demoted to linked list
    uint64_t mods_refused_table_full = 0;  // adds refused at table_capacity
    // The fused program (jit/fusion.hpp) is the switch's only machine code.
    // When the exec mapper refuses its emit, the plan is published without
    // it (every stage walks its pinned impl, direct code interpreted) and a
    // bounded-backoff re-emit is scheduled.
    uint64_t fusion_fallbacks = 0;   // plans published without machine code
    uint64_t fusion_retries = 0;     // elapsed re-emit retry windows
    uint64_t fusion_recoveries = 0;  // plans that regained their program
  };
  const DegradationStats& degradation_stats() const { return degradation_; }
  /// True while a fused plan is published: for every non-empty installed
  /// pipeline.  Whether the plan carries machine code is
  /// datapath().fused()->program.
  bool fused_active() const { return dp_.fused() != nullptr; }

  /// Retire/reclaim counters of the epoch-based reclamation path (the only
  /// reclamation path; the old caller-coordinated collect() is gone).
  CompiledDatapath::ReclaimStats reclaim_stats() const { return dp_.reclaim_stats(); }

 private:
  /// Logical tables whose datapath rebuild is deferred to the batch commit:
  /// each is rebuilt exactly once per batch from the final pipeline state,
  /// however many of the batch's mods touched it.  The mapped flag records
  /// whether the table was *created* by this batch (a fresh table's first
  /// build is not a template re-selection).
  using DirtySet = std::map<uint8_t, bool>;

  void compile_all();
  void rebuild_logical(uint8_t id, bool fresh_table = false);
  void refresh_start_and_plan();
  void maybe_widen_plan(const flow::FlowEntry& e);
  void apply_one(const flow::FlowMod& fm, DirtySet* dirty = nullptr);
  bool try_incremental(uint8_t table, const flow::FlowMod& fm);
  void commit_batch(const DirtySet& dirty);
  void apply_to_pipeline(flow::Pipeline& pl, const flow::FlowMod& fm) const;
  void check_capacity(const flow::Pipeline& pl, const flow::FlowMod& fm) const;
  void refresh_fusion();

  CompilerConfig cfg_;
  flow::Pipeline pipeline_;
  CompiledDatapath dp_;
  std::unique_ptr<state::Conntrack> ct_;  // attached to dp_ when cfg_.ct.enabled
  GotoMap goto_map_ = GotoMap(256, -1);
  std::array<TableTemplate, 256> root_template_{};
  // Decomposition-internal (non-root) slots behind each logical table, in
  // topological order of the decomposition DAG (the fused plan's stage
  // order), retired wholesale when the logical table rebuilds.
  SubSlotMap sub_slots_{};
  UpdateStats update_stats_;
  DegradationStats degradation_;
  /// Re-emit retry schedule after a refused fused machine compile, in update
  /// counts (exponential backoff from cfg_.jit_retry_base_updates, capped at
  /// cfg_.jit_retry_max_updates).  While it is set, plans are republished
  /// without a program until the window elapses; with retries disabled the
  /// window never elapses and only install() clears it.
  struct JitRetry {
    uint64_t next_at = 0;
    uint64_t backoff = 0;
  };
  std::optional<JitRetry> fusion_retry_;
  uint64_t update_seq_ = 0;  // apply()/apply_batch() calls, for retry pacing
  bool installing_ = false;  // inside compile_all(): rebuilds are not re-selections
};

static_assert(ConcurrentDataplane<Eswitch>,
              "Eswitch must satisfy the runtime's backend interface");

}  // namespace esw::core
