// Compiled flow tables — the runtime realization of the four templates.
//
// Every implementation answers lookups with the packed-result convention of
// the matcher IR (0 = table miss) so the datapath walk is one indirect call
// plus integer decode per stage.  Templates that support it implement
// incremental, non-destructive updates (§3.4: "whenever the controller
// modifies a flow, ESWITCH simply updates the data structure underlying the
// template"); the direct-code template always rebuilds, per the paper.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "cls/cuckoo.hpp"
#include "cls/exact_match.hpp"
#include "cls/lpm.hpp"
#include "cls/range_tree.hpp"
#include "cls/tuple_space.hpp"
#include "core/decompose.hpp"
#include "core/lowering.hpp"
#include "core/template_kind.hpp"
#include "jit/direct_code.hpp"

namespace esw::core {

/// Build-time context: where actions intern and how logical gotos resolve.
struct BuildCtx {
  flow::ActionSetRegistry& registry;
  const GotoMap& goto_map;
};

/// Neutral per-entry build input (covers plain flow tables and
/// decomposition-internal tables alike).
using BuildEntry = DecomposedPipeline::Entry;

/// Converts a control-plane table to build entries.
std::vector<BuildEntry> to_build_entries(const flow::FlowTable& t);

/// Resolves one entry's packed lookup result.
uint64_t resolve_result(const BuildEntry& e, BuildCtx& ctx);

class CompiledTable {
 public:
  virtual ~CompiledTable() = default;

  /// Packed lookup result (jit::pack_result) or jit::kMissResult.
  virtual uint64_t lookup(const uint8_t* pkt, const proto::ParseInfo& pi,
                          MemTrace* trace = nullptr) const = 0;

  /// Burst-mode hint: start the cache lines lookup(pkt, pi) will touch toward
  /// the core.  Must have no observable effect besides memory timing — the
  /// burst walker issues it for packet i+1 while packet i is processed.
  /// Templates whose working set is the instruction stream (direct code) or a
  /// flattened array walk (range) have nothing useful to prime and keep the
  /// default no-op.
  virtual void prefetch(const uint8_t* pkt, const proto::ParseInfo& pi) const {
    (void)pkt;
    (void)pi;
  }

  /// Bulk probe: res[i] = lookup(pkts[i], *pis[i]) for i < m, element-wise
  /// identical to the scalar calls.  The default is that scalar loop;
  /// templates whose probes stall on memory (cuckoo) override it with a
  /// pipelined probe that keeps a whole group's cache misses in flight.  The
  /// fused walk calls it once per round for each batched stage
  /// (FusedPipeline::Stage::batched).
  virtual void lookup_burst(const uint8_t* const* pkts, const proto::ParseInfo* const* pis,
                            uint32_t m, uint64_t* res) const {
    for (uint32_t i = 0; i < m; ++i) res[i] = lookup(pkts[i], *pis[i]);
  }

  virtual TableTemplate kind() const = 0;
  virtual size_t size() const = 0;
  virtual size_t memory_bytes() const = 0;

  /// Incremental update hooks; false = prerequisite broken or unsupported,
  /// caller must rebuild (possibly falling back along Fig. 4's chain).
  virtual bool try_add(const flow::FlowEntry&, BuildCtx&) { return false; }
  virtual bool try_remove(const flow::Match&, uint16_t) { return false; }

  /// True when try_add/try_remove may mutate this table *in place* while
  /// other threads are inside lookup() (single writer).  Only the LPM
  /// template qualifies: its cells are self-contained words published with
  /// release/acquire, the rte_lpm-under-RCU model.
  virtual bool concurrent_update_safe() const { return false; }

  /// Deep copy for the copy-on-write update path: with concurrent readers,
  /// templates whose incremental update mutates reader-visible structure
  /// (hash rebuilds, tuple-space chains) are cloned, updated privately and
  /// republished via trampoline swap — same incremental data-structure work
  /// as in place, plus an O(table) copy.  nullptr = not clonable (direct
  /// code and range rebuild from scratch anyway).
  virtual std::unique_ptr<CompiledTable> clone_for_update() const { return nullptr; }

  /// Epoch-reclamation hooks for templates that retire *internal* memory
  /// (cuckoo entries/views) rather than being swapped wholesale.  The
  /// datapath attaches its domain at publication and drains the template's
  /// retire lists during its reclaim pass; defaults are no-ops.
  virtual void attach_epoch_domain(common::EpochDomain*) {}
  virtual uint64_t epoch_reclaim(uint64_t horizon) {
    (void)horizon;
    return 0;
  }
  virtual size_t retired_pending() const { return 0; }
};

// --- direct code -------------------------------------------------------------

class DirectCodeTable final : public CompiledTable {
 public:
  static std::unique_ptr<DirectCodeTable> build(const std::vector<BuildEntry>& entries,
                                                BuildCtx& ctx, bool use_jit);

  uint64_t lookup(const uint8_t* pkt, const proto::ParseInfo& pi,
                  MemTrace* trace) const override;
  TableTemplate kind() const override { return TableTemplate::kDirectCode; }
  size_t size() const override { return lowered_.size(); }
  size_t memory_bytes() const override;

  bool jitted() const { return jit_.has_value(); }
  size_t code_size() const { return jit_ ? jit_->code_size() : 0; }

  /// The lowered entry chain — the fusion stage (jit/fusion.hpp) re-emits it
  /// into the whole-pipeline function.  Immutable (direct code rebuilds).
  const std::vector<jit::LoweredEntry>& lowered() const { return lowered_; }

 private:
  std::vector<jit::LoweredEntry> lowered_;
  std::optional<jit::DirectCodeFn> jit_;
};

// --- compound hash -------------------------------------------------------------

class HashTemplateTable final : public CompiledTable {
 public:
  /// `mask_template` is the shared mask set (values zeroed).  Entries must
  /// satisfy the hash prerequisite (checked by analysis; re-verified here).
  static std::unique_ptr<HashTemplateTable> build(const std::vector<BuildEntry>& entries,
                                                  const flow::Match& mask_template,
                                                  BuildCtx& ctx);

  uint64_t lookup(const uint8_t* pkt, const proto::ParseInfo& pi,
                  MemTrace* trace) const override;
  void prefetch(const uint8_t* pkt, const proto::ParseInfo& pi) const override;
  TableTemplate kind() const override { return TableTemplate::kCompoundHash; }
  size_t size() const override { return count_; }
  size_t memory_bytes() const override;

  bool try_add(const flow::FlowEntry& e, BuildCtx& ctx) override;
  bool try_remove(const flow::Match& m, uint16_t priority) override;
  std::unique_ptr<CompiledTable> clone_for_update() const override {
    return std::unique_ptr<CompiledTable>(new HashTemplateTable(*this));
  }

  uint64_t hash_rebuilds() const { return index_.rebuilds(); }

 private:
  HashTemplateTable() = default;
  HashTemplateTable(const HashTemplateTable&) = default;

  uint32_t key_from_match(const flow::Match& m, uint8_t* out) const;
  uint32_t key_from_packet(const uint8_t* pkt, const proto::ParseInfo& pi,
                           uint8_t* out) const;

  std::vector<flow::FieldId> fields_;
  std::vector<uint64_t> field_masks_;
  uint32_t proto_required_ = 0;
  cls::ExactMatchTable index_;
  struct Stored {
    uint64_t result;
    uint16_t priority;
  };
  std::vector<Stored> stored_;
  uint64_t catch_all_result_ = jit::kMissResult;
  uint16_t catch_all_priority_ = 0;
  bool has_catch_all_ = false;
  uint16_t min_specific_priority_ = 0xFFFF;
  size_t count_ = 0;
};

// --- cuckoo hash (million-flow exact match) ----------------------------------------

/// Same matching semantics and prerequisite as the compound hash, backed by
/// the resizable reader-safe cls::CuckooTable: one control-plane writer
/// mutates in place under live readers (epoch-retired entries, seqlock-guarded
/// displacement), so updates at million-flow scale never clone the table.
class CuckooTemplateTable final : public CompiledTable {
 public:
  static std::unique_ptr<CuckooTemplateTable> build(
      const std::vector<BuildEntry>& entries, const flow::Match& mask_template,
      BuildCtx& ctx);

  uint64_t lookup(const uint8_t* pkt, const proto::ParseInfo& pi,
                  MemTrace* trace) const override;
  void prefetch(const uint8_t* pkt, const proto::ParseInfo& pi) const override;
  /// Builds the group's keys, answers packets without the required protocol
  /// layers with the catch-all, and probes the rest through
  /// cls::CuckooTable::lookup_burst.
  void lookup_burst(const uint8_t* const* pkts, const proto::ParseInfo* const* pis,
                    uint32_t m, uint64_t* res) const override;
  TableTemplate kind() const override { return TableTemplate::kCuckooHash; }
  size_t size() const override { return count_; }
  size_t memory_bytes() const override;

  bool try_add(const flow::FlowEntry& e, BuildCtx& ctx) override;
  bool try_remove(const flow::Match& m, uint16_t priority) override;
  /// In-place incremental updates are reader-safe: slot words are atomic,
  /// entries immutable and epoch-retired, multi-slot moves seqlock-guarded.
  bool concurrent_update_safe() const override { return true; }

  void attach_epoch_domain(common::EpochDomain* d) override { index_.set_domain(d); }
  uint64_t epoch_reclaim(uint64_t horizon) override {
    return index_.epoch_reclaim(horizon);
  }
  size_t retired_pending() const override { return index_.retired_pending(); }

  uint64_t grows() const { return index_.grows(); }
  uint64_t reseeds() const { return index_.reseeds(); }
  const cls::CuckooTable& index() const { return index_; }

 private:
  CuckooTemplateTable() = default;

  uint32_t key_from_match(const flow::Match& m, uint8_t* out) const;
  uint32_t key_from_packet(const uint8_t* pkt, const proto::ParseInfo& pi,
                           uint8_t* out) const;

  std::vector<flow::FieldId> fields_;
  std::vector<uint64_t> field_masks_;
  uint32_t proto_required_ = 0;
  // value = packed result, aux = priority — no side array to keep coherent
  // with the index under concurrent readers.
  cls::CuckooTable index_;
  std::atomic<uint64_t> catch_all_result_{jit::kMissResult};
  uint16_t catch_all_priority_ = 0;
  bool has_catch_all_ = false;
  uint16_t min_specific_priority_ = 0xFFFF;
  size_t count_ = 0;
};

// --- LPM ---------------------------------------------------------------------------

class LpmTemplateTable final : public CompiledTable {
 public:
  static std::unique_ptr<LpmTemplateTable> build(const std::vector<BuildEntry>& entries,
                                                 flow::FieldId field, BuildCtx& ctx,
                                                 uint32_t max_tbl8_groups);

  uint64_t lookup(const uint8_t* pkt, const proto::ParseInfo& pi,
                  MemTrace* trace) const override;
  void prefetch(const uint8_t* pkt, const proto::ParseInfo& pi) const override;
  TableTemplate kind() const override { return TableTemplate::kLpm; }
  size_t size() const override { return prefix_prio_.size(); }
  size_t memory_bytes() const override { return lpm_.memory_bytes(); }

  bool try_add(const flow::FlowEntry& e, BuildCtx& ctx) override;
  bool try_remove(const flow::Match& m, uint16_t priority) override;
  /// In-place incremental updates are reader-safe: LpmTable cells are
  /// single-word acquire/release atomics and the results array below is
  /// fixed-capacity (overflow falls back to a rebuild), so nothing a reader
  /// dereferences ever moves.
  bool concurrent_update_safe() const override { return true; }

 private:
  uint32_t intern_result(uint64_t packed);

  flow::FieldId field_ = flow::FieldId::kIpDst;
  // The catch-all default's result for packets that do not carry IPv4 at all:
  // an empty match still matches them (reference semantics), even though the
  // /0 cell it occupies inside the LPM is only reachable for IPv4 packets.
  // Atomic because the catch-all may be added/removed by in-place incremental
  // updates while readers are live.
  std::atomic<uint64_t> proto_absent_result_{jit::kMissResult};
  cls::LpmTable lpm_;
  // Interned packed results, indexed by LPM cell value.  Fixed capacity so a
  // concurrent reader's results_[v] never races a reallocation; a slot is
  // written before the cell referencing it is released.
  std::unique_ptr<uint64_t[]> results_;
  uint32_t results_cap_ = 0;
  uint32_t results_size_ = 0;
  std::map<uint64_t, uint32_t> result_index_;
  // (prefix, len) -> priority mirror for incremental prerequisite checks,
  // ordered by prefix so descendants form a contiguous range.
  std::map<std::pair<uint32_t, uint8_t>, uint16_t> prefix_prio_;

  LpmTemplateTable(uint32_t max_tbl8, uint32_t results_cap)
      : lpm_(max_tbl8),
        results_(new uint64_t[results_cap]),
        results_cap_(results_cap) {}
};

// --- range (extension template) ---------------------------------------------------

class RangeTemplateTable final : public CompiledTable {
 public:
  static std::unique_ptr<RangeTemplateTable> build(const std::vector<BuildEntry>& entries,
                                                   flow::FieldId field, BuildCtx& ctx);

  uint64_t lookup(const uint8_t* pkt, const proto::ParseInfo& pi,
                  MemTrace* trace) const override;
  TableTemplate kind() const override { return TableTemplate::kRange; }
  size_t size() const override { return tree_.num_rules(); }
  size_t memory_bytes() const override { return tree_.memory_bytes(); }
  size_t num_intervals() const { return tree_.num_intervals(); }

  // No incremental updates: the flattening is rebuilt on change, like the
  // direct-code template.

 private:
  flow::FieldId field_ = flow::FieldId::kTcpDst;
  uint32_t proto_required_ = 0;
  // Highest-priority catch-all's result: packets missing the field's
  // protocol layers can match nothing else (reference semantics).
  uint64_t proto_absent_result_ = jit::kMissResult;
  cls::RangeTree tree_;
  std::vector<uint64_t> results_;
};

// --- linked list ----------------------------------------------------------------------

class LinkedListTable final : public CompiledTable {
 public:
  static std::unique_ptr<LinkedListTable> build(const std::vector<BuildEntry>& entries,
                                                BuildCtx& ctx);

  uint64_t lookup(const uint8_t* pkt, const proto::ParseInfo& pi,
                  MemTrace* trace) const override;
  void prefetch(const uint8_t* pkt, const proto::ParseInfo& pi) const override;
  TableTemplate kind() const override { return TableTemplate::kLinkedList; }
  size_t size() const override { return ts_.size(); }
  size_t memory_bytes() const override;

  bool try_add(const flow::FlowEntry& e, BuildCtx& ctx) override;
  bool try_remove(const flow::Match& m, uint16_t priority) override;
  std::unique_ptr<CompiledTable> clone_for_update() const override {
    return std::unique_ptr<CompiledTable>(new LinkedListTable(*this));
  }

  size_t num_tuples() const { return ts_.num_tuples(); }

 private:
  LinkedListTable() = default;
  LinkedListTable(const LinkedListTable&) = default;

  uint32_t rank_of(uint16_t priority) {
    return (static_cast<uint32_t>(0xFFFF - priority) << 16) | seq_++;
  }

  cls::TupleSpace<uint64_t> ts_;
  struct Mirror {
    flow::Match match;
    uint16_t priority;
    uint32_t rank;
  };
  std::vector<Mirror> mirror_;
  uint16_t seq_ = 0;
};

}  // namespace esw::core
