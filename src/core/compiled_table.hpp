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
#include <vector>

#include "cls/cuckoo.hpp"
#include "cls/key_shape.hpp"
#include "cls/lpm.hpp"
#include "cls/range_tree.hpp"
#include "cls/tuple_space.hpp"
#include "core/decompose.hpp"
#include "core/lowering.hpp"
#include "core/template_kind.hpp"

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
  /// caller must rebuild (possibly falling back along Fig. 4's chain).  A
  /// template that accepts a mod applies it to itself *in place*, safely
  /// under concurrent lookup() callers (single writer); a refusal leaves the
  /// table untouched.
  virtual bool try_add(const flow::FlowEntry&, BuildCtx&) { return false; }
  virtual bool try_remove(const flow::Match&, uint16_t) { return false; }

  /// For templates that retire *internal* memory (cuckoo entries/views,
  /// tuple-space nodes, scan arrays and tuples) rather than being swapped
  /// wholesale: the datapath attaches its domain at publication, and the
  /// template retires into that domain's queue from then on.  The default
  /// is a no-op.
  virtual void attach_epoch_domain(common::EpochDomain*) {}
};

// --- direct code -------------------------------------------------------------

/// The lowered entry chain of a small table.  Its machine rendering lives in
/// the fused program (jit/fusion.hpp), which emits every direct-code stage of
/// the plan; lookup() interprets the same chain (jit::interpret) for stages
/// the program does not serve — the JIT off or the exec mapping refused.
class DirectCodeTable final : public CompiledTable {
 public:
  static std::unique_ptr<DirectCodeTable> build(const std::vector<BuildEntry>& entries,
                                                BuildCtx& ctx);

  uint64_t lookup(const uint8_t* pkt, const proto::ParseInfo& pi,
                  MemTrace* trace) const override;
  TableTemplate kind() const override { return TableTemplate::kDirectCode; }
  size_t size() const override { return lowered_.size(); }
  size_t memory_bytes() const override;

  /// The lowered entry chain — the fusion stage (jit/fusion.hpp) emits it
  /// into the whole-pipeline function.  Immutable (direct code rebuilds).
  const std::vector<jit::LoweredEntry>& lowered() const { return lowered_; }

 private:
  std::vector<jit::LoweredEntry> lowered_;
};

// --- cuckoo hash (the compound hash template) -------------------------------------

/// The paper's compound hash (§3.1): exact match under one global mask (the
/// table's cls::KeyShape, the key format tuples use too), at most one
/// lowest-priority catch-all, kept outside the index.  Backed by the
/// resizable reader-safe cls::CuckooTable: one control-plane writer mutates
/// in place under live readers (epoch-retired entries, seqlock-guarded
/// displacement), so no update ever clones the table, from a dozen entries
/// to millions.
class CuckooTemplateTable final : public CompiledTable {
 public:
  /// Sizes the index from `entries`, so the build never grows it and small
  /// tables stay small.
  static std::unique_ptr<CuckooTemplateTable> build(
      const std::vector<BuildEntry>& entries, const cls::KeyShape& shape, BuildCtx& ctx);

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

  /// Both refuse (the caller rebuilds) whenever a same-match entry at
  /// another priority exists: the index holds one entry per key, so the
  /// shadowed one lives only in the flow table.
  bool try_add(const flow::FlowEntry& e, BuildCtx& ctx) override;
  bool try_remove(const flow::Match& m, uint16_t priority) override;

  void attach_epoch_domain(common::EpochDomain* d) override { index_.set_domain(d); }

  uint64_t grows() const { return index_.grows(); }
  uint64_t reseeds() const { return index_.reseeds(); }
  const cls::CuckooTable& index() const { return index_; }

 private:
  CuckooTemplateTable(const cls::KeyShape& shape, uint32_t initial_buckets)
      : shape_(shape), index_(initial_buckets) {}

  cls::KeyShape shape_;
  // value = packed result, aux = priority — no side array to keep coherent
  // with the index under concurrent readers.
  cls::CuckooTable index_;
  std::atomic<uint64_t> catch_all_result_{jit::kMissResult};
  uint16_t catch_all_priority_ = 0;
  bool has_catch_all_ = false;
  uint16_t min_specific_priority_ = 0xFFFF;
  size_t count_ = 0;
  // The build dropped a lower-priority duplicate key (or catch-all): removals
  // rebuild so the shadowed entry resurfaces.
  bool shadows_ = false;
};

// --- LPM ---------------------------------------------------------------------------

class LpmTemplateTable final : public CompiledTable {
 public:
  /// tbl8 budget per LPM table; exhausting it rebuilds under the linked list.
  static constexpr uint32_t kMaxTbl8Groups = 1024;

  static std::unique_ptr<LpmTemplateTable> build(const std::vector<BuildEntry>& entries,
                                                 flow::FieldId field, BuildCtx& ctx);

  uint64_t lookup(const uint8_t* pkt, const proto::ParseInfo& pi,
                  MemTrace* trace) const override;
  void prefetch(const uint8_t* pkt, const proto::ParseInfo& pi) const override;
  TableTemplate kind() const override { return TableTemplate::kLpm; }
  size_t size() const override { return prefix_prio_.size(); }
  size_t memory_bytes() const override { return lpm_.memory_bytes(); }

  /// Reader-safe in place: LpmTable cells are single-word acquire/release
  /// atomics and the results array below is fixed-capacity (overflow falls
  /// back to a rebuild), so nothing a reader dereferences ever moves.
  bool try_add(const flow::FlowEntry& e, BuildCtx& ctx) override;
  bool try_remove(const flow::Match& m, uint16_t priority) override;

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

  explicit LpmTemplateTable(uint32_t results_cap)
      : lpm_(kMaxTbl8Groups),
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

/// The paper's catch-all template: a tuple space over every entry, which
/// owns the (priority, insertion) order and updates in place under readers.
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

  void attach_epoch_domain(common::EpochDomain* d) override { ts_.set_domain(d); }

  size_t num_tuples() const { return ts_.num_tuples(); }

 private:
  LinkedListTable() = default;

  cls::TupleSpace<uint64_t> ts_;
};

}  // namespace esw::core
