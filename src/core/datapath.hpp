// The compiled datapath: an array of trampoline slots (one per compiled
// table), the shared action-set registry, a parser plan and the per-packet
// processing loop.
//
// Trampolines realize §3.3/§3.4: a goto_table jump resolves through an atomic
// slot, so a table can be rebuilt side by side and inserted "by atomically
// redirecting all referring goto_table jumps to the address of the new code".
//
// Concurrency model (one writer, N packet workers):
//   * the control thread is the only mutator — it swaps trampolines
//     (release) and retires the displaced objects into an epoch domain
//     (`common/epoch.hpp`);
//   * each packet worker runs inside a registered `Worker` context: its own
//     burst scratch (trampoline snapshots), its own cacheline-padded verdict
//     counters, and an epoch slot it ticks once per burst, at which point it
//     provably holds no datapath pointers;
//   * retired tables and recycled trampoline slots are freed by `reclaim()`
//     once every registered worker has ticked past the retirement epoch —
//     the old caller-coordinated `collect()` contract ("call when no
//     process() is in flight") is gone;
//   * the legacy `process()`/`process_burst()` entry points run in an
//     implicit owner context: they are for single-threaded use (the control
//     thread itself, or a thread that is the only one touching the object),
//     which is trivially quiescent at every writer step.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/epoch.hpp"
#include "core/compiled_table.hpp"
#include "flow/pipeline.hpp"
#include "jit/fusion.hpp"
#include "netio/packet.hpp"

namespace esw::state {
class Conntrack;
}

namespace esw::core {

/// The whole-pipeline fusion plan (ROADMAP item 3): an immutable snapshot of
/// the steady-state goto graph, with the direct-code members compiled into
/// one machine function (jit::FusedProgram) and every other stage pinned to
/// its impl pointer so the burst walk never touches the trampoline slots.
/// Published/retired through the epoch domain exactly like a table impl —
/// the writer builds a fresh plan on churn (core::fuse_pipeline) and swaps
/// it in with set_fused(); a worker loads it once per chunk (acquire) and
/// runs the whole chunk against that consistent graph.
struct FusedPipeline {
  struct Stage {
    int32_t slot = -1;                 // owning trampoline slot (stat flush)
    const CompiledTable* impl = nullptr;
    flow::FlowTable::MissPolicy miss = flow::FlowTable::MissPolicy::kDrop;
    bool want_prefetch = false;
    /// Probed once per walk round for every packet sitting at this stage,
    /// through CompiledTable::lookup_burst (cuckoo stages).  Batched stages
    /// skip the per-transition and one-ahead prefetch — the bulk probe
    /// pipelines its own misses; want_prefetch then only primes a lone
    /// packet's scalar probe.
    bool batched = false;
    jit::FusedProgram::Fn entry = nullptr;  // machine entry; null = staged stage
  };
  std::vector<Stage> stages;           // pipeline walk order (ascending table id)
  std::vector<uint32_t> batched;       // indexes of the batched stages
  std::vector<int32_t> stage_of_slot;  // slot id -> stage index, -1 = not in plan
  uint32_t start_stage = 0;
  std::shared_ptr<const jit::FusedProgram> program;  // null = no machine members
  /// Identity of (start, slot, impl, miss) — an unchanged fingerprint means
  /// the published plan is still exact and republish can be skipped.
  uint64_t fingerprint = 0;
  /// Identity of the direct-code member set only: when churn touched other
  /// tables (e.g. a hash clone-swap) the previous plan's machine program is
  /// reused instead of re-emitted.
  uint64_t program_key = 0;
};

class CompiledDatapath {
 public:
  /// Concurrent packet workers supported (excluding the owner context).
  static constexpr uint32_t kMaxWorkers = common::EpochDomain::kMaxWorkers;
  /// Trampoline slot capacity.  Fixed so workers never race a reallocating
  /// slot container; retired slots are recycled through the epoch domain, so
  /// this bounds *live* tables plus those still in their grace period.
  static constexpr int32_t kMaxSlots = 4096;

  struct TableStats {
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
  };
  struct Stats {
    uint64_t packets = 0;
    uint64_t outputs = 0;
    uint64_t drops = 0;
    uint64_t to_controller = 0;
  };
  struct ReclaimStats {
    uint64_t retired = 0;    // objects handed to the epoch domain
    uint64_t reclaimed = 0;  // freed after their grace period
    uint64_t pending = 0;    // retired, grace period not yet over
  };

  /// One loop-bound policy for every walk flavor: a packet that has not
  /// reached a verdict after this many table hops is dropped.  The staged
  /// paths count hops directly; the fused walk's round bound (DAG depth,
  /// forward-only gotos) is strictly tighter and ends in the same drop.
  static constexpr int kMaxHops = 8192;
  /// Tables whose resident bytes fit in the private caches are skipped by
  /// the prefetch hints: the hint recomputes the lookup key (hash templates
  /// pay the key hash twice), which only amortizes when the lookup would
  /// otherwise stall on LLC/DRAM.  Structures below this bound (L2-sized)
  /// serve lookups from warm lines anyway.  Shared by the staged snapshots
  /// and the fusion planner (core::fuse_pipeline).
  static constexpr size_t kPrefetchMinBytes = 1024 * 1024;

 private:
  /// Per-burst view of a slot: impl/miss hoisted out of the hot loop, local
  /// stat deltas flushed when the burst ends.  `gen` stamps which burst the
  /// snapshot belongs to so untouched slots cost nothing per burst.
  struct SlotSnapshot {
    const CompiledTable* impl = nullptr;
    flow::FlowTable::MissPolicy miss = flow::FlowTable::MissPolicy::kDrop;
    bool want_prefetch = false;
    uint64_t gen = 0;
    TableStats delta;
  };

 public:
  /// A packet worker's execution context: burst scratch, padded verdict
  /// counters and the epoch registration.  Obtain via register_worker(); one
  /// thread drives a Worker at a time.
  class Worker {
   public:
    uint32_t id() const { return id_; }

   private:
    friend class CompiledDatapath;
    // Verdict-level counters: own cache line, single-writer (the worker),
    // relaxed-atomic so aggregating readers are race-free.
    struct alignas(64) StatBlock {
      std::atomic<uint64_t> packets{0};
      std::atomic<uint64_t> outputs{0};
      std::atomic<uint64_t> drops{0};
      std::atomic<uint64_t> to_controller{0};
    };

    StatBlock stats_;
    std::vector<SlotSnapshot> snap_;
    std::vector<int32_t> snap_touched_;
    // Fused-walk scratch: the per-stage lookup/hit/miss delta block the
    // machine code increments (stage * 3 + field, jit/fusion.hpp layout) and
    // the per-call action-id spill array.
    std::vector<uint64_t> fused_delta_;
    std::vector<int32_t> fused_actions_;
    uint64_t snap_gen_ = 0;
    common::EpochDomain::WorkerSlot* epoch_ = nullptr;  // null for the owner ctx
    uint32_t id_ = 0;
    bool in_use_ = false;  // control-thread bookkeeping
  };

  CompiledDatapath();

  // --- control plane (single writer) ---------------------------------------

  /// Allocates (or recycles) a trampoline slot; returns its internal id.
  int32_t add_slot(flow::FlowTable::MissPolicy miss);

  /// Swaps the slot's implementation (release order); the displaced one is
  /// retired into the epoch domain and freed by a later reclaim().
  void set_impl(int32_t slot, std::unique_ptr<CompiledTable> impl);

  /// Retires a slot stranded by a root swap (a decomposed table's previous
  /// sub-table chain).  Its impl stays published until the grace period ends
  /// — pre-swap bursts may still jump into it and must see the old table —
  /// then impl and slot id are reclaimed together for reuse.
  void retire_slot(int32_t slot);

  /// Frees every retirement whose grace period has elapsed (advances the
  /// epoch first).  With no registered workers this reclaims everything
  /// immediately.  Returns the number of objects freed.
  uint64_t reclaim();

  void set_miss_policy(int32_t slot, flow::FlowTable::MissPolicy miss);
  void set_start(int32_t slot) { start_.store(slot, std::memory_order_release); }

  /// Publishes a fused whole-pipeline plan (release), or clears the fast
  /// path (nullptr) so bursts fall back to the staged walk.  The displaced
  /// plan is retired into the epoch domain — a worker mid-chunk keeps
  /// running the old graph until its next tick, like any impl swap.  The
  /// writer must republish (or clear) *before* reclaim() whenever an impl
  /// referenced by the published plan was retired.
  void set_fused(std::unique_ptr<FusedPipeline> fused);
  const FusedPipeline* fused() const {
    return fused_.load(std::memory_order_acquire);
  }
  void set_plan(const proto::ParserPlan& plan) {
    plan_.store(plan, std::memory_order_release);
  }

  /// Drops all slots and state (full recompile path).  Requires no
  /// registered workers: install() is a stop-the-world operation.
  void reset();

  // --- worker management ----------------------------------------------------

  /// Registers a packet-worker context (control thread only; nullptr when
  /// kMaxWorkers are active).  While any worker is registered, reader-visible
  /// structures may only be updated via copy-and-swap or in-place algorithms
  /// that are explicitly reader-safe (CompiledTable::concurrent_update_safe).
  Worker* register_worker();
  /// Unregisters (control thread only; the worker's thread must have
  /// finished — joined or provably past its last burst).
  void unregister_worker(Worker* w);
  bool has_workers() const { return domain_.has_workers(); }

  /// Forces a quiescent tick on a worker's epoch slot from outside its
  /// thread.  Only legal while the worker provably holds no datapath
  /// pointers — parked in backpressure, or stalled before its burst snapshot
  /// — where the worst a racing overwrite can do is re-publish a slightly
  /// stale epoch, which merely delays reclamation.  This is the watchdog's
  /// recovery lever for a stuck worker pinning the epoch horizon.
  void quiesce(Worker& w) {
    if (w.epoch_ != nullptr) domain_.quiescent(*w.epoch_);
  }

  // --- datapath (readers) ---------------------------------------------------

  /// One packet through the compiled pipeline in the owner context.  This is
  /// the reference implementation: process_burst() must be observably
  /// identical to n calls of process() (verdicts, packet mutations,
  /// per-table and global stats).
  flow::Verdict process(net::Packet& pkt, MemTrace* trace = nullptr) {
    return process(workers_[0], pkt, trace);
  }
  /// Worker-context scalar path: per-hop acquire trampoline loads, one epoch
  /// tick per packet.  Each Worker is single-threaded; concurrency comes
  /// from running *different* workers on different threads (run-to-completion
  /// sharding), never from sharing one context.
  flow::Verdict process(Worker& w, net::Packet& pkt, MemTrace* trace = nullptr);

  /// Burst fast path in the owner context; see the Worker overload.
  void process_burst(net::Packet* const* pkts, uint32_t n, flow::Verdict* out) {
    process_burst(workers_[0], pkts, n, out);
  }
  /// Burst fast path: `n` packets run to completion, one verdict per packet
  /// written to `out[0..n)`.  Amortizes per-packet overhead the way a
  /// DPDK-style loop does: the worker ticks its epoch slot, snapshots each
  /// slot's impl pointer (acquire) and miss policy once per burst, runs the
  /// parse stage across the burst with next-frame prefetch, walks packets
  /// with one-ahead lookup prefetch, and flushes per-table and global stats
  /// once per burst.  A snapshot taken at burst start stays valid for the
  /// whole burst because a displaced impl survives at least until every
  /// worker's next tick (epoch grace period).  `n` may exceed kBurstSize;
  /// the loop chunks internally.
  void process_burst(Worker& w, net::Packet* const* pkts, uint32_t n,
                     flow::Verdict* out);

  // --- introspection --------------------------------------------------------

  const CompiledTable* impl(int32_t slot) const {
    return slots_[slot].impl.load(std::memory_order_acquire);
  }
  CompiledTable* impl_mut(int32_t slot) {
    return slots_[slot].impl.load(std::memory_order_acquire);
  }
  int32_t num_slots() const { return n_slots_.load(std::memory_order_acquire); }
  int32_t start() const { return start_.load(std::memory_order_acquire); }
  proto::ParserPlan plan() const { return plan_.load(std::memory_order_acquire); }

  flow::ActionSetRegistry& actions() { return actions_; }
  const flow::ActionSetRegistry& actions() const { return actions_; }

  /// Attaches (or detaches, nullptr) the connection-tracking layer.  The
  /// packet path loads this once per packet/chunk (acquire); disabled costs
  /// one predictable branch.  The Conntrack must outlive its attachment and
  /// shares this datapath's epoch domain (see domain()).
  void set_conntrack(state::Conntrack* ct) {
    ct_.store(ct, std::memory_order_release);
  }
  state::Conntrack* conntrack() const {
    return ct_.load(std::memory_order_acquire);
  }
  /// The epoch domain workers tick; the Conntrack's retire/reclaim cycle
  /// rides the same quiescence signal as table retirement.
  common::EpochDomain& domain() { return domain_; }

  /// Per-slot counter snapshot (sums of all workers' flushed deltas).
  TableStats table_stats(int32_t slot) const;
  /// Verdict-level counters aggregated over the owner context and every
  /// worker block (the per-worker blocks are only ever read here).
  Stats stats() const;
  /// Zeroes all counters.  Control-side; concurrent bursts may re-add their
  /// in-flight deltas, so call it while processing is paused for exactness.
  void clear_stats();

  ReclaimStats reclaim_stats() const;

  /// Total resident bytes of all live compiled tables (working-set model).
  /// Control-side (walks the live-table list the writer owns).
  size_t memory_bytes() const;

 private:
  struct Slot {
    std::atomic<CompiledTable*> impl{nullptr};
    std::atomic<flow::FlowTable::MissPolicy> miss{flow::FlowTable::MissPolicy::kDrop};
    // Shared per-slot counters: workers flush burst-local deltas with relaxed
    // fetch_add (a handful per burst), readers aggregate with relaxed loads.
    std::atomic<uint64_t> lookups{0};
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
  };

  SlotSnapshot& snapshot(Worker& w, int32_t slot);
  void process_chunk(Worker& w, net::Packet* const* pkts, uint32_t n,
                     flow::Verdict* out);
  struct BurstCtx;  // cpp-internal: parse results + conntrack pre-stage state
  void process_chunk_fused(Worker& w, const FusedPipeline& fp,
                           net::Packet* const* pkts, uint32_t n, flow::Verdict* out,
                           const BurstCtx& ctx);
  std::unique_ptr<CompiledTable> take_live(CompiledTable* old);
  void retire_impl(CompiledTable* old);
  void recycle_slot(int32_t slot);

  std::unique_ptr<Slot[]> slots_;  // kMaxSlots, fixed — stable for readers
  std::atomic<int32_t> n_slots_{0};
  std::vector<int32_t> free_slots_;  // recycled ids (writer-side)
  std::vector<std::unique_ptr<CompiledTable>> live_;
  flow::ActionSetRegistry actions_;
  std::atomic<proto::ParserPlan> plan_{proto::ParserPlan::full()};
  std::atomic<int32_t> start_{-1};

  common::EpochDomain domain_;
  common::RetireList<std::unique_ptr<CompiledTable>> retired_impls_;
  common::RetireList<int32_t> retired_slots_;
  common::RetireList<std::unique_ptr<FusedPipeline>> retired_fused_;
  std::atomic<state::Conntrack*> ct_{nullptr};
  // Published fused plan (readers, acquire) + writer-side ownership of it.
  std::atomic<const FusedPipeline*> fused_{nullptr};
  std::unique_ptr<FusedPipeline> fused_live_;

  // workers_[0] is the implicit owner context; 1..kMaxWorkers are
  // registerable packet workers.
  std::unique_ptr<Worker[]> workers_;
};

static_assert(std::atomic<proto::ParserPlan>::is_always_lock_free,
              "parser plan must publish without a lock");

}  // namespace esw::core
