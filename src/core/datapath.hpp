// The compiled datapath: an array of trampoline slots (one per compiled
// table), the shared action-set registry, a parser plan, the published fused
// plan and the one packet walk that serves it.
//
// Trampolines realize §3.3/§3.4: a goto_table jump resolves through an atomic
// slot, so a table can be rebuilt side by side and inserted "by atomically
// redirecting all referring goto_table jumps to the address of the new code".
//
// Concurrency model (one writer, N packet workers):
//   * the control thread is the only mutator — it swaps trampolines
//     (release) and retires the displaced objects into the epoch domain's
//     one retire queue (`common/epoch.hpp`), which the templates' in-place
//     updates retire into as well;
//   * each packet worker runs inside a registered `Worker` context: its own
//     burst scratch (per-stage stat deltas), its own cacheline-padded verdict
//     counters, and an epoch slot it ticks once per burst, at which point it
//     provably holds no datapath pointers;
//   * retired objects are freed, and retired trampoline slots recycled, by
//     `reclaim()` once every registered worker has ticked past the
//     retirement epoch;
//   * the owner-context `process()`/`process_burst()` overloads run in an
//     implicit owner context: they are for single-threaded use (the control
//     thread itself, or a thread that is the only one touching the object),
//     which is trivially quiescent at every writer step.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/counters.hpp"
#include "common/epoch.hpp"
#include "core/compiled_table.hpp"
#include "flow/pipeline.hpp"
#include "jit/fusion.hpp"
#include "netio/packet.hpp"

namespace esw::state {
class Conntrack;
}

namespace esw::core {

/// The fused plan: an immutable snapshot of the steady-state goto graph —
/// every logical table's root slot, then its decomposition sub-slots in
/// topological order — with every stage pinned to its impl pointer so the
/// walk never touches the trampoline slots, and the direct-code members
/// compiled into one machine function (jit::FusedProgram) when the JIT is on
/// and the exec mapper allows it.  Every non-empty pipeline has a plan, and
/// the plan is the only packet walk.  Published/retired through the epoch
/// domain exactly like a table impl — the writer builds a fresh plan on
/// churn (core::fuse_pipeline) and swaps it in with set_fused(); a worker
/// loads it once per chunk (acquire) and runs the whole chunk against that
/// consistent graph.
struct FusedPipeline {
  struct Stage {
    int32_t slot = -1;                 // owning trampoline slot (stat flush)
    const CompiledTable* impl = nullptr;
    flow::FlowTable::MissPolicy miss = flow::FlowTable::MissPolicy::kDrop;
    bool want_prefetch = false;
    /// Probed once per walk round for every packet sitting at this stage,
    /// through CompiledTable::lookup_burst (cuckoo stages whose table is past
    /// kPrefetchMinBytes).  Batched stages
    /// skip the per-transition and one-ahead prefetch — the bulk probe
    /// pipelines its own misses; want_prefetch then only primes a lone
    /// packet's scalar probe.
    bool batched = false;
    jit::FusedProgram::Fn entry = nullptr;  // machine entry; null = pinned impl
    /// Next stage of this stage's machine region: members joined by a jmp in
    /// the program form one ring, every other stage points at itself.  A
    /// machine call bumps counters only inside its entry stage's ring.
    uint32_t region_next = 0;
  };
  std::vector<Stage> stages;           // walk order from stage 0: gotos go forward
  std::vector<uint32_t> batched;       // indexes of the batched stages
  std::vector<int32_t> stage_of_slot;  // slot id -> stage index, -1 = not in plan
  /// Null when there are no direct-code members, the JIT is off, or the
  /// exec mapper refused the emit: every stage then walks its pinned impl.
  std::shared_ptr<const jit::FusedProgram> program;
  /// Identity of (slot, impl, miss) per stage — an unchanged fingerprint means
  /// the published plan is still exact and republish can be skipped.
  uint64_t fingerprint = 0;
  /// Identity of the direct-code member set only: when churn rebuilt other
  /// tables (e.g. a hash or LPM table rebuilt side by side) the previous
  /// plan's machine program is reused instead of re-emitted.
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
  /// The domain's retire-queue totals plus what was displaced but not yet
  /// stamped.  Template-internal retirements (cuckoo entries and views,
  /// tuple-space nodes, scan arrays and tuples) count like tables and plans.
  struct ReclaimStats {
    uint64_t retired = 0;    // objects handed to the epoch domain
    uint64_t reclaimed = 0;  // freed after their grace period
    uint64_t pending = 0;    // retired, grace period not yet over
  };

  /// Upper bound on table hops per packet, for slot-walking callers outside
  /// the datapath.  The fused walk needs no hop counter: gotos only go
  /// forward, so it finishes within one round per stage, and a goto that
  /// does not (a hand-wired cycle) is dropped at the first backward edge.
  static constexpr int kMaxHops = 8192;
  /// Tables whose resident bytes fit in the private caches are skipped by
  /// the prefetch hints: the hint recomputes the lookup key (hash templates
  /// pay the key hash twice), which only amortizes when the lookup would
  /// otherwise stall on LLC/DRAM.  Structures below this bound (L2-sized)
  /// serve lookups from warm lines anyway.  Read by the fusion planner
  /// (core::fuse_pipeline).
  static constexpr size_t kPrefetchMinBytes = 1024 * 1024;

 public:
  /// A packet worker's execution context: burst scratch, padded verdict
  /// counters and the epoch registration.  Obtain via register_worker(); one
  /// thread drives a Worker at a time.
  class Worker {
   public:
    uint32_t id() const { return id_; }

   private:
    friend class CompiledDatapath;
    // Walk scratch: the per-stage lookup/hit/miss delta block the machine
    // code increments (stage * 3 + field, jit/fusion.hpp layout), all zero
    // between chunks; the stages the chunk touched, the only ones it flushes;
    // and the per-call action-id spill array.
    std::vector<uint64_t> delta_;
    std::vector<uint32_t> touched_;
    std::vector<int32_t> actions_;
    common::EpochDomain::WorkerSlot* epoch_ = nullptr;  // null for the owner ctx
    uint32_t id_ = 0;
    bool in_use_ = false;  // control-thread bookkeeping
    // Verdict-level counters, single-writer (the worker).  Last and aligned,
    // so the block has its cache line to itself.
    alignas(64) common::CounterCells<Stats> stats_;
  };

  CompiledDatapath();

  // --- control plane (single writer) ---------------------------------------

  /// Allocates (or recycles) a trampoline slot; returns its internal id.
  int32_t add_slot();

  /// Swaps the slot's implementation (release order); the displaced one is
  /// retired into the epoch domain and freed by a later reclaim().
  void set_impl(int32_t slot, std::unique_ptr<CompiledTable> impl);

  /// Retires a slot stranded by a root swap (a decomposed table's previous
  /// sub-table chain).  Its impl stays published until the grace period ends
  /// — pre-swap bursts may still jump into it and must see the old table —
  /// then the impl is freed and the slot id recycled on the same pass.
  void retire_slot(int32_t slot);

  /// Stamps what was displaced since the last pass (impls, slots, plans)
  /// into the domain's queue, then frees every retirement whose grace period
  /// has elapsed and recycles the retired slots (advances the epoch first).
  /// With no registered workers this reclaims everything immediately.
  void reclaim();

  void set_start(int32_t slot) { start_.store(slot, std::memory_order_release); }

  /// Publishes the fused plan (release); nullptr leaves the datapath empty
  /// (every packet drops).  The displaced plan is retired into the epoch
  /// domain — a worker mid-chunk keeps running the old graph until its next
  /// tick, like any impl swap.  The writer must republish *before* reclaim()
  /// whenever an impl referenced by the published plan was retired.
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
  /// structures may only be updated by a side-by-side rebuild and swap or by
  /// a template's reader-safe in-place update (CompiledTable::try_add).
  Worker* register_worker();
  /// Unregisters (control thread only; the worker's thread must have
  /// finished — joined or provably past its last burst).
  void unregister_worker(Worker* w);
  bool has_workers() const { return domain_.has_workers(); }

  /// Forces a quiescent tick on a worker's epoch slot from outside its
  /// thread.  Only legal while the worker provably holds no datapath
  /// pointers — parked in backpressure, or stalled before its plan load
  /// — where the worst a racing overwrite can do is re-publish a slightly
  /// stale epoch, which merely delays reclamation.  This is the watchdog's
  /// recovery lever for a stuck worker pinning the epoch horizon.
  void quiesce(Worker& w) {
    if (w.epoch_ != nullptr) domain_.quiescent(*w.epoch_);
  }

  // --- datapath (readers) ---------------------------------------------------

  /// One packet in the owner context: a burst of one.  process_burst() must
  /// be observably identical to n calls of process() (verdicts, packet
  /// mutations, per-table and global stats).
  flow::Verdict process(net::Packet& pkt, MemTrace* trace = nullptr) {
    return process(workers_[0], pkt, trace);
  }
  /// Worker-context burst of one.  With a `trace`, the header line and every
  /// stage's lookup are reported to it; machine entries and bulk probes are
  /// bypassed so each stage decodes through CompiledTable::lookup(…, trace).
  flow::Verdict process(Worker& w, net::Packet& pkt, MemTrace* trace = nullptr);

  /// Burst fast path in the owner context; see the Worker overload.
  void process_burst(net::Packet* const* pkts, uint32_t n, flow::Verdict* out) {
    process_burst(workers_[0], pkts, n, out);
  }
  /// Burst fast path: `n` packets run to completion, one verdict per packet
  /// written to `out[0..n)`.  Amortizes per-packet overhead the way a
  /// DPDK-style loop does: the worker ticks its epoch slot, loads the fused
  /// plan once (acquire), runs the parse stage across the burst with
  /// next-frame prefetch, walks the plan a round at a time with cross-stage
  /// prefetch, and flushes the stats of the stages it touched once per
  /// burst.  The plan stays valid for the whole burst because a displaced
  /// plan and its impls survive at least until every worker's next tick
  /// (epoch grace period).  Each Worker is single-threaded; concurrency comes
  /// from running *different* workers on different threads.  `n` may exceed
  /// kBurstSize; the loop chunks internally.
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
    // Shared per-slot counters: workers flush burst-local deltas with relaxed
    // fetch_add (a handful per burst), readers aggregate with relaxed loads.
    common::CounterCells<TableStats> stats;
  };
  static_assert(sizeof(Slot) == 32, "a slot is one pointer and three counters");

  template <uint32_t kCap>
  void process_chunk(Worker& w, net::Packet* const* pkts, uint32_t n,
                     flow::Verdict* out, MemTrace* trace);
  std::unique_ptr<CompiledTable> take_live(CompiledTable* old);
  void retire_impl(CompiledTable* old);
  void stamp_unpublished();
  void recycle_slot(int32_t slot);

  std::unique_ptr<Slot[]> slots_;  // kMaxSlots, fixed — stable for readers
  std::atomic<int32_t> n_slots_{0};
  std::vector<int32_t> free_slots_;  // recycled ids (writer-side)
  std::vector<std::unique_ptr<CompiledTable>> live_;
  flow::ActionSetRegistry actions_;
  std::atomic<proto::ParserPlan> plan_{proto::ParserPlan::full()};
  std::atomic<int32_t> start_{-1};

  common::EpochDomain domain_;
  // Displaced since the last reclaim() and not yet stamped: the published
  // plan may pin them until the writer republishes it.
  struct Unpublished {
    std::vector<std::unique_ptr<CompiledTable>> impls;
    std::vector<int32_t> slots;
    std::vector<std::unique_ptr<FusedPipeline>> plans;
  } unpublished_;
  // Stamped slot ids awaiting recycling (their impls sit in the domain's
  // queue): recycling needs the datapath, so the ids stay here.
  struct RetiredSlot {
    uint64_t epoch;
    int32_t slot;
  };
  std::vector<RetiredSlot> retired_slots_;  // stamp order
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
