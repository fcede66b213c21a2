// The switch runtime: a port panel plus a backend, run the way a production
// switch runs — the paper's Fig. 19 execution model.  Packets flow
// rx_burst -> process_burst -> tx_burst and verdicts are *executed*, not
// returned to the caller:
//
//   * kOutput     — enqueued on the egress port (tail-dropped if its ring is
//     full);
//   * kFlood      — the original frame to the first egress port, one
//     pool-allocated copy to every further port except ingress;
//   * kController — buffered as a RuntimePacketIn for drain_packet_ins();
//   * kDrop       — counted, buffer recycled.
//
// One round body, two ways to drive it:
//
//   rx_burst -> Backend::process_burst(worker ctx) -> execute_burst
//            -> (sink_tx) drain the TX rings back into the pool
//
//   * threaded — start() shards the port panel's RX rings across N
//     std::thread workers, each looping over that round, while the control
//     thread keeps exclusive ownership of the update plane
//     (`apply`/`apply_batch`, or a `uc::OfAgent` session bridged to the
//     backend) and of table-memory reclamation, which rides the backend's
//     epoch domain — workers tick once per burst inside process_burst;
//   * inline — while no worker runs, the caller's thread calls poll(),
//     packet_out() and drain_and_release_tx().  They run on one
//     runtime-owned worker that owns every port; its backend context is
//     registered only for the duration of a poll(), so install() stays legal
//     and reclamation stays immediate between polls.
//
// Shared-state discipline, piece by piece:
//   * RX rings — single-producer/single-consumer: each port belongs to
//     exactly one worker (round-robin sharding), and that worker is also the
//     only injector when a traffic source is configured;
//   * TX rings — any worker may output to any port: multi-producer enqueue
//     (Ring::enqueue_burst_mp), batched per port — a worker stages a burst's
//     frames by egress port and enqueues each port's group in one call.
//     Order guarantee: each port receives one worker's frames in packet
//     order (within a burst and across its bursts); frames from different
//     workers interleave at burst granularity, with no order between them.
//     The owning worker drains its ports' TX back into the pool when
//     `sink_tx` is on (the wire carrying frames away); with it off, the
//     caller drains (ports().port(n).drain_tx + pool().free);
//   * buffers — one shared MbufPool, accessed only through per-worker
//     MbufCaches (bulk refill/spill, lock-free per packet);
//   * counters — per-worker cacheline-padded blocks of single-writer relaxed
//     atomics, aggregated only in counters() readers;
//   * packet-ins — bounded, mutex-protected handoff to the control thread
//     (the slow path by definition).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/counters.hpp"
#include "common/failpoint.hpp"
#include "common/tsc.hpp"
#include "core/dataplane.hpp"
#include "flow/actions.hpp"
#include "netio/mbuf_pool.hpp"
#include "netio/portset.hpp"
#include "perf/latency.hpp"
#include "proto/parse.hpp"

namespace esw::core {

/// A controller-bound frame (the runtime-level precursor of a PACKET_IN).
/// The datapath does not distinguish an explicit controller action from a
/// kController table-miss policy, so no reason travels here; the agent layer
/// defaults to "no match", the reactive case.
struct RuntimePacketIn {
  std::vector<uint8_t> frame;
  uint32_t in_port = 0;
};

/// Verdict-execution counters of a SwitchRuntime (whatever its backend);
/// one padded block per worker, aggregated on read.  `processed` is the
/// throughput counter Fig. 19 reports.  Every frame takes exactly one exit,
/// so processed + flood_copies == tx_packets + tx_rejected + bad_port + drops
/// + packet_ins.
struct RuntimeCounters {
  uint64_t polls = 0;          // worker loop iterations
  uint64_t processed = 0;      // packets through process_burst
  uint64_t source_packets = 0; // injected by the traffic source hook
  uint64_t tx_packets = 0;     // frames accepted by a TX ring (flood copies too)
  uint64_t flood_copies = 0;   // frames a flood copied beyond the original
  uint64_t drops = 0;          // kDrop verdicts, floods with no egress port
  uint64_t packet_ins = 0;
  uint64_t tx_rejected = 0;    // frames refused by a full TX ring
  uint64_t bad_port = 0;
  uint64_t pool_exhausted = 0;       // buffer allocs refused by the pool
  uint64_t backpressure_events = 0;  // bounded pauses under pool exhaustion
};

template <ConcurrentDataplane Backend>
class SwitchRuntime {
 public:
  struct Config {
    uint32_t n_workers = 2;
    uint32_t n_ports = 4;  // sharded round-robin: port p -> worker (p-1) % n
    net::Port::Config port{};
    uint32_t pool_capacity = 8192;
    bool sink_tx = true;  // workers drain their ports' TX back to pool
    /// Per-worker latency histograms: each worker times its bursts
    /// (serialized TSC reads around process_burst + verdict execution) and
    /// records the amortized per-packet cycles.  Off by default — the
    /// serialized reads cost ~2-3x a plain rdtsc per burst, which the pure
    /// throughput benches must not pay.
    bool measure_latency = false;
  };

  /// Controller-bound frames buffered for drain_packet_ins(); later ones are
  /// counted in packet_ins but not kept.
  static constexpr size_t kMaxPendingPacketIns = 1024;
  /// Bounded RX backpressure pause when the buffer pool is exhausted: the
  /// worker ticks its epoch slot, raises its parked flag and sleeps this long
  /// instead of spinning the source loop into a drop storm.
  static constexpr std::chrono::microseconds kBackpressurePause{50};

  using Counters = RuntimeCounters;

  /// One watchdog_scan() pass's findings (cumulative totals in
  /// watchdog_stalled_total() / watchdog_recovered_total()).
  struct WatchdogReport {
    uint32_t stalled = 0;    // workers whose poll counter froze since last scan
    uint32_t recovered = 0;  // parked workers epoch-ticked on their behalf
  };

  /// Per-worker traffic source (bench/generator mode), called on the worker
  /// thread with `n` pool buffers to fill (frame + in_port); returns how many
  /// were filled.  Unfilled buffers go back to the cache.  The filled ones
  /// are injected into the worker's first port and processed by the normal
  /// rx path — the measurement loop pays the same ring costs production
  /// traffic would.
  using SourceFn = std::function<uint32_t(uint32_t worker, net::Packet** bufs,
                                          uint32_t n)>;

  /// Constructs the backend in place from `args` (its config, typically).
  template <typename... Args>
  explicit SwitchRuntime(const Config& cfg = {}, Args&&... args)
      : cfg_(cfg),
        backend_(std::forward<Args>(args)...),
        ports_(cfg.n_ports, cfg.port),
        pool_(cfg.pool_capacity),
        inline_(pool_) {
    ESW_CHECK(cfg_.n_workers >= 1);
  }

  ~SwitchRuntime() { stop(); }
  SwitchRuntime(const SwitchRuntime&) = delete;
  SwitchRuntime& operator=(const SwitchRuntime&) = delete;

  Backend& backend() { return backend_; }
  const Backend& backend() const { return backend_; }
  net::PortSet& ports() { return ports_; }
  net::MbufPool& pool() { return pool_; }
  uint32_t n_workers() const { return cfg_.n_workers; }
  bool running() const { return !workers_.empty(); }

  /// Installs the per-worker traffic source.  Set before start().
  void set_source(SourceFn source) {
    ESW_CHECK_MSG(!running(), "set_source before start()");
    source_ = std::move(source);
  }

  /// Registers the worker contexts and launches the worker threads.  The
  /// control plane (install) must be loaded first; apply/apply_batch remain
  /// legal — that is the point — on this thread while workers run.  Throws
  /// CheckError, with nothing left registered, when the backend refuses a
  /// context.
  void start() {
    ESW_CHECK_MSG(!running(), "already started");
    stop_.store(false, std::memory_order_release);
    workers_.reserve(cfg_.n_workers);
    for (uint32_t i = 0; i < cfg_.n_workers; ++i) {
      auto ws = std::make_unique<WorkerState>(pool_);
      ws->id = i;
      ws->ctx = backend_.register_worker();
      if (ws->ctx == nullptr) {
        for (auto& w : workers_) backend_.unregister_worker(w->ctx);
        workers_.clear();
      }
      ESW_CHECK_MSG(ws->ctx != nullptr, "backend worker limit exceeded");
      assign_ports(*ws, cfg_.n_workers);
      workers_.push_back(std::move(ws));
    }
    for (auto& ws : workers_)
      ws->thread = std::thread([this, w = ws.get()] { worker_main(*w); });
  }

  /// Stops and joins the workers, unregisters their contexts.  Their counters
  /// fold into the retired aggregate so counters() stays monotone across
  /// start/stop cycles.  Idempotent.
  void stop() {
    if (!running()) return;
    stop_.store(true, std::memory_order_release);
    for (auto& ws : workers_) ws->thread.join();
    final_worker_counters_.assign(workers_.size(), Counters{});
    for (auto& ws : workers_) {
      backend_.unregister_worker(ws->ctx);
      ws->stats.add_to(retired_counters_);
      ws->stats.add_to(final_worker_counters_[ws->id]);
      retired_latency_.merge(ws->latency);
    }
    workers_.clear();
  }

  /// Aggregated over all workers (past and, while running, live blocks).
  Counters counters() const {
    Counters sum = retired_counters_;
    inline_.stats.add_to(sum);
    for (const auto& ws : workers_) ws->stats.add_to(sum);
    return sum;
  }
  /// One worker's counter snapshot; worker ids are 0..n_workers-1.  Live
  /// while running; after stop() returns that run's final per-worker totals
  /// (until the next start()).
  Counters worker_counters(uint32_t worker) const {
    if (running()) {
      ESW_CHECK(worker < workers_.size());
      return workers_[worker]->stats.load();
    }
    ESW_CHECK(worker < final_worker_counters_.size());
    return final_worker_counters_[worker];
  }

  /// Merged latency distribution over all workers, past runs included
  /// (cycles; convert with percentiles_ns()).  Exact after stop(); while
  /// running it is a live snapshot, approximate like counters().  Empty
  /// unless Config::measure_latency was on.
  perf::LatencyHistogram latency_histogram() const {
    perf::LatencyHistogram h = retired_latency_;
    h.merge(inline_.latency);
    for (const auto& ws : workers_) h.merge(ws->latency);
    return h;
  }
  /// Zeroes every latency histogram — the warmup/measure boundary.  Workers
  /// keep recording; in-flight bursts may re-add a sample, so the cut is
  /// approximate by one burst per worker (clear_stats() semantics).
  void clear_latency() {
    retired_latency_.clear();
    inline_.latency.clear();
    for (auto& ws : workers_) ws->latency.clear();
  }

  /// Copies a frame into a pool buffer and queues it on the port's RX ring.
  /// Control-thread injection: only for ports whose worker has no source
  /// configured (one RX producer at a time).
  bool inject(uint32_t port_no, const uint8_t* frame, uint32_t len) {
    if (!ports_.valid(port_no)) return false;
    net::Packet* pkt = pool_.alloc();
    if (pkt == nullptr) return false;
    pkt->assign(frame, len);
    pkt->set_in_port(port_no);
    if (ports_.port(port_no).inject_rx(&pkt, 1) != 1) {
      pool_.free(pkt);
      return false;
    }
    return true;
  }

  /// Inline driving: runs the worker round over every port until all RX
  /// rings are empty and returns the number of packets processed.  The
  /// backend context is registered for this call only, and the round's
  /// buffer cache is flushed before it returns, so pool().available() is
  /// exact between polls.
  uint32_t poll() {
    ESW_CHECK_MSG(!running(), "poll() drives the runtime inline: stop() first");
    assign_ports(inline_, 1);
    inline_.ctx = backend_.register_worker();
    ESW_CHECK_MSG(inline_.ctx != nullptr, "backend worker limit exceeded");
    net::Packet* burst[net::kBurstSize];
    flow::Verdict verdicts[net::kBurstSize];
    uint32_t processed = 0, n;
    do {
      inline_.stats.bump(&Counters::polls, 1);
      n = run_round(inline_, burst, verdicts);
      processed += n;
    } while (n > 0);
    backend_.unregister_worker(inline_.ctx);
    inline_.ctx = nullptr;
    inline_.cache.flush();
    return processed;
  }

  /// Inline driving: executes a controller-originated PACKET_OUT.  The frame
  /// runs through the action list (set-fields and all) and the resulting
  /// verdict is executed as a burst of one, so a flood follows the runtime's
  /// rules and the Counters identity holds.  False when no buffer is
  /// available.
  bool packet_out(const uint8_t* frame, uint32_t len, uint32_t in_port,
                  const flow::ActionList& actions) {
    ESW_CHECK_MSG(!running(), "packet_out() drives the runtime inline: stop() first");
    net::Packet* pkt = pool_.alloc();
    if (pkt == nullptr) {
      inline_.stats.bump(&Counters::pool_exhausted, 1);
      return false;
    }
    pkt->assign(frame, len);
    pkt->set_in_port(in_port);
    proto::ParseInfo pi;
    proto::parse(pkt->data(), pkt->len(), proto::ParserPlan::full(), pi);
    pi.in_port = in_port;
    flow::ActionSetBuilder as;
    as.merge(actions);
    const flow::Verdict v = as.execute(*pkt, pi);
    assign_ports(inline_, 1);
    execute_burst(inline_, &pkt, &v, 1);
    inline_.cache.flush();
    return true;
  }

  /// Drains a port's whole TX ring back into the pool and returns the count
  /// (the wire, for callers that run with sink_tx off and do not inspect
  /// frames).  Inline only: no worker may be draining TX.
  uint32_t drain_and_release_tx(uint32_t port_no) {
    ESW_CHECK_MSG(!running(), "drain_and_release_tx() is inline-only: stop() first");
    net::Packet* out[net::kBurstSize];
    uint32_t total = 0, n;
    while ((n = ports_.port(port_no).drain_tx(out, net::kBurstSize)) > 0) {
      for (uint32_t i = 0; i < n; ++i) pool_.free(out[i]);
      total += n;
    }
    return total;
  }

  /// Takes the buffered controller-bound frames (control thread).
  std::vector<RuntimePacketIn> drain_packet_ins() {
    std::lock_guard<std::mutex> lock(pin_mu_);
    return std::exchange(pending_pins_, {});
  }

  /// Control-thread liveness sweep.  A worker whose poll counter has not
  /// moved since the previous scan is stalled — blocked in a syscall, wedged
  /// on a failpoint, or descheduled long enough to matter.  A stalled-but-
  /// parked worker declared itself pointer-free (backpressure pause), so the
  /// watchdog can safely tick its epoch slot on its behalf and unpin the
  /// reclamation horizon; that is counted as a recovery.  Call periodically
  /// (the soak harness does, each checkpoint); the first scan after start()
  /// only baselines and reports nothing.
  WatchdogReport watchdog_scan() {
    WatchdogReport rep;
    if (!running()) {
      last_polls_.clear();
      return rep;
    }
    const bool baselined = last_polls_.size() == workers_.size();
    if (!baselined) last_polls_.assign(workers_.size(), 0);
    for (size_t i = 0; i < workers_.size(); ++i) {
      WorkerState& ws = *workers_[i];
      const uint64_t polls = ws.stats.load(&Counters::polls);
      const bool frozen = baselined && polls == last_polls_[i];
      last_polls_[i] = polls;
      if (!frozen) continue;
      ++rep.stalled;
      if (ws.parked.load(std::memory_order_acquire)) {
        backend_.quiesce(*ws.ctx);
        ++rep.recovered;
      }
    }
    watchdog_stalled_ += rep.stalled;
    watchdog_recovered_ += rep.recovered;
    return rep;
  }
  /// Cumulative watchdog findings across all scans.
  uint64_t watchdog_stalled_total() const { return watchdog_stalled_; }
  uint64_t watchdog_recovered_total() const { return watchdog_recovered_; }

 private:
  /// One egress port's frames of the burst being executed, in packet order.
  struct TxBucket {
    uint32_t n = 0;
    net::Packet* pkts[net::kBurstSize];
  };

  struct WorkerState {
    explicit WorkerState(net::MbufPool& pool) : cache(pool) {}
    uint32_t id = 0;
    typename Backend::Worker* ctx = nullptr;
    std::vector<uint32_t> owned_ports;
    net::MbufCache cache;
    std::vector<TxBucket> tx;           // indexed by port number
    std::vector<uint32_t> tx_touched;   // ports with a non-empty bucket, first-touch order
    // Raised while the worker provably holds no datapath pointers (bounded
    // backpressure sleep, or the worker_stall failpoint).  The watchdog may
    // tick a parked worker's epoch slot on its behalf.
    std::atomic<bool> parked{false};
    // Single-writer (this worker); merged/read by the control thread.
    perf::LatencyHistogram latency;
    std::thread thread;
    // Single-writer (this worker); aggregated by counters() readers.  Last
    // and aligned, so the block has its cache lines to itself.
    alignas(64) common::CounterCells<Counters> stats;
  };

  /// Port `no` belongs to worker (no - kFirstPort) % n_workers, so the
  /// inline worker (id 0 of 1) owns every port.  Sizes the TX buckets to
  /// the panel.
  void assign_ports(WorkerState& ws, uint32_t n_workers) {
    ws.owned_ports.clear();
    ws.tx.resize(net::PortSet::kFirstPort + ports_.size());
    ws.tx_touched.reserve(ports_.size());
    for (uint32_t no = net::PortSet::kFirstPort;
         no < net::PortSet::kFirstPort + ports_.size(); ++no)
      if ((no - net::PortSet::kFirstPort) % n_workers == ws.id)
        ws.owned_ports.push_back(no);
  }

  void worker_main(WorkerState& ws) {
    net::Packet* burst[net::kBurstSize];
    flow::Verdict verdicts[net::kBurstSize];
    while (!stop_.load(std::memory_order_acquire)) {
      if (ESW_FAILPOINT("runtime.worker_stall")) {
        // A worker wedged mid-loop (blocked syscall, livelock): it parks —
        // it holds no datapath pointers here — but deliberately does NOT
        // tick its epoch slot, so only the watchdog's quiesce-on-parked
        // recovery unpins the reclamation horizon.
        ws.parked.store(true, std::memory_order_release);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        ws.parked.store(false, std::memory_order_release);
      }
      ws.stats.bump(&Counters::polls, 1);
      uint32_t did = 0;
      if (source_ && !ws.owned_ports.empty()) did += pull_source(ws);
      did += run_round(ws, burst, verdicts);
      if (did == 0) std::this_thread::yield();
    }
    ws.cache.flush();
  }

  /// The worker round, shared by worker_main and poll(): one burst from each
  /// owned RX ring through the backend and verdict execution, then (sink_tx)
  /// the owned TX rings back into the cache.  `burst`/`verdicts` are the
  /// caller's kBurstSize scratch.  Returns the packets processed.
  uint32_t run_round(WorkerState& ws, net::Packet** burst, flow::Verdict* verdicts) {
    uint32_t did = 0;
    for (const uint32_t no : ws.owned_ports) {
      net::Port& p = ports_.port(no);
      const uint32_t n = p.rx_burst(burst, net::kBurstSize);
      if (n == 0) continue;
      if (cfg_.measure_latency) {
        // Time the full switch residency of the burst — classification
        // plus verdict execution (TX enqueue / flood / handoff) — and
        // record the amortized per-packet cycles, weighted by the burst.
        const uint64_t t0 = rdtsc_serialized();
        backend_.process_burst(*ws.ctx, burst, n, verdicts);
        execute_burst(ws, burst, verdicts, n);
        const uint64_t dt = rdtsc_serialized() - t0;
        ws.latency.record_n(dt / n, n);
      } else {
        backend_.process_burst(*ws.ctx, burst, n, verdicts);
        execute_burst(ws, burst, verdicts, n);
      }
      did += n;
    }
    if (cfg_.sink_tx) {
      for (const uint32_t no : ws.owned_ports) {
        net::Packet* out[net::kBurstSize];
        uint32_t n;
        while ((n = ports_.port(no).drain_tx(out, net::kBurstSize)) > 0)
          for (uint32_t i = 0; i < n; ++i) ws.cache.free(out[i]);
      }
    }
    return did;
  }

  /// Generator mode: hand the source up to a burst of buffers, inject the
  /// filled ones into this worker's first port (we are its only RX producer).
  uint32_t pull_source(WorkerState& ws) {
    net::Packet* bufs[net::kBurstSize];
    uint32_t got = 0;
    while (got < net::kBurstSize) {
      net::Packet* p = ws.cache.alloc();
      if (p == nullptr) break;
      bufs[got++] = p;
    }
    if (got == 0) {
      ws.stats.bump(&Counters::pool_exhausted, 1);
      backpressure_pause(ws);
      return 0;
    }
    const uint32_t filled = source_(ws.id, bufs, got);
    net::Port& p = ports_.port(ws.owned_ports.front());
    const uint32_t accepted = filled > 0 ? p.inject_rx(bufs, filled) : 0;
    for (uint32_t i = accepted; i < got; ++i) ws.cache.free(bufs[i]);
    ws.stats.bump(&Counters::source_packets, accepted);
    return accepted;
  }

  /// Bounded RX backpressure: the pool is dry, so spinning the source only
  /// burns cycles and drops.  Tick the epoch slot first (downstream frees —
  /// TX sinks, reclamation — are what refill the pool), declare the worker
  /// parked and sleep briefly.  Parked means "holds no datapath pointers":
  /// the watchdog may quiesce on our behalf if we wedge here.
  void backpressure_pause(WorkerState& ws) {
    ws.stats.bump(&Counters::backpressure_events, 1);
    backend_.quiesce(*ws.ctx);
    ws.parked.store(true, std::memory_order_release);
    std::this_thread::sleep_for(kBackpressurePause);
    ws.parked.store(false, std::memory_order_release);
  }

  /// Executes a burst's verdicts.  Frames bound for a port are staged in
  /// that port's bucket in packet order (stable), then each touched port
  /// gets one multi-producer enqueue — one CAS on the shared ring index per
  /// port per burst instead of one per packet.  A refused suffix is freed
  /// and counted in tx_rejected.  A flood sends the original frame to the
  /// first egress port and a copy to every further one (no egress port at
  /// all counts as a drop), which keeps the Counters identity exact.
  /// Counters are bumped once per burst.
  void execute_burst(WorkerState& ws, net::Packet* const* pkts,
                     const flow::Verdict* verdicts, uint32_t n) {
    Counters d;
    const auto stage = [&ws](uint32_t port_no, net::Packet* pkt) {
      TxBucket& b = ws.tx[port_no];
      if (b.n == 0) ws.tx_touched.push_back(port_no);
      ESW_DCHECK(b.n < net::kBurstSize);  // at most one frame per packet
      b.pkts[b.n++] = pkt;
    };
    for (uint32_t i = 0; i < n; ++i) {
      net::Packet* pkt = pkts[i];
      const flow::Verdict& v = verdicts[i];
      switch (v.kind) {
        case flow::Verdict::Kind::kOutput:
          if (ports_.valid(v.port)) {
            stage(v.port, pkt);
          } else {
            ++d.bad_port;
            ws.cache.free(pkt);
          }
          break;
        case flow::Verdict::Kind::kFlood: {
          // Copies are taken while the original is still only staged: no
          // frame of this burst reaches a ring before the loop ends.
          const uint32_t ingress = pkt->in_port();
          bool original_sent = false;
          for (uint32_t no = net::PortSet::kFirstPort;
               no < net::PortSet::kFirstPort + ports_.size(); ++no) {
            if (no == ingress) continue;
            if (!original_sent) {
              stage(no, pkt);
              original_sent = true;
              continue;
            }
            net::Packet* copy = ws.cache.alloc();
            if (copy == nullptr) {
              ++d.pool_exhausted;
              continue;
            }
            copy->assign(pkt->data(), pkt->len());
            copy->set_in_port(ingress);
            stage(no, copy);
            ++d.flood_copies;
          }
          if (!original_sent) {
            ++d.drops;
            ws.cache.free(pkt);
          }
          break;
        }
        case flow::Verdict::Kind::kController: {
          ++d.packet_ins;
          {
            std::lock_guard<std::mutex> lock(pin_mu_);
            if (pending_pins_.size() < kMaxPendingPacketIns)
              pending_pins_.push_back(
                  {{pkt->data(), pkt->data() + pkt->len()}, pkt->in_port()});
          }
          ws.cache.free(pkt);
          break;
        }
        case flow::Verdict::Kind::kDrop:
          ++d.drops;
          ws.cache.free(pkt);
          break;
      }
    }
    for (const uint32_t no : ws.tx_touched) {
      TxBucket& b = ws.tx[no];
      const uint32_t accepted = ports_.port(no).tx_burst_mp(b.pkts, b.n);
      d.tx_packets += accepted;
      d.tx_rejected += b.n - accepted;
      for (uint32_t j = accepted; j < b.n; ++j) ws.cache.free(b.pkts[j]);
      b.n = 0;
    }
    ws.tx_touched.clear();
    d.processed = n;
    ws.stats.bump(d);
  }

  Config cfg_;
  Backend backend_;
  net::PortSet ports_;
  net::MbufPool pool_;
  SourceFn source_;
  WorkerState inline_;  // poll()/packet_out()'s worker: owns every port
  std::vector<std::unique_ptr<WorkerState>> workers_;
  Counters retired_counters_;  // folded-in blocks of stopped workers
  std::vector<Counters> final_worker_counters_;  // last run's per-worker totals
  perf::LatencyHistogram retired_latency_;       // merged at stop()
  std::atomic<bool> stop_{false};
  std::mutex pin_mu_;
  std::vector<RuntimePacketIn> pending_pins_;
  std::vector<uint64_t> last_polls_;  // watchdog baseline (control thread only)
  uint64_t watchdog_stalled_ = 0;
  uint64_t watchdog_recovered_ = 0;
};

}  // namespace esw::core
