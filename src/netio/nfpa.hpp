// Packet-replay harness, named for the paper's Network Function Performance
// Analyzer (NFPA) testbed.  One timed loop replays a TrafficSet through a
// packet-processing function and reports packet rate, per-packet cycles and
// a latency histogram; one traffic source replays the same TrafficSets into
// a running core::SwitchRuntime's workers.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/tsc.hpp"
#include "netio/pktgen.hpp"
#include "perf/latency.hpp"

namespace esw::net {

struct RunStats {
  uint64_t packets = 0;
  double seconds = 0;
  double pps = 0;
  double cycles_per_pkt = 0;
  /// Sampled per-packet latency distribution, in TSC cycles (serialized
  /// reads, see common/tsc.hpp).  A sampled call records its cycles divided
  /// by the packets it handled, weighted by that count: one sample per timed
  /// packet on run_loop, a burst's amortized per-packet latency on
  /// run_loop_burst.  Convert with percentiles_ns().
  perf::LatencyHistogram latency;
};

struct RunOpts {
  double min_seconds = 0.25;   // measure at least this long
  uint64_t min_packets = 20000;
  uint64_t warmup_packets = 2000;
  /// Sample one latency measurement per this many packets (the serialized
  /// TSC reads cost ~2-3x a plain rdtsc, so the throughput loops sample).
  /// 1 = time every call (the latency figures); 0 = no latency capture.
  uint32_t latency_sample_every = 64;
};

/// A burst processor: handles `n` (≤ kBurstSize) packets run-to-completion.
/// Verdict delivery is the processor's business — the harness only measures.
using BurstFn = std::function<void(Packet* const*, uint32_t n)>;

/// Replays `traffic` round-robin in kBurstSize batches through `fn` (the
/// DPDK-style rx_burst → process → tx_burst shape).  The std::function
/// indirection and the clock/latency sampling are paid once per burst.
RunStats run_loop_burst(const TrafficSet& traffic, const BurstFn& fn,
                        const RunOpts& opts = {});

/// The same loop one packet per call, fed by the indexed loader
/// (`TrafficSet::load`, one division per packet) whose measured window
/// starts again at frame 0; run_loop_burst's cursor carries on from the
/// warmup.  The per-packet figures (Fig. 16, Table 1, the burst row's
/// mode 0) are calibrated on this loader; docs/BENCHMARKS.md, "The
/// burst-vs-burst-of-one bench".
RunStats run_loop(const TrafficSet& traffic, const std::function<void(Packet&)>& fn,
                  const RunOpts& opts = {});

/// Traffic source for core::SwitchRuntime::set_source: fills each worker's
/// buffers round-robin from either one TrafficSet per worker (shards) or one
/// TrafficSet that every worker replays from its own cursor (a shared
/// capture), and stamps in_port = 1 + worker, the worker's first port under
/// the runtime's round-robin sharding.  Each cursor sits on its own cache
/// line: the workers advance them once per packet, concurrently.
class ReplaySource {
 public:
  /// Shards: worker w replays `shards[w]`.
  explicit ReplaySource(std::vector<TrafficSet> shards);
  /// Shared capture: each of `n_workers` workers replays all of `capture`.
  ReplaySource(TrafficSet capture, uint32_t n_workers);

  /// The SourceFn contract: fills all `n` buffers and returns `n`.
  uint32_t operator()(uint32_t worker, Packet** bufs, uint32_t n) {
    const TrafficSet& ts = sets_.size() == 1 ? sets_[0] : sets_[worker];
    size_t& cur = cursors_[worker].v;
    for (uint32_t i = 0; i < n; ++i) {
      ts.load_next(cur, *bufs[i]);
      bufs[i]->set_in_port(1 + worker);
    }
    return n;
  }

 private:
  struct alignas(64) Cursor {
    size_t v = 0;
  };
  std::vector<TrafficSet> sets_;
  std::vector<Cursor> cursors_;
};

}  // namespace esw::net
