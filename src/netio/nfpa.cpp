#include "netio/nfpa.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.hpp"

namespace esw::net {

namespace {

/// The one timed loop: per call, `load(i)` fills the `Width` buffers behind
/// `ptrs` (`i` counts the packets the current phase, warmup or window, has
/// handed out) and `fn(ptrs, Width)` processes them.
template <uint32_t Width, typename Load, typename Fn>
RunStats replay(const Load& load, Packet* const* ptrs, const Fn& fn, const RunOpts& opts) {
  constexpr uint32_t kCallsPerCheck = 1024 / Width;  // calls between clock checks
  static_assert(kCallsPerCheck * Width == 1024);

  // Warmup: populate caches (and, for a flow-caching switch, its flow caches
  // — the paper's steady-state measurements do the same).
  for (uint64_t w = 0; w < opts.warmup_packets; w += Width) {
    load(w);
    fn(ptrs, Width);
  }

  const uint32_t sample_every_calls =
      opts.latency_sample_every == 0
          ? 0
          : std::max<uint32_t>(1, opts.latency_sample_every / Width);

  RunStats st;
  const auto t0 = std::chrono::steady_clock::now();
  const uint64_t c0 = rdtsc();
  uint64_t calls = 0;
  for (;;) {
    for (uint32_t k = 0; k < kCallsPerCheck; ++k, ++calls) {
      load(calls * Width);
      if (sample_every_calls != 0 && calls % sample_every_calls == 0) {
        // Serialized reads on both ends: plain back-to-back rdtsc can
        // reorder around the short timed region (see common/tsc.hpp).
        const uint64_t s = rdtsc_serialized();
        fn(ptrs, Width);
        st.latency.record_n((rdtsc_serialized() - s) / Width, Width);
      } else {
        fn(ptrs, Width);
      }
    }
    st.packets = calls * Width;
    st.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (st.packets >= opts.min_packets && st.seconds >= opts.min_seconds) break;
  }
  const uint64_t c1 = rdtsc();

  st.pps = static_cast<double>(st.packets) / st.seconds;
  st.cycles_per_pkt = static_cast<double>(c1 - c0) / static_cast<double>(st.packets);
  return st;
}

}  // namespace

RunStats run_loop_burst(const TrafficSet& traffic, const BurstFn& fn,
                        const RunOpts& opts) {
  // The buffers model the mbuf array a DPDK rx_burst fills; heap-held
  // because kBurstSize packets are 64 KiB.
  std::vector<Packet> bufs(kBurstSize);
  Packet* ptrs[kBurstSize];
  for (uint32_t b = 0; b < kBurstSize; ++b) ptrs[b] = &bufs[b];
  size_t cursor = 0;  // division-free round-robin, continued from the warmup
  const auto load = [&](uint64_t) {
    for (uint32_t b = 0; b < kBurstSize; ++b) traffic.load_next(cursor, bufs[b]);
  };
  return replay<kBurstSize>(load, ptrs, fn, opts);
}

RunStats run_loop(const TrafficSet& traffic, const std::function<void(Packet&)>& fn,
                  const RunOpts& opts) {
  // Indexed loader (one division per packet), window from frame 0.
  Packet pkt;
  Packet* const ptr = &pkt;
  return replay<1>([&](uint64_t i) { traffic.load(i, pkt); }, &ptr,
                   [&](Packet* const*, uint32_t) { fn(pkt); }, opts);
}

ReplaySource::ReplaySource(std::vector<TrafficSet> shards)
    : sets_(std::move(shards)), cursors_(sets_.size()) {
  ESW_CHECK(!sets_.empty());
}

ReplaySource::ReplaySource(TrafficSet capture, uint32_t n_workers) : cursors_(n_workers) {
  sets_.push_back(std::move(capture));
}

}  // namespace esw::net
