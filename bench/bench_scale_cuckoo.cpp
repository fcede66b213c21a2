// Million-flow scale curve (tab02-style, Iterations(1)): the resizable
// cuckoo table built to 100K / 1M / 4M entries from an empty start, growing
// the whole way — the control-plane shape a controller session produces,
// not a presized bulk load.
//
// Reported per point: `build_seconds` (inserts, including every grow's
// rebuild and view swap the load triggers), `lookups_per_s` over the
// prefetch-pipelined bulk probe path (lookup_burst, the burst datapath's
// access pattern), `lines_per_lookup` (distinct cache lines a scalar probe
// touches, sampled via MemTrace), `memory_bytes` (slot arrays + live entry
// blobs), and the `grows`/`reseeds` the build took.  The CI gate holds
// `lines_per_lookup` flat from 100K to 1M — O(1) probe work as the table
// scales is the claim this template makes; wall rates are additionally
// cliff-guarded, since they shift with the cache regime the table size
// lands in.
//
// Runs single-threaded with immediate reclamation (no EpochDomain): reader
// safety under concurrent churn is test_cuckoo's job; this bench isolates
// the scale curve.  ESW_SCALE_LOOKUP_MS sizes the probe window.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <vector>

#include "cls/cuckoo.hpp"
#include "common/bits.hpp"
#include "common/memtrace.hpp"

namespace {

using namespace esw;
using Clock = std::chrono::steady_clock;

double env_double(const char* name, double fallback) {
  const char* s = std::getenv(name);
  return s != nullptr && std::atof(s) > 0 ? std::atof(s) : fallback;
}

/// 8-byte key blob for flow index `i` (distinct for all i < 2^64).
uint64_t key_of(uint64_t i) { return mix64(i ^ 0x5CA1EULL); }

void BM_Scale_CuckooMillionFlow(benchmark::State& state) {
  const size_t n_entries = static_cast<size_t>(state.range(0));
  const double lookup_ms = env_double("ESW_SCALE_LOOKUP_MS", 200);

  for (auto _ : state) {
    cls::CuckooTable t;  // default 1024 buckets: every point grows to size

    const auto b0 = Clock::now();
    for (size_t i = 0; i < n_entries; ++i) {
      const uint64_t k = key_of(i);
      t.insert(reinterpret_cast<const uint8_t*>(&k), sizeof(k), i);
    }
    const double build_seconds =
        std::chrono::duration<double>(Clock::now() - b0).count();

    // Probe loop: pseudo-random present keys through the prefetch-pipelined
    // bulk path (lookup_burst) — a lane of misses in flight at once, the
    // access pattern a burst datapath produces.  The memory-level
    // parallelism is what keeps the rate comparable across table sizes that
    // do/don't fit in cache (the CI gate's premise).
    constexpr uint32_t kChunk = 1024;
    std::vector<uint64_t> keys(kChunk);
    std::vector<const uint8_t*> key_ptrs(kChunk);
    std::vector<uint32_t> lens(kChunk, sizeof(uint64_t));
    std::vector<cls::CuckooTable::Value> vals(kChunk);
    const auto hits_buf = std::make_unique<bool[]>(kChunk);
    for (uint32_t j = 0; j < kChunk; ++j)
      key_ptrs[j] = reinterpret_cast<const uint8_t*>(&keys[j]);
    uint64_t probes = 0, misses = 0, probe_seq = 0;
    const auto t0 = Clock::now();
    const auto t_end = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double, std::milli>(lookup_ms));
    while (Clock::now() < t_end) {
      for (uint32_t j = 0; j < kChunk; ++j)
        keys[j] = key_of(mix64(probe_seq + j) % n_entries);
      const uint32_t hits = t.lookup_burst(key_ptrs.data(), lens.data(), kChunk,
                                           vals.data(), hits_buf.get());
      misses += kChunk - hits;  // expect 0: every probe key was inserted
      probes += kChunk;
      probe_seq += kChunk;
    }
    const double dt = std::chrono::duration<double>(Clock::now() - t0).count();

    // Algorithmic probe cost: distinct cache lines touched per scalar
    // lookup, sampled via MemTrace.  Wall rates shift with the cache regime
    // (an L3-resident 100K table vs a DRAM-resident 1M one differ by memory
    // latency, not by the algorithm), so the CI gate holds *this* flat
    // across sizes: O(1) probes is the claim the cuckoo template makes.
    MemTrace trace;
    uint64_t lines = 0;
    constexpr uint32_t kSamples = 4096;
    for (uint32_t j = 0; j < kSamples; ++j) {
      const uint64_t k = key_of(mix64(j * 911) % n_entries);
      trace.clear();
      (void)t.lookup(reinterpret_cast<const uint8_t*>(&k), sizeof(k), &trace);
      std::vector<uintptr_t> ls = trace.lines();
      std::sort(ls.begin(), ls.end());
      lines += static_cast<uint64_t>(std::unique(ls.begin(), ls.end()) - ls.begin());
    }

    state.counters["entries"] = static_cast<double>(t.size());
    state.counters["lines_per_lookup"] =
        static_cast<double>(lines) / static_cast<double>(kSamples);
    state.counters["build_seconds"] = build_seconds;
    state.counters["lookups_per_s"] = static_cast<double>(probes) / dt;
    state.counters["lookup_misses"] = static_cast<double>(misses);
    state.counters["memory_bytes"] = static_cast<double>(t.memory_bytes());
    state.counters["grows"] = static_cast<double>(t.grows());
    state.counters["reseeds"] = static_cast<double>(t.reseeds());
  }
}
BENCHMARK(BM_Scale_CuckooMillionFlow)
    ->Arg(100000)
    ->Arg(1000000)
    ->Arg(4000000)
    ->ArgName("entries")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->UseRealTime();

}  // namespace
