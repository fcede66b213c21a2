// The benchmark's four workloads: pipeline, compiler configuration, traffic
// (sharded per worker), FLOW_MOD write stream and offered load.  Everything is
// derived from the run seed; the switch only ever sees the generated inputs.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "flow/pipeline.hpp"
#include "flow/wire.hpp"
#include "netio/pktgen.hpp"

namespace e2e {

/// Packet workers in every e2e run (plus the control thread and, in the
/// latency phase, the paced load thread: four threads on four vCPUs).
inline constexpr uint32_t kWorkers = 2;

/// The latency phase's open-loop rate, the same for every workload: light
/// load (an eighth to a third of their capacity here), so the median times
/// the packet path rather than queueing, which swings with whatever else
/// the host runs.
inline constexpr double kOfferedMpps = 1.0;

inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"gateway", "l2_1m", "lb", "ct_fw"};
  return names;
}

/// Faults the negative tests plant; each must trip its own check.
struct Faults {
  bool too_few_ports = false;   // one port short of the pipeline's outputs
  bool table_capacity = false;  // table_capacity refuses the write stream's adds
  bool flip_verdict = false;    // one expected verdict flipped
  bool count_mismatch = false;  // traced pass B loses one lookup
};

struct Workload {
  std::string name;
  esw::flow::Pipeline pipeline;
  esw::core::CompilerConfig cfg;
  /// Traffic, one shard per worker.  A connection never spans shards, so a
  /// shard's packets stay in order on the worker that owns it.
  std::vector<esw::net::TrafficSet> shards;
  uint32_t n_ports = 0;     // highest output port of pipeline and write stream
  double batches_per_s = 0;
  /// Write-stream batch `k`: FLOW_MODs on rules the traffic never matches, so
  /// expected verdicts hold while the stream runs.
  std::function<std::vector<esw::flow::FlowMod>(uint64_t k)> batch;
  /// 1 in `fresh_syn_every` packets is a fresh SYN (0 = none), see fresh_syn().
  uint32_t fresh_syn_every = 0;

  /// DiffRunner pre-flight inputs: a 1,024-packet sample, and the pipeline
  /// and config it runs against (a projection when the full table is too big
  /// for the OVS leg's install).
  esw::flow::Pipeline diff_pipeline;
  esw::core::CompilerConfig diff_cfg;
  std::vector<esw::net::FlowSpec> diff_sample;

  /// Writes fresh SYN number `n` of worker `w` into `pkt`: a tuple no other
  /// packet of the run carries, so the connection it commits is never seen
  /// again and expires.
  void fresh_syn(uint64_t n, uint32_t w, esw::net::Packet& pkt) const;

 private:
  friend Workload make_workload(const std::string&, uint64_t, const Faults&);
  std::vector<uint8_t> syn_template_;
};

/// Builds workload `name` from `seed`.  Throws std::invalid_argument for an
/// unknown name.
Workload make_workload(const std::string& name, uint64_t seed, const Faults& faults);

/// Sequential reader over one worker's shard: the shard's frames in order,
/// with a fresh SYN in place of every `fresh_syn_every`-th packet.
class ShardFeed {
 public:
  /// Index next() returns for a fresh SYN (verdict tables append it last).
  static constexpr uint32_t kFresh = UINT32_MAX;

  ShardFeed(const Workload& wl, uint32_t worker);
  /// Loads the next packet into `pkt`; returns its shard frame index or kFresh.
  uint32_t next(esw::net::Packet& pkt);

 private:
  const Workload* wl_;
  const esw::net::TrafficSet* ts_;
  uint32_t worker_;
  size_t cursor_ = 0;
  uint32_t until_fresh_;
  uint64_t fresh_n_ = 1;  // 0 is the reference pass's probe tuple
};

}  // namespace e2e
