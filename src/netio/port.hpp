// Switch port backed by RX/TX rings with counters.  A full TX ring
// tail-drops, the way a saturated NIC does.
//
// Threading (the multi-worker runtime's shape):
//   * RX side — one producer (the injector) and one consumer (the worker the
//     port is sharded to);
//   * TX side — any number of producers via tx_burst_mp (verdict execution
//     on any worker may output here), one drainer;
//   * counters — relaxed atomics updated once per burst and aggregated only
//     by readers (counters()/PortSet::totals()); RX and TX each sit on their
//     own cache line, so the injector and the TX producers never share one,
//     nor do hot bursts share a counter line with another port.
#pragma once

#include <cstdint>
#include <string>

#include "common/counters.hpp"
#include "netio/ring.hpp"

namespace esw::net {

struct PortCounters {
  uint64_t rx_packets = 0;
  uint64_t tx_packets = 0;
  uint64_t rx_bytes = 0;
  uint64_t tx_bytes = 0;
  uint64_t tx_drops = 0;  // ring-full drops
};

class Port {
 public:
  struct Config {
    uint32_t ring_size = 1024;
    std::string name = "port";
  };

  Port() : Port(Config{}) {}
  explicit Port(const Config& cfg);

  /// Injects packets into the RX side (what a NIC DMA would do).  Single
  /// producer at a time.
  uint32_t inject_rx(Packet* const* pkts, uint32_t n);

  /// Polls up to `n` received packets (poll-mode driver model).  Single
  /// consumer — the worker owning this port.
  uint32_t rx_burst(Packet** out, uint32_t n);

  /// Transmits a burst; returns packets accepted.  Packets a full ring
  /// refuses are counted as tx_drops and NOT enqueued — the caller still
  /// owns them.  Multi-producer: safe from any number of workers
  /// concurrently.
  uint32_t tx_burst_mp(Packet* const* pkts, uint32_t n);

  /// Drains up to `n` transmitted packets (what the wire would carry).
  /// Single drainer.
  uint32_t drain_tx(Packet** out, uint32_t n);

  /// Counter snapshot (relaxed-aggregated; exact once producers pause).
  PortCounters counters() const {
    const RxCounts rx = rx_counters_.load();
    const TxCounts tx = tx_counters_.load();
    return {rx.packets, tx.packets, rx.bytes, tx.bytes, tx.drops};
  }
  const std::string& name() const { return name_; }

 private:
  /// One direction's counters, each block on its own line so a burst's
  /// counter flush never false-shares with the other direction, the adjacent
  /// port's counters or the ring indexes.  RX is written by the port's single
  /// injector, TX by every worker's MP enqueue, so both flush with add().
  struct RxCounts {
    uint64_t packets = 0;
    uint64_t bytes = 0;
  };
  struct TxCounts {
    uint64_t packets = 0;
    uint64_t bytes = 0;
    uint64_t drops = 0;
  };

  std::string name_;
  Ring rx_;
  Ring tx_;
  alignas(64) common::CounterCells<RxCounts> rx_counters_;
  alignas(64) common::CounterCells<TxCounts> tx_counters_;
};

}  // namespace esw::net
