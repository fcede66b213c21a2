#include "netio/port.hpp"

#include "common/counters.hpp"

namespace esw::net {

namespace {
// Port counters can be multi-writer (TX fan-in from several workers).
using common::counter_add;

/// Byte accounting must be gathered *before* the enqueue: the moment a packet
/// is published to a ring its ownership is the consumer's, which may drain,
/// free and recycle the buffer while this thread still holds the pointer.
/// `cum[i]` = bytes of the first i packets, so the accepted prefix is `cum[acc]`.
struct PrefixBytes {
  uint64_t cum[kBurstSize + 1];
  uint32_t count;
  PrefixBytes(Packet* const* pkts, uint32_t n) {
    count = n < kBurstSize ? n : kBurstSize;
    cum[0] = 0;
    for (uint32_t i = 0; i < count; ++i) cum[i + 1] = cum[i] + pkts[i]->len();
  }
};

/// Enqueues in kBurstSize chunks so the pre-read stays stack-bounded for any
/// caller-supplied n.
template <typename EnqueueFn>
uint32_t enqueue_counted(Packet* const* pkts, uint32_t n, EnqueueFn&& enq,
                         std::atomic<uint64_t>& pkt_ctr,
                         std::atomic<uint64_t>& byte_ctr) {
  uint32_t done = 0, accepted = 0;
  uint64_t bytes = 0;
  while (done < n) {
    const PrefixBytes pb(pkts + done, n - done);
    const uint32_t acc = enq(pkts + done, pb.count);
    accepted += acc;
    bytes += pb.cum[acc];
    done += pb.count;
    if (acc < pb.count) break;
  }
  counter_add(pkt_ctr, accepted);
  counter_add(byte_ctr, bytes);
  return accepted;
}
}  // namespace

Port::Port(const Config& cfg)
    : name_(cfg.name), rx_(cfg.ring_size), tx_(cfg.ring_size) {}

uint32_t Port::inject_rx(Packet* const* pkts, uint32_t n) {
  return enqueue_counted(
      pkts, n, [this](Packet* const* p, uint32_t c) { return rx_.enqueue_burst(p, c); },
      rx_counters_.packets, rx_counters_.bytes);
}

uint32_t Port::rx_burst(Packet** out, uint32_t n) { return rx_.dequeue_burst(out, n); }

uint32_t Port::tx_burst_mp(Packet* const* pkts, uint32_t n) {
  const uint32_t queued = enqueue_counted(
      pkts, n,
      [this](Packet* const* p, uint32_t c) { return tx_.enqueue_burst_mp(p, c); },
      tx_counters_.packets, tx_counters_.bytes);
  counter_add(tx_counters_.drops, n - queued);
  return queued;
}

uint32_t Port::drain_tx(Packet** out, uint32_t n) { return tx_.dequeue_burst(out, n); }

}  // namespace esw::net
