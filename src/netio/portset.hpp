// A switch's port panel: densely numbered virtual ports (vector-backed), the
// substrate the switch runtime (`core::SwitchRuntime`) executes verdicts against.
// Port numbers are OpenFlow port numbers starting at 1 (0 and the reserved
// 0xffffff00+ range are never valid physical ports).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "netio/port.hpp"

namespace esw::net {

class PortSet {
 public:
  /// First valid physical port number (OpenFlow numbers ports from 1).
  static constexpr uint32_t kFirstPort = 1;

  PortSet() = default;
  /// Creates ports 1..n, all with the same configuration (names get a
  /// "-<id>" suffix).
  explicit PortSet(uint32_t n, const Port::Config& cfg = {});

  /// Appends one port; returns its port number.
  uint32_t add_port(const Port::Config& cfg = {});

  uint32_t size() const { return static_cast<uint32_t>(ports_.size()); }
  bool valid(uint32_t port_no) const {
    return port_no >= kFirstPort && port_no < kFirstPort + size();
  }

  Port& port(uint32_t port_no) { return *ports_[index(port_no)]; }
  const Port& port(uint32_t port_no) const { return *ports_[index(port_no)]; }

  /// Invokes fn(port_no, Port&) for every port except `skip` (pass 0 to visit
  /// all) — the flood fan-out shape: every port except ingress.
  template <typename Fn>
  void for_each_except(uint32_t skip, Fn&& fn) {
    for (uint32_t no = kFirstPort; no < kFirstPort + size(); ++no)
      if (no != skip) fn(no, *ports_[index(no)]);
  }

  /// Aggregate counters over all ports.  Pure read-side aggregation: each
  /// port keeps its own cacheline-padded counter block (no shared aggregate
  /// line for hot bursts to contend on), summed only here.
  PortCounters totals() const;

 private:
  uint32_t index(uint32_t port_no) const {
    ESW_CHECK_MSG(valid(port_no), "invalid port number");
    return port_no - kFirstPort;
  }

  // unique_ptr keeps Port addresses stable across add_port (Ring is
  // move-hostile anyway: it owns atomics).
  std::vector<std::unique_ptr<Port>> ports_;
};

}  // namespace esw::net
