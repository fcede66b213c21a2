// One switch under test: the unmodified core::SwitchRuntime<core::Eswitch>
// plus the OpenFlow session its write stream travels over (uc::OfAgent on
// the switch's socketpair end, uc::OfController on the other).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/eswitch.hpp"
#include "core/switch_runtime.hpp"
#include "usecases/of_agent.hpp"
#include "workload.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;
using Runtime = esw::core::SwitchRuntime<esw::core::Eswitch>;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The benchmark's threads.  With at least four CPUs allowed, each role
/// gets its own (the control thread, the two packet workers, the latency
/// phase's load thread), so runs do not differ by where the scheduler
/// happened to put them; with fewer, nothing is pinned.
enum class Role { kControl, kWorkers, kLoad };
/// Restricts the calling thread to `role`'s CPUs.  Threads it creates
/// inherit the mask — how the runtime's workers get theirs.
void pin_current_thread(Role role);

class Rig {
 public:
  /// Constructs the runtime and its Eswitch, installs the workload's
  /// pipeline and opens the OpenFlow session (HELLO + FEATURES).
  Rig(const Workload& wl, const Runtime::Config& rcfg);
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  Runtime& rt() { return *rt_; }
  esw::core::Eswitch& sw() { return rt_->backend(); }
  /// Starts the runtime's workers on the worker CPUs.
  void start();

  /// Sends `mods` as FLOW_MODs followed by a BARRIER_REQUEST; returns the
  /// barrier's xid.
  uint32_t send_batch(const std::vector<esw::flow::FlowMod>& mods);
  /// Runs the agent and the controller until the barrier `xid` is answered
  /// or `timeout` passes; false on timeout.
  bool await_barrier(uint32_t xid, Clock::duration timeout);
  /// Runs the session until no reply is outstanding or `timeout` passes.
  void settle(Clock::duration timeout);
  /// ERROR messages (refused mods) the controller has received so far.
  uint64_t errors() const { return errors_; }

  double install_s = 0;               // Eswitch::install of the workload pipeline
  std::vector<double> apply_us;       // apply_batch_partial per batch
  std::vector<double> agent_poll_us;  // OfAgent::poll calls that applied a batch

 private:
  void pump();

  std::unique_ptr<Runtime> rt_;
  std::unique_ptr<esw::uc::OfAgent> agent_;
  std::unique_ptr<esw::uc::OfController> ctrl_;
  std::vector<uint32_t> answered_;
  uint64_t errors_ = 0;
};

}  // namespace e2e
