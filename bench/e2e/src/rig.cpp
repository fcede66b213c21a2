#include "rig.hpp"

#include <sched.h>

#include <algorithm>

namespace e2e {

void pin_current_thread(Role role) {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) allowed.push_back(c);
    return allowed;
  }();
  if (cpus.size() < 4) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  switch (role) {
    case Role::kControl:
      CPU_SET(cpus[0], &set);
      break;
    case Role::kWorkers:
      CPU_SET(cpus[1], &set);
      CPU_SET(cpus[2], &set);
      break;
    case Role::kLoad:
      CPU_SET(cpus[3], &set);
      break;
  }
  ::sched_setaffinity(0, sizeof set, &set);
}

Rig::Rig(const Workload& wl, const Runtime::Config& rcfg)
    : rt_(std::make_unique<Runtime>(rcfg, wl.cfg)) {
  const auto t0 = Clock::now();
  rt_->backend().install(wl.pipeline);
  install_s = seconds_between(t0, Clock::now());

  esw::uc::OfAgent::Callbacks cbs = esw::uc::make_dataplane_callbacks(rt_->backend());
  cbs.on_flow_mod_batch = [this, apply = cbs.on_flow_mod_batch](
                              const std::vector<esw::flow::FlowMod>& fms) {
    const auto a = Clock::now();
    auto statuses = apply(fms);
    apply_us.push_back(seconds_between(a, Clock::now()) * 1e6);
    return statuses;
  };
  agent_ = std::make_unique<esw::uc::OfAgent>(std::move(cbs));
  ctrl_ = std::make_unique<esw::uc::OfController>(agent_->controller_fd());
  esw::uc::run_handshake(*agent_, *ctrl_);
}

void Rig::start() {
  pin_current_thread(Role::kWorkers);
  rt_->start();
  pin_current_thread(Role::kControl);
}

uint32_t Rig::send_batch(const std::vector<esw::flow::FlowMod>& mods) {
  for (const esw::flow::FlowMod& fm : mods) ctrl_->send_flow_mod(fm);
  return ctrl_->send_barrier();
}

void Rig::pump() {
  const size_t applied = apply_us.size();
  const auto t0 = Clock::now();
  agent_->poll();
  if (apply_us.size() != applied)
    agent_poll_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
  ctrl_->poll();
  errors_ += ctrl_->take_errors().size();
  for (const uint32_t xid : ctrl_->take_barrier_replies()) answered_.push_back(xid);
}

bool Rig::await_barrier(uint32_t xid, Clock::duration timeout) {
  const auto deadline = Clock::now() + timeout;
  for (;;) {
    pump();
    const auto it = std::find(answered_.begin(), answered_.end(), xid);
    if (it != answered_.end()) {
      answered_.erase(it);
      return true;
    }
    if (Clock::now() > deadline) return false;
  }
}

void Rig::settle(Clock::duration timeout) {
  const auto deadline = Clock::now() + timeout;
  do {
    pump();
  } while (ctrl_->outstanding() != 0 && Clock::now() < deadline);
}

}  // namespace e2e
