// Deterministic fault injection for every resource edge in the switch.
//
// A failpoint is a named site in production code where a fault can be forced:
//
//   if (ESW_FAILPOINT("mbuf.alloc")) return nullptr;   // as-if exhausted
//
// Disarmed (the normal state) the macro costs one relaxed atomic load and a
// predicted-not-taken branch — cheap enough for per-packet paths.  Armed, the
// site resolves its registry entry once (a function-local static) and asks it
// whether to fire under the configured mode:
//
//   always        every evaluation fires
//   nth:N         exactly the Nth evaluation since arming fires (one-shot)
//   prob:P[:S]    each evaluation fires with probability P (xorshift, seed S)
//
// Arming is programmatic (FailpointRegistry::arm) or environmental: the
// ESW_FAILPOINTS variable is parsed once, at static initialisation, e.g.
//
//   ESW_FAILPOINTS="jit.exec_map=always,mbuf.alloc=prob:0.01:7" ./soak ...
//
// Per-point hit/fire counters make injected faults auditable: the chaos soak
// maps every fired point to the degradation counter that must have absorbed
// it (docs/ROBUSTNESS.md has the full catalog and policy table).
//
// Thread-safety: arming/disarming takes the registry mutex; evaluation is
// lock-free (mode/counters are atomics, so packet workers may race through an
// armed point — any interleaving of the probability stream is a valid one).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/bits.hpp"

namespace esw::common {

class FailpointRegistry;

/// One named injection site's state.  Created and owned by the registry;
/// sites cache the reference, so the address is stable for process lifetime.
class Failpoint {
 public:
  enum class Mode : uint8_t { kOff = 0, kAlways, kNth, kProb };

  /// Hot-path evaluation: counts the hit and decides whether to fire.
  bool should_fire();

  const std::string& name() const { return name_; }
  /// Evaluations since the point was last armed.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  /// Total faults injected (cumulative across re-arms).
  uint64_t fires() const { return fires_.load(std::memory_order_relaxed); }
  bool armed() const {
    return static_cast<Mode>(mode_.load(std::memory_order_relaxed)) != Mode::kOff;
  }

 private:
  friend class FailpointRegistry;
  explicit Failpoint(std::string name) : name_(std::move(name)) {}

  const std::string name_;
  std::atomic<uint8_t> mode_{static_cast<uint8_t>(Mode::kOff)};
  std::atomic<uint64_t> arg_{0};  // kNth: N; kProb: threshold in [0, 2^53]
  std::atomic<uint64_t> rng_{0};  // kProb xorshift64* state (shared; racy is fine)
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> fires_{0};
};

/// Process-wide name -> Failpoint map plus the global armed fast-path gate.
class FailpointRegistry {
 public:
  /// The singleton; parses ESW_FAILPOINTS on construction, which happens
  /// during static initialisation of any program that links a failpoint.
  static FailpointRegistry& instance();

  /// One relaxed load: false means no failpoint anywhere is armed and every
  /// ESW_FAILPOINT site short-circuits without touching the registry.
  static bool any_armed() {
    return armed_count_.load(std::memory_order_relaxed) > 0;
  }

  /// Find-or-create by name (sites call this once through the macro's static).
  Failpoint& point(const std::string& name);

  /// Arms `name` with a spec — "always", "nth:N" (N >= 1) or "prob:P[:SEED]"
  /// (0 < P <= 1).  Re-arming resets the hit counter (nth counts evaluations
  /// since arming); fire totals accumulate.  Returns false on a bad spec.
  bool arm(const std::string& name, const std::string& spec);
  void disarm(const std::string& name);
  void disarm_all();

  /// Parses `ESW_FAILPOINTS` ("name=spec,name=spec") and arms each entry;
  /// returns how many armed.  Bad entries are skipped (stderr note).
  size_t arm_from_env();

  struct Snapshot {
    std::string name;
    bool armed = false;
    uint64_t hits = 0;
    uint64_t fires = 0;
  };
  /// Every known point's counters (armed or not), sorted by name.
  std::vector<Snapshot> snapshot() const;
  /// Fire total for one point (0 when the point was never referenced).
  uint64_t fires(const std::string& name) const;

 private:
  FailpointRegistry();
  Failpoint& point_locked(const std::string& name);
  void disarm_locked(Failpoint& fp);

  static std::atomic<int> armed_count_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Failpoint>> points_;
};

}  // namespace esw::common

/// True when the named failpoint is armed and elects to fire this evaluation.
/// Zero registry traffic while nothing is armed anywhere.
#define ESW_FAILPOINT(name)                                                 \
  (ESW_UNLIKELY(::esw::common::FailpointRegistry::any_armed()) && [] {      \
    static ::esw::common::Failpoint& esw_fp_ =                              \
        ::esw::common::FailpointRegistry::instance().point(name);           \
    return esw_fp_.should_fire();                                           \
  }())
