#include "common/failpoint.hpp"

#include <cstdio>
#include <cstdlib>

namespace esw::common {

namespace {

// kProb thresholds live in a 53-bit space so the double -> integer mapping is
// exact for every probability a spec can express.
constexpr uint64_t kProbOne = uint64_t{1} << 53;

uint64_t xorshift_next(std::atomic<uint64_t>& state) {
  uint64_t x = state.load(std::memory_order_relaxed);
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  state.store(x, std::memory_order_relaxed);
  return x * 0x2545F4914F6CDD1DULL;
}

}  // namespace

std::atomic<int> FailpointRegistry::armed_count_{0};

namespace {
// ESW_FAILPOINT sites test armed_count_ before they ever reach the registry,
// so a process that never calls instance() itself would ignore
// ESW_FAILPOINTS.  Build the registry (which arms from the environment)
// during static initialisation instead; armed_count_ is constant-initialised,
// so it is valid before this runs.
[[maybe_unused]] const FailpointRegistry& env_registry = FailpointRegistry::instance();
}  // namespace

bool Failpoint::should_fire() {
  const Mode m = static_cast<Mode>(mode_.load(std::memory_order_acquire));
  if (m == Mode::kOff) return false;
  const uint64_t hit = hits_.fetch_add(1, std::memory_order_relaxed) + 1;
  bool fire = false;
  switch (m) {
    case Mode::kAlways:
      fire = true;
      break;
    case Mode::kNth:
      fire = hit == arg_.load(std::memory_order_relaxed);
      break;
    case Mode::kProb:
      fire = (xorshift_next(rng_) >> 11) < arg_.load(std::memory_order_relaxed);
      break;
    case Mode::kOff:
      break;
  }
  if (fire) fires_.fetch_add(1, std::memory_order_relaxed);
  return fire;
}

FailpointRegistry& FailpointRegistry::instance() {
  static FailpointRegistry reg;
  return reg;
}

FailpointRegistry::FailpointRegistry() { arm_from_env(); }

Failpoint& FailpointRegistry::point(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return point_locked(name);
}

Failpoint& FailpointRegistry::point_locked(const std::string& name) {
  auto it = points_.find(name);
  if (it == points_.end())
    it = points_.emplace(name, std::unique_ptr<Failpoint>(new Failpoint(name))).first;
  return *it->second;
}

bool FailpointRegistry::arm(const std::string& name, const std::string& spec) {
  Failpoint::Mode mode;
  uint64_t arg = 0;
  uint64_t seed = 0x9E3779B97F4A7C15ULL;
  if (spec == "always") {
    mode = Failpoint::Mode::kAlways;
  } else if (spec.rfind("nth:", 0) == 0) {
    mode = Failpoint::Mode::kNth;
    arg = std::strtoull(spec.c_str() + 4, nullptr, 0);
    if (arg == 0) return false;
  } else if (spec.rfind("prob:", 0) == 0) {
    mode = Failpoint::Mode::kProb;
    char* end = nullptr;
    const double p = std::strtod(spec.c_str() + 5, &end);
    if (!(p > 0.0) || p > 1.0) return false;
    arg = static_cast<uint64_t>(p * static_cast<double>(kProbOne));
    if (end != nullptr && *end == ':') seed ^= std::strtoull(end + 1, nullptr, 0);
  } else {
    return false;
  }

  std::lock_guard<std::mutex> lock(mu_);
  Failpoint& fp = point_locked(name);
  const bool was_armed = fp.armed();
  fp.arg_.store(arg, std::memory_order_relaxed);
  fp.rng_.store(seed | 1, std::memory_order_relaxed);  // xorshift must not be 0
  fp.hits_.store(0, std::memory_order_relaxed);
  fp.mode_.store(static_cast<uint8_t>(mode), std::memory_order_release);
  if (!was_armed) armed_count_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void FailpointRegistry::disarm_locked(Failpoint& fp) {
  if (!fp.armed()) return;
  fp.mode_.store(static_cast<uint8_t>(Failpoint::Mode::kOff),
                 std::memory_order_release);
  armed_count_.fetch_sub(1, std::memory_order_relaxed);
}

void FailpointRegistry::disarm(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = points_.find(name);
  if (it != points_.end()) disarm_locked(*it->second);
}

void FailpointRegistry::disarm_all() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, fp] : points_) disarm_locked(*fp);
}

size_t FailpointRegistry::arm_from_env() {
  const char* env = std::getenv("ESW_FAILPOINTS");
  if (env == nullptr || *env == '\0') return 0;
  size_t armed = 0;
  const std::string all(env);
  size_t pos = 0;
  while (pos < all.size()) {
    size_t comma = all.find(',', pos);
    if (comma == std::string::npos) comma = all.size();
    const std::string entry = all.substr(pos, comma - pos);
    pos = comma + 1;
    const size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 ||
        !arm(entry.substr(0, eq), entry.substr(eq + 1))) {
      std::fprintf(stderr, "[failpoint] bad ESW_FAILPOINTS entry \"%s\"\n",
                   entry.c_str());
      continue;
    }
    ++armed;
  }
  return armed;
}

std::vector<FailpointRegistry::Snapshot> FailpointRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Snapshot> out;
  out.reserve(points_.size());
  for (const auto& [name, fp] : points_)
    out.push_back({name, fp->armed(), fp->hits(), fp->fires()});
  return out;
}

uint64_t FailpointRegistry::fires(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = points_.find(name);
  return it != points_.end() ? it->second->fires() : 0;
}

}  // namespace esw::common
