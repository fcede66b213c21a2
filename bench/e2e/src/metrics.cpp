#include "metrics.hpp"

#include <linux/perf_event.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>

#include "perf/bench_json.hpp"

namespace e2e {

// Units are restricted to [A-Za-z0-9_/%.-] (BENCHMARK.json's unit grammar),
// hence "us" for microseconds.
const std::vector<MetricDef> kEndToEnd = {
    {"mpps", "Mpps"}, {"lat_p50_us", "us"}, {"svc_p99_ns", "ns"},
    {"setup_s", "s"}, {"rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"netio.ring_ns", "ns"},
    {"netio.pkts_per_poll", "count"},
    {"netio.tx_rejected_frac", "ratio"},
    {"netio.pool_exhausted", "count"},
    {"netio.backpressure_events", "count"},
    {"netio.rx_backlog_max", "count"},
    {"netio.gen_late_p99_us", "us"},
    {"netio.sojourn_p99_us", "us"},
    {"proto.parse_ns", "ns"},
    {"cls.lookup_ns", "ns"},
    {"cls.lookups_per_pkt", "count"},
    {"cls.exact_match.time_frac", "ratio"},
    {"cls.exact_match.lookups_per_pkt", "count"},
    {"cls.exact_match.hit_frac", "ratio"},
    {"cls.exact_match.lines_per_lookup", "count"},
    {"cls.cuckoo.time_frac", "ratio"},
    {"cls.cuckoo.lookups_per_pkt", "count"},
    {"cls.cuckoo.hit_frac", "ratio"},
    {"cls.cuckoo.lines_per_lookup", "count"},
    {"cls.lpm.time_frac", "ratio"},
    {"cls.lpm.lookups_per_pkt", "count"},
    {"cls.lpm.hit_frac", "ratio"},
    {"cls.lpm.lines_per_lookup", "count"},
    {"jit.direct_code.time_frac", "ratio"},
    {"jit.direct_code.lookups_per_pkt", "count"},
    {"jit.direct_code.hit_frac", "ratio"},
    {"jit.direct_code.lines_per_lookup", "count"},
    {"jit.fused", "flag"},
    {"core.burst_ns", "ns"},
    {"core.walk_self_ns", "ns"},
    {"core.layer_coverage", "ratio"},
    {"core.install_s", "s"},
    {"core.first_batch_ms", "ms"},
    {"core.apply_us_p50", "us"},
    {"core.apply_us_p99", "us"},
    {"core.incremental_frac", "ratio"},
    {"core.cow_swaps_per_mod", "ratio"},
    {"core.rebuilds_per_mod", "ratio"},
    {"core.fusion_republishes_per_mod", "ratio"},
    {"core.reclaim_pending_max", "count"},
    {"core.table_mb", "MB"},
    {"flow.actions_ns", "ns"},
    {"flow.decode_ns", "ns"},
    {"state.ct_pre_frac", "ratio"},
    {"state.ct_post_frac", "ratio"},
    {"state.commits_per_s", "1/s"},
    {"state.expired_per_s", "1/s"},
    {"state.hit_frac", "ratio"},
    {"state.commit_drops", "count"},
    {"state.evictions_forced", "count"},
    {"mod_p50_us", "us"},
    {"mod_p99_us", "us"},
    {"usecases.agent_poll_us", "us"},
    {"usecases.agent_errors", "count"},
    {"cpu.util", "ratio"},
    {"cpu.nivcsw_per_s", "1/s"},
    {"trace.overhead_frac", "ratio"},
    {"fail_frac", "ratio"},
};

bool Result::check(bool ok, const std::string& name, const std::string& detail) {
  if (!ok) {
    failed_checks.push_back(name);
    std::cerr << "check failed: " << name << (detail.empty() ? "" : ": ") << detail
              << "\n";
  }
  return ok;
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void print_result(const Result& r) {
  for (const auto* defs : {&kEndToEnd, &kPerLayer})
    for (const MetricDef& d : *defs) {
      const auto it = r.values.find(d.name);
      if (it == r.values.end()) continue;
      std::printf("%s %s %.6g %s\n", r.workload.c_str(), d.name, it->second, d.unit);
    }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(r.attempted, 1)),
              static_cast<unsigned long long>(r.failed));
  const char* sep = "";
  for (const MetricDef& d : r.traced ? kPerLayer : kEndToEnd) {
    const auto it = r.values.find(d.name);
    if (it == r.values.end()) continue;
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", sep, d.name,
                number(it->second).c_str(), d.unit);
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::string result_json(const Result& r) {
  using esw::perf::Json;
  Json doc = Json::object();
  doc.set("schema", Json::string("esw-e2e-v1"));
  doc.set("workload", Json::string(r.workload));
  doc.set("seed", Json::number(static_cast<double>(r.seed)));
  doc.set("seconds", Json::number(r.seconds));
  doc.set("traced", Json::boolean(r.traced));
  doc.set("correct", Json::boolean(r.correct()));
  doc.set("attempted", Json::number(static_cast<double>(r.attempted)));
  doc.set("failed", Json::number(static_cast<double>(r.failed)));
  Json metrics = Json::object();
  for (const auto* defs : {&kEndToEnd, &kPerLayer})
    for (const MetricDef& d : *defs) {
      const auto it = r.values.find(d.name);
      if (it == r.values.end()) continue;
      Json m = Json::object();
      m.set("value", Json::number(it->second));
      m.set("unit", Json::string(d.unit));
      metrics.set(d.name, std::move(m));
    }
  doc.set("metrics", std::move(metrics));
  Json checks = Json::array();
  for (const std::string& c : r.failed_checks) checks.push_back(Json::string(c));
  doc.set("failed_checks", std::move(checks));
  Json fp = Json::object();
  for (const auto& [k, v] : machine_fingerprint()) fp.set(k, Json::string(v));
  doc.set("fingerprint", std::move(fp));
  return doc.dump() + "\n";
}

namespace {

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

/// Size of the cache at sysfs `index` of cpu0, e.g. "8192K" ("" if absent).
std::string cache_size(int index) {
  return read_first_line("/sys/devices/system/cpu/cpu0/cache/index" +
                         std::to_string(index) + "/size");
}

std::string perf_event_status(uint32_t type, uint64_t config) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof attr);
  attr.size = sizeof attr;
  attr.type = type;
  attr.config = config;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  const long fd = ::syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
  if (fd < 0) return std::string("absent (") + std::strerror(errno) + ")";
  ::close(static_cast<int>(fd));
  return "available";
}

}  // namespace

std::map<std::string, std::string> machine_fingerprint() {
  std::map<std::string, std::string> fp;
  fp["cpu"] = cpu_model();
  fp["nproc"] = std::to_string(std::thread::hardware_concurrency());
  // sysfs index2 is the unified L2, index3 the LLC on x86.
  fp["l2"] = cache_size(2);
  fp["llc"] = cache_size(3);
  utsname u;
  fp["kernel"] = ::uname(&u) == 0 ? u.release : "unknown";
  fp["pmu_hw_cycles"] = perf_event_status(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES);
  fp["pmu_sw_task_clock"] =
      perf_event_status(PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK);
  return fp;
}

double peak_rss_mb() {
  rusage ru;
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::pair<double, double> quartiles(std::vector<double> v) {
  if (v.empty()) return {0, 0};
  if (v.size() == 1) return {v[0], v[0]};
  std::sort(v.begin(), v.end());
  const long n = 4, ld = static_cast<long>(v.size()), m = ld + 1;
  double q[2];
  for (long i = 1; i <= 3; i += 2) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * n;
    q[i / 2] = (v[static_cast<size_t>(j - 1)] * static_cast<double>(n - delta) +
                v[static_cast<size_t>(j)] * static_cast<double>(delta)) /
               static_cast<double>(n);
  }
  return {q[0], q[1]};
}

}  // namespace e2e
