// Metric dictionary, run result and output formats of the e2e benchmark.
//
// Every metric the benchmark reports is declared once in kEndToEnd or
// kPerLayer (name + unit); a run fills values by name, and printing walks the
// tables, so a metric a run forgot to measure is itself a failed check.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// User-visible metrics, measured with tracing off (BENCHMARK.json end_to_end).
extern const std::vector<MetricDef> kEndToEnd;
/// Per-layer metrics of the traced run and the e2e counters
/// (BENCHMARK.json per_layer).
extern const std::vector<MetricDef> kPerLayer;

/// One benchmark invocation's outcome.
struct Result {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;
  bool traced = false;
  std::map<std::string, double> values;
  std::vector<std::string> failed_checks;
  uint64_t attempted = 0;  // packets injected + flow-mods sent
  uint64_t failed = 0;     // failed operations among them

  void set(const std::string& name, double v) { values[name] = v; }
  /// Records a correctness check; false adds it to failed_checks and prints
  /// it to stderr.
  bool check(bool ok, const std::string& name, const std::string& detail = {});
  bool correct() const { return failed_checks.empty(); }
};

/// Prints `workload metric value unit` for every metric the run produced,
/// then (last line of stdout) the contract's JSON object with the metric set
/// `traced` selects.
void print_result(const Result& r);

/// The run as a JSON document (all metrics, checks, machine fingerprint).
std::string result_json(const Result& r);

/// CPU model, core count, cache sizes, kernel and PMU availability.
std::map<std::string, std::string> machine_fingerprint();

/// Peak resident set of this process, in MB.
double peak_rss_mb();

/// Median of `v`, the mean of the middle two for an even count (0 when empty).
double median(std::vector<double> v);
/// Value at quantile q in [0,1] by nearest rank (0 when empty).
double quantile(std::vector<double> v, double q);
/// First and third quartile, as Python's statistics.quantiles(v, n=4) gives
/// them (exclusive method).  Needs at least two values; one value gives
/// {v, v}.
std::pair<double, double> quartiles(std::vector<double> v);

}  // namespace e2e
