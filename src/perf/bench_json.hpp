// Stable machine-readable schema for the figure-reproduction benchmarks.
//
// Every `bench/bench_fig*` run is distilled into one `BENCH_<figure>.json`
// file ("esw-bench-v1" schema): figure id, git sha, and per-series points
// carrying pps and cycles/packet plus all raw google-benchmark counters.
// The perf trajectory across PRs diffs these files, so the schema must stay
// backward compatible — add fields, never rename or remove them.
//
// A minimal JSON value type (parser + writer) lives here too: the bench
// driver uses it to digest google-benchmark's --benchmark_format=json output,
// and tests use it to round-trip reports.  It covers the full JSON grammar
// (objects, arrays, strings with escapes, numbers, bools, null) but is tuned
// for trusted tool output, not adversarial input: nesting depth is capped and
// numbers are doubles.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace esw::perf {

// ---------------------------------------------------------------------------
// Generic JSON value
// ---------------------------------------------------------------------------

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : kind_(Kind::kNull) {}
  static Json boolean(bool b);
  static Json number(double v);
  static Json string(std::string s);
  static Json array();
  static Json object();

  Kind kind() const { return kind_; }

  // Typed accessors; CHECK-fail on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<Json>& items() const;                    // array
  const std::map<std::string, Json>& members() const;        // object

  // Object/array builders.
  void push_back(Json v);                 // array
  void set(const std::string& key, Json v);  // object

  /// Object member by key, or nullptr.  Null for non-objects.
  const Json* find(const std::string& key) const;
  /// Convenience: member's number/string if present and of that kind.
  double number_or(const std::string& key, double fallback) const;
  std::string string_or(const std::string& key, const std::string& fallback) const;

  /// Parses a complete JSON document (trailing whitespace allowed, trailing
  /// garbage rejected).  nullopt on any syntax error.
  static std::optional<Json> parse(std::string_view text);

  /// Serializes with stable member order (std::map) and 2-space indent.
  std::string dump() const;

 private:
  void dump_to(std::string& out, int indent) const;

  Kind kind_;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<Json> arr_;
  std::map<std::string, Json> obj_;
};

// ---------------------------------------------------------------------------
// Bench report schema ("esw-bench-v1")
// ---------------------------------------------------------------------------

inline constexpr char kBenchSchemaId[] = "esw-bench-v1";

/// One measured point of a series, e.g. L2 throughput at flows=1000.
struct BenchPoint {
  std::string label;        // run suffix, e.g. "size:1000/flows:100/es:1"
  double x = 0;             // primary sweep value (last numeric arg), 0 if none
  double pps = 0;           // packets/second counter (0 when not reported)
  double cycles_per_pkt = 0;  // cycles/packet counter (0 when not reported)
  std::map<std::string, double> counters;  // all raw benchmark counters
  /// Optional latency-percentile block (additive schema extension): when a
  /// bench captures latency it emits flat `latency_ns_p50`.. counters and the
  /// digest lifts them here as {"p50","p90","p99","p999","max"} (+"samples").
  /// Empty when the point carries no latency capture.
  std::map<std::string, double> latency_ns;
};

/// All points of one benchmark function, e.g. BM_Fig10_L2.
struct BenchSeries {
  std::string name;
  std::vector<BenchPoint> points;
};

/// One figure's worth of measurements -> one BENCH_<figure>.json file.
struct BenchReport {
  std::string figure;   // "fig10", "tab01", ...
  std::string title;    // human hint, e.g. "l2"
  std::string git_sha;  // commit the numbers were taken at ("unknown" if n/a)
  std::vector<BenchSeries> series;
};

/// Serializes a report into the esw-bench-v1 JSON document.
std::string report_to_json(const BenchReport& report);

/// Parses an esw-bench-v1 document; nullopt on syntax/schema mismatch.
std::optional<BenchReport> report_from_json(std::string_view text);

/// Converts one google-benchmark --benchmark_format=json document into a
/// report: groups runs by benchmark function, extracts pps/cycles_per_pkt
/// and every numeric counter (lifting `latency_ns_*` counters into the
/// point's latency_ns block).  nullopt if `text` is not benchmark output.
std::optional<BenchReport> report_from_google_benchmark(std::string_view text,
                                                        const std::string& figure,
                                                        const std::string& title,
                                                        const std::string& git_sha);

/// Flat-counter prefix benches use for the latency block ("latency_ns_p50").
inline constexpr char kLatencyCounterPrefix[] = "latency_ns_";

/// Point-shape contracts beyond bare schema syntax, shared by `run_all
/// --check` and the unit tests.  Returns one message per violation (empty =
/// valid):
///   * any point with a latency_ns block (or flat latency_ns_* counters)
///     must carry the complete non-decreasing p50/p90/p99/p999/max quintet;
///   * any point measured with a failpoint armed (`chaos` = 1) must carry
///     the backend's degradation ledger: `template_fallbacks`,
///     `fusion_fallbacks` and `mods_refused_table_full`;
///   * fig19 points must carry `threads` and per-worker `pps_w<i>` summing
///     to the aggregate, and its churn:1 points must carry the latency
///     block (p99/p99.9 under update load is the point of that variant);
///   * fig10/fig11 points must carry the 0/1 `trace` input marker.
std::vector<std::string> validate_report(const BenchReport& report);

}  // namespace esw::perf
