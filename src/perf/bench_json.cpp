#include "perf/bench_json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>

#include "common/check.hpp"

namespace esw::perf {

// ---------------------------------------------------------------------------
// Json: constructors and accessors
// ---------------------------------------------------------------------------

Json Json::boolean(bool b) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = b;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.num_ = v;
  return j;
}

Json Json::string(std::string s) {
  Json j;
  j.kind_ = Kind::kString;
  j.str_ = std::move(s);
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

bool Json::as_bool() const {
  ESW_CHECK(kind_ == Kind::kBool);
  return bool_;
}

double Json::as_number() const {
  ESW_CHECK(kind_ == Kind::kNumber);
  return num_;
}

const std::string& Json::as_string() const {
  ESW_CHECK(kind_ == Kind::kString);
  return str_;
}

const std::vector<Json>& Json::items() const {
  ESW_CHECK(kind_ == Kind::kArray);
  return arr_;
}

const std::map<std::string, Json>& Json::members() const {
  ESW_CHECK(kind_ == Kind::kObject);
  return obj_;
}

void Json::push_back(Json v) {
  ESW_CHECK(kind_ == Kind::kArray);
  arr_.push_back(std::move(v));
}

void Json::set(const std::string& key, Json v) {
  ESW_CHECK(kind_ == Kind::kObject);
  obj_[key] = std::move(v);
}

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = obj_.find(key);
  return it == obj_.end() ? nullptr : &it->second;
}

double Json::number_or(const std::string& key, double fallback) const {
  const Json* j = find(key);
  return (j != nullptr && j->kind_ == Kind::kNumber) ? j->num_ : fallback;
}

std::string Json::string_or(const std::string& key, const std::string& fallback) const {
  const Json* j = find(key);
  return (j != nullptr && j->kind_ == Kind::kString) ? j->str_ : fallback;
}

// ---------------------------------------------------------------------------
// Json: recursive-descent parser
// ---------------------------------------------------------------------------

namespace {

constexpr int kMaxDepth = 64;

struct Parser {
  std::string_view text;
  size_t pos = 0;
  bool failed = false;

  void fail() { failed = true; }
  bool at_end() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }

  void skip_ws() {
    while (!at_end()) {
      const char c = text[pos];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (at_end() || text[pos] != c) return false;
    ++pos;
    return true;
  }

  bool consume_lit(std::string_view lit) {
    if (text.substr(pos, lit.size()) != lit) return false;
    pos += lit.size();
    return true;
  }

  static void append_utf8(std::string& out, uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  uint32_t parse_hex4() {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      if (at_end()) {
        fail();
        return 0;
      }
      const char c = text[pos++];
      v <<= 4;
      if (c >= '0' && c <= '9')
        v |= static_cast<uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f')
        v |= static_cast<uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        v |= static_cast<uint32_t>(c - 'A' + 10);
      else
        fail();
    }
    return v;
  }

  std::string parse_string_body() {
    std::string out;
    while (true) {
      if (at_end()) {
        fail();
        return out;
      }
      char c = text[pos++];
      if (c == '"') return out;
      if (c == '\\') {
        if (at_end()) {
          fail();
          return out;
        }
        const char esc = text[pos++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            uint32_t cp = parse_hex4();
            if (cp >= 0xD800 && cp <= 0xDBFF && consume_lit("\\u")) {
              const uint32_t lo = parse_hex4();
              if (lo >= 0xDC00 && lo <= 0xDFFF)
                cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
              else
                fail();
            }
            append_utf8(out, cp);
            break;
          }
          default: fail(); return out;
        }
      } else {
        out.push_back(c);
      }
    }
  }

  Json parse_number() {
    const size_t start = pos;
    if (!at_end() && (peek() == '-' || peek() == '+')) ++pos;
    while (!at_end() && (std::isdigit(static_cast<unsigned char>(peek())) ||
                         peek() == '.' || peek() == 'e' || peek() == 'E' ||
                         peek() == '+' || peek() == '-'))
      ++pos;
    const std::string token(text.substr(start, pos - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || token.empty()) fail();
    return Json::number(v);
  }

  Json parse_value(int depth) {
    if (depth > kMaxDepth) {
      fail();
      return Json();
    }
    skip_ws();
    if (at_end()) {
      fail();
      return Json();
    }
    const char c = peek();
    if (c == '{') {
      ++pos;
      Json obj = Json::object();
      skip_ws();
      if (consume('}')) return obj;
      while (!failed) {
        skip_ws();
        if (at_end() || peek() != '"') {
          fail();
          break;
        }
        ++pos;
        std::string key = parse_string_body();
        if (!consume(':')) {
          fail();
          break;
        }
        obj.set(key, parse_value(depth + 1));
        if (consume(',')) continue;
        if (!consume('}')) fail();
        break;
      }
      return obj;
    }
    if (c == '[') {
      ++pos;
      Json arr = Json::array();
      skip_ws();
      if (consume(']')) return arr;
      while (!failed) {
        arr.push_back(parse_value(depth + 1));
        if (consume(',')) continue;
        if (!consume(']')) fail();
        break;
      }
      return arr;
    }
    if (c == '"') {
      ++pos;
      return Json::string(parse_string_body());
    }
    if (c == 't') {
      if (!consume_lit("true")) fail();
      return Json::boolean(true);
    }
    if (c == 'f') {
      if (!consume_lit("false")) fail();
      return Json::boolean(false);
    }
    if (c == 'n') {
      if (!consume_lit("null")) fail();
      return Json();
    }
    return parse_number();
  }
};

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {  // JSON has no inf/nan
    out += "0";
    return;
  }
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    out += buf;
  } else {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
  }
}

}  // namespace

std::optional<Json> Json::parse(std::string_view text) {
  Parser p{text};
  Json v = p.parse_value(0);
  p.skip_ws();
  if (p.failed || !p.at_end()) return std::nullopt;
  return v;
}

void Json::dump_to(std::string& out, int indent) const {
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  const std::string pad_in(static_cast<size_t>(indent + 1) * 2, ' ');
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: append_number(out, num_); break;
    case Kind::kString: append_escaped(out, str_); break;
    case Kind::kArray:
      if (arr_.empty()) {
        out += "[]";
        break;
      }
      out += "[\n";
      for (size_t i = 0; i < arr_.size(); ++i) {
        out += pad_in;
        arr_[i].dump_to(out, indent + 1);
        if (i + 1 < arr_.size()) out.push_back(',');
        out.push_back('\n');
      }
      out += pad + "]";
      break;
    case Kind::kObject: {
      if (obj_.empty()) {
        out += "{}";
        break;
      }
      out += "{\n";
      size_t i = 0;
      for (const auto& [key, val] : obj_) {
        out += pad_in;
        append_escaped(out, key);
        out += ": ";
        val.dump_to(out, indent + 1);
        if (++i < obj_.size()) out.push_back(',');
        out.push_back('\n');
      }
      out += pad + "}";
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out, 0);
  out.push_back('\n');
  return out;
}

// ---------------------------------------------------------------------------
// Bench report <-> JSON
// ---------------------------------------------------------------------------

std::string report_to_json(const BenchReport& report) {
  Json doc = Json::object();
  doc.set("schema", Json::string(kBenchSchemaId));
  doc.set("figure", Json::string(report.figure));
  doc.set("title", Json::string(report.title));
  doc.set("git_sha", Json::string(report.git_sha));
  Json series = Json::array();
  for (const BenchSeries& s : report.series) {
    Json js = Json::object();
    js.set("name", Json::string(s.name));
    Json points = Json::array();
    for (const BenchPoint& p : s.points) {
      Json jp = Json::object();
      jp.set("label", Json::string(p.label));
      jp.set("x", Json::number(p.x));
      jp.set("pps", Json::number(p.pps));
      jp.set("cycles_per_pkt", Json::number(p.cycles_per_pkt));
      Json counters = Json::object();
      for (const auto& [name, value] : p.counters)
        counters.set(name, Json::number(value));
      jp.set("counters", std::move(counters));
      if (!p.latency_ns.empty()) {
        Json lat = Json::object();
        for (const auto& [name, value] : p.latency_ns)
          lat.set(name, Json::number(value));
        jp.set("latency_ns", std::move(lat));
      }
      points.push_back(std::move(jp));
    }
    js.set("points", std::move(points));
    series.push_back(std::move(js));
  }
  doc.set("series", std::move(series));
  return doc.dump();
}

std::optional<BenchReport> report_from_json(std::string_view text) {
  const std::optional<Json> doc = Json::parse(text);
  if (!doc || doc->kind() != Json::Kind::kObject) return std::nullopt;
  if (doc->string_or("schema", "") != kBenchSchemaId) return std::nullopt;
  const Json* series = doc->find("series");
  if (series == nullptr || series->kind() != Json::Kind::kArray) return std::nullopt;

  BenchReport report;
  report.figure = doc->string_or("figure", "");
  report.title = doc->string_or("title", "");
  report.git_sha = doc->string_or("git_sha", "unknown");
  for (const Json& js : series->items()) {
    if (js.kind() != Json::Kind::kObject) return std::nullopt;
    BenchSeries s;
    s.name = js.string_or("name", "");
    const Json* points = js.find("points");
    if (points == nullptr || points->kind() != Json::Kind::kArray) return std::nullopt;
    for (const Json& jp : points->items()) {
      if (jp.kind() != Json::Kind::kObject) return std::nullopt;
      BenchPoint p;
      p.label = jp.string_or("label", "");
      p.x = jp.number_or("x", 0);
      p.pps = jp.number_or("pps", 0);
      p.cycles_per_pkt = jp.number_or("cycles_per_pkt", 0);
      if (const Json* counters = jp.find("counters");
          counters != nullptr && counters->kind() == Json::Kind::kObject) {
        for (const auto& [name, value] : counters->members())
          if (value.kind() == Json::Kind::kNumber) p.counters[name] = value.as_number();
      }
      if (const Json* lat = jp.find("latency_ns");
          lat != nullptr && lat->kind() == Json::Kind::kObject) {
        for (const auto& [name, value] : lat->members())
          if (value.kind() == Json::Kind::kNumber) p.latency_ns[name] = value.as_number();
      }
      s.points.push_back(std::move(p));
    }
    report.series.push_back(std::move(s));
  }
  return report;
}

namespace {

/// google-benchmark run-name components that are execution modifiers, not
/// sweep arguments.
bool is_run_modifier(const std::string& key) {
  return key == "iterations" || key == "repeats" || key == "threads" ||
         key == "manual_time" || key == "real_time" || key == "process_time" ||
         key == "min_time" || key == "min_warmup_time";
}

/// Last numeric sweep component of a run suffix like "size:1000/flows:100" or
/// "2" — the natural x axis.  Modifier components (iterations:1, threads:4)
/// are skipped.  0 when nothing parses.
double sweep_value(const std::string& label) {
  double x = 0;
  size_t start = 0;
  while (start <= label.size()) {
    size_t end = label.find('/', start);
    if (end == std::string::npos) end = label.size();
    std::string part = label.substr(start, end - start);
    start = end + 1;
    if (const size_t colon = part.rfind(':'); colon != std::string::npos) {
      if (is_run_modifier(part.substr(0, colon))) continue;
      part = part.substr(colon + 1);
    }
    char* endp = nullptr;
    const double v = std::strtod(part.c_str(), &endp);
    if (endp == part.c_str() + part.size() && !part.empty()) x = v;
  }
  return x;
}

}  // namespace

std::optional<BenchReport> report_from_google_benchmark(std::string_view text,
                                                        const std::string& figure,
                                                        const std::string& title,
                                                        const std::string& git_sha) {
  const std::optional<Json> doc = Json::parse(text);
  if (!doc || doc->kind() != Json::Kind::kObject) return std::nullopt;
  const Json* benchmarks = doc->find("benchmarks");
  if (benchmarks == nullptr || benchmarks->kind() != Json::Kind::kArray)
    return std::nullopt;

  BenchReport report;
  report.figure = figure;
  report.title = title;
  report.git_sha = git_sha;
  for (const Json& run : benchmarks->items()) {
    if (run.kind() != Json::Kind::kObject) continue;
    // Skip aggregate rows (mean/median/stddev) — raw iterations only.
    if (!run.string_or("aggregate_name", "").empty()) continue;
    const std::string name = run.string_or("name", "");
    if (name.empty()) continue;

    const size_t slash = name.find('/');
    const std::string series_name = name.substr(0, slash);
    BenchPoint p;
    p.label = slash == std::string::npos ? "" : name.substr(slash + 1);
    p.x = sweep_value(p.label);

    // google-benchmark flattens user counters into the run object next to
    // its own fields; collect every numeric member as a counter.  Latency
    // counters additionally lift into the structured latency_ns block
    // ("latency_ns_p50" -> latency_ns["p50"]) — google-benchmark can only
    // carry flat doubles, the stable schema carries the block.
    for (const auto& [key, value] : run.members()) {
      if (value.kind() != Json::Kind::kNumber) continue;
      p.counters[key] = value.as_number();
      if (key.rfind(kLatencyCounterPrefix, 0) == 0)
        p.latency_ns[key.substr(sizeof(kLatencyCounterPrefix) - 1)] =
            value.as_number();
    }
    p.pps = run.number_or("pps", 0);
    p.cycles_per_pkt = run.number_or("cycles_per_pkt", 0);

    BenchSeries* series = nullptr;
    for (BenchSeries& s : report.series)
      if (s.name == series_name) series = &s;
    if (series == nullptr) {
      report.series.push_back(BenchSeries{series_name, {}});
      series = &report.series.back();
    }
    series->points.push_back(std::move(p));
  }
  return report;
}

// ---------------------------------------------------------------------------
// Point-shape validation (the `run_all --check` contracts)
// ---------------------------------------------------------------------------

namespace {

std::string point_id(const BenchReport& r, const BenchSeries& s, const BenchPoint& p) {
  return r.figure + " " + s.name + "/" + p.label;
}

/// The latency_ns block, when present, must be the complete quintet with
/// non-decreasing, non-negative percentiles — a partial or disordered block
/// means the bench or the digester dropped/mangled a counter.
void check_latency_block(const BenchReport& r, const BenchSeries& s,
                         const BenchPoint& p, std::vector<std::string>* errors) {
  bool has_flat = false;
  for (const auto& [key, value] : p.counters) {
    (void)value;
    if (key.rfind(kLatencyCounterPrefix, 0) == 0) has_flat = true;
  }
  if (p.latency_ns.empty()) {
    if (has_flat)
      errors->push_back(point_id(r, s, p) +
                        ": latency_ns_* counters present but latency_ns block missing");
    return;
  }
  static constexpr const char* kKeys[] = {"p50", "p90", "p99", "p999", "max"};
  double prev = -1;
  for (const char* key : kKeys) {
    const auto it = p.latency_ns.find(key);
    if (it == p.latency_ns.end()) {
      errors->push_back(point_id(r, s, p) + ": latency_ns block missing \"" +
                        key + "\"");
      return;
    }
    if (it->second < 0) {
      errors->push_back(point_id(r, s, p) + ": latency_ns." + key + " negative");
      return;
    }
    if (it->second < prev) {
      errors->push_back(point_id(r, s, p) + ": latency_ns." + key +
                        " below a lower percentile (non-monotone block)");
      return;
    }
    prev = it->second;
  }
}

/// The per-worker rate contract of the multi-worker points: a `threads`
/// counter, one `pps_w<i>` per worker, and the per-worker rates summing to
/// the aggregate `pps` within 2% (the true-thread measurement is per-worker
/// and summed, so a mismatch means the bench or the distiller dropped a
/// counter).  False when a counter is missing — the point's remaining
/// checks are then moot.
bool check_worker_pps(const BenchReport& r, const BenchSeries& s, const BenchPoint& p,
                      std::vector<std::string>* errors) {
  const auto threads_it = p.counters.find("threads");
  if (threads_it == p.counters.end() || threads_it->second < 1) {
    errors->push_back(point_id(r, s, p) + ": missing threads counter");
    return false;
  }
  const int threads = static_cast<int>(threads_it->second);
  double sum = 0;
  for (int w = 0; w < threads; ++w) {
    const auto it = p.counters.find("pps_w" + std::to_string(w));
    if (it == p.counters.end()) {
      errors->push_back(point_id(r, s, p) + ": missing pps_w" + std::to_string(w));
      return false;
    }
    sum += it->second;
  }
  if (p.pps > 0 && (sum < p.pps * 0.98 || sum > p.pps * 1.02))
    errors->push_back(point_id(r, s, p) + ": per-worker pps sum " +
                      std::to_string(sum) + " != aggregate " + std::to_string(p.pps));
  return true;
}

/// fig19 point-shape contract: the per-worker rate contract
/// (check_worker_pps), and churn points must carry the latency block —
/// p99/p99.9 under sustained update load is what that variant exists to
/// measure.
void check_fig19_point(const BenchReport& r, const BenchSeries& s,
                       const BenchPoint& p, std::vector<std::string>* errors) {
  if (!check_worker_pps(r, s, p, errors)) return;
  if (p.label.find("churn:1") != std::string::npos && p.latency_ns.empty())
    errors->push_back(point_id(r, s, p) +
                      ": churn point carries no latency_ns percentile block");
}

/// Trace-capable figures' point-shape contract: every throughput point must
/// carry the `trace` counter (1 = replayed from a pcap via --trace, 0 =
/// generated traffic), so a results directory is self-describing about what
/// fed each measurement — the esw-bench-v1 schema stays stable either way.
void check_trace_point(const BenchReport& r, const BenchSeries& s,
                       const BenchPoint& p, std::vector<std::string>* errors) {
  const auto it = p.counters.find("trace");
  if (it == p.counters.end())
    errors->push_back(point_id(r, s, p) + ": missing trace counter");
  else if (it->second != 0 && it->second != 1)
    errors->push_back(point_id(r, s, p) + ": trace counter must be 0 or 1");
}

/// Reports "<kind> point missing <key> counter" for each of `keys` the point
/// lacks; true when it carries them all.
bool require_counters(const BenchReport& r, const BenchSeries& s, const BenchPoint& p,
                      const char* kind, std::initializer_list<const char*> keys,
                      std::vector<std::string>* errors) {
  bool all = true;
  for (const char* key : keys) {
    if (p.counters.find(key) != p.counters.end()) continue;
    errors->push_back(point_id(r, s, p) + ": " + kind + " point missing " + key +
                      " counter");
    all = false;
  }
  return all;
}

/// Chaos point-shape contract: a point measured with failpoints armed
/// (counter chaos == 1) must carry the backend's whole degradation ledger
/// (core::DataplaneStats), so a chaos leg's results always say where the
/// injected faults went — a chaos point without the block is
/// indistinguishable from a clean run.
void check_chaos_point(const BenchReport& r, const BenchSeries& s,
                       const BenchPoint& p, std::vector<std::string>* errors) {
  const auto it = p.counters.find("chaos");
  if (it == p.counters.end() || it->second != 1) return;
  require_counters(r, s, p, "chaos",
                   {"template_fallbacks", "fusion_fallbacks", "mods_refused_table_full"},
                   errors);
}

/// Conntrack ("ct") point-shape contract: every point carries the full
/// conntrack counter block, and the counters satisfy the conservation
/// identity `commits == live + expired + evicted` — degradation under attack
/// must be accounted, so a point whose table churn doesn't add up means the
/// stateful layer lost track of a connection.
void check_ct_point(const BenchReport& r, const BenchSeries& s,
                    const BenchPoint& p, std::vector<std::string>* errors) {
  if (!require_counters(r, s, p, "ct",
                        {"ct_entries", "ct_commits", "ct_commit_drops",
                         "ct_evictions_forced", "ct_expired"},
                        errors))
    return;
  const double commits = p.counters.at("ct_commits");
  const double accounted = p.counters.at("ct_entries") +
                           p.counters.at("ct_expired") +
                           p.counters.at("ct_evictions_forced");
  if (commits != accounted)
    errors->push_back(point_id(r, s, p) + ": ct conservation violated (" +
                      std::to_string(commits) + " commits != " +
                      std::to_string(accounted) + " live+expired+evicted)");
  if (p.pps <= 0)
    errors->push_back(point_id(r, s, p) + ": ct point has no throughput");
}

/// Fusion ("fusion") point-shape contract: every point is tagged with a
/// boolean `fused` counter (1 = the backend published a fused plan for the
/// measurement) and carries throughput — the fusion speedup gate in CI
/// divides two points and must be able to trust which leg is which.
void check_fusion_point(const BenchReport& r, const BenchSeries& s,
                        const BenchPoint& p, std::vector<std::string>* errors) {
  const auto it = p.counters.find("fused");
  if (it == p.counters.end())
    errors->push_back(point_id(r, s, p) + ": missing fused counter");
  else if (it->second != 0 && it->second != 1)
    errors->push_back(point_id(r, s, p) + ": fused counter must be 0 or 1");
  if (p.pps <= 0)
    errors->push_back(point_id(r, s, p) + ": fusion point has no throughput");
}

/// Million-flow scale ("scale") point-shape contract: every point carries
/// the full build/probe block — `entries`, `build_seconds`, `lookups_per_s`,
/// `lines_per_lookup`, `memory_bytes`, `grows` — with a positive entry count
/// and probe rate, and reports zero `lookup_misses` (every probe key was
/// inserted, so a miss means the table lost an entry while growing).  The
/// CI gate compares lines_per_lookup and lookups_per_s across the 100K/1M
/// points; a point missing either (or one that silently dropped probes to
/// misses) would make those ratios lie.
void check_scale_point(const BenchReport& r, const BenchSeries& s,
                       const BenchPoint& p, std::vector<std::string>* errors) {
  if (!require_counters(r, s, p, "scale",
                        {"entries", "build_seconds", "lookups_per_s", "lines_per_lookup",
                         "memory_bytes", "grows"},
                        errors))
    return;
  if (p.counters.at("entries") <= 0)
    errors->push_back(point_id(r, s, p) + ": scale point has no entries");
  if (p.counters.at("lookups_per_s") <= 0)
    errors->push_back(point_id(r, s, p) + ": scale point has no probe rate");
  const auto miss = p.counters.find("lookup_misses");
  if (miss != p.counters.end() && miss->second != 0)
    errors->push_back(point_id(r, s, p) + ": scale point lost entries (" +
                      std::to_string(miss->second) + " probe misses)");
}

/// Batched flow-mod churn ("churn") point-shape contract: the per-worker
/// rate contract (check_worker_pps) plus the churn pair — `churn_target` and achieved
/// `churn_mods_per_s`, the latter positive whenever the target is — and the
/// latency percentile block on every point, since tail-under-batched-update
/// load is the figure's claim.  The CI gate divides the 100k-target point's
/// pps by the 0-target baseline's.
void check_churn_point(const BenchReport& r, const BenchSeries& s,
                       const BenchPoint& p, std::vector<std::string>* errors) {
  if (!check_worker_pps(r, s, p, errors)) return;
  const auto target_it = p.counters.find("churn_target");
  const auto rate_it = p.counters.find("churn_mods_per_s");
  if (target_it == p.counters.end() || rate_it == p.counters.end()) {
    errors->push_back(point_id(r, s, p) +
                      ": churn point missing churn_target/churn_mods_per_s");
    return;
  }
  if (target_it->second > 0 && rate_it->second <= 0)
    errors->push_back(point_id(r, s, p) +
                      ": churn target set but no mods were applied");
  if (p.latency_ns.empty())
    errors->push_back(point_id(r, s, p) +
                      ": churn point carries no latency_ns percentile block");
}

}  // namespace

std::vector<std::string> validate_report(const BenchReport& report) {
  std::vector<std::string> errors;
  for (const BenchSeries& s : report.series) {
    for (const BenchPoint& p : s.points) {
      check_latency_block(report, s, p, &errors);
      check_chaos_point(report, s, p, &errors);
      if (report.figure == "fig19") check_fig19_point(report, s, p, &errors);
      if (report.figure == "fig10" || report.figure == "fig11")
        check_trace_point(report, s, p, &errors);
      if (report.figure == "ct") check_ct_point(report, s, p, &errors);
      if (report.figure == "fusion") check_fusion_point(report, s, p, &errors);
      if (report.figure == "scale") check_scale_point(report, s, p, &errors);
      if (report.figure == "churn") check_churn_point(report, s, p, &errors);
    }
  }
  return errors;
}

}  // namespace esw::perf
