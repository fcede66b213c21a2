// The BENCH_*.json emitter must stay machine-readable: emit -> parse ->
// field-identical, and the google-benchmark digest must survive real output
// shapes (ArgNames suffixes, aggregate rows, flattened counters).
#include <gtest/gtest.h>

#include "perf/bench_json.hpp"

namespace esw::perf {
namespace {

// ---------- generic Json value ----------------------------------------------

TEST(Json, ParsesScalars) {
  EXPECT_EQ(Json::parse("null")->kind(), Json::Kind::kNull);
  EXPECT_TRUE(Json::parse("true")->as_bool());
  EXPECT_FALSE(Json::parse("false")->as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("-12.5e2")->as_number(), -1250.0);
  EXPECT_EQ(Json::parse("\"hi\"")->as_string(), "hi");
}

TEST(Json, ParsesEscapesAndUnicode) {
  const auto j = Json::parse(R"("a\"b\\c\n\tAé")");
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->as_string(), "a\"b\\c\n\tA\xc3\xa9");
}

TEST(Json, ParsesNestedStructures) {
  const auto j = Json::parse(R"({"a": [1, 2, {"b": true}], "c": {}})");
  ASSERT_TRUE(j.has_value());
  const Json* a = j->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_DOUBLE_EQ(a->items()[0].as_number(), 1.0);
  EXPECT_TRUE(a->items()[2].find("b")->as_bool());
  EXPECT_EQ(j->find("c")->members().size(), 0u);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_FALSE(Json::parse("").has_value());
  EXPECT_FALSE(Json::parse("{").has_value());
  EXPECT_FALSE(Json::parse("[1,]").has_value());
  EXPECT_FALSE(Json::parse("{\"a\" 1}").has_value());
  EXPECT_FALSE(Json::parse("tru").has_value());
  EXPECT_FALSE(Json::parse("1 trailing").has_value());
  EXPECT_FALSE(Json::parse("\"unterminated").has_value());
}

TEST(Json, RejectsExcessiveNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(Json::parse(deep).has_value());
}

TEST(Json, DumpParsesBackIdentically) {
  const char* src = R"({"name": "BM_X/flows:10", "pps": 1234567.5, "ok": true})";
  const auto j = Json::parse(src);
  ASSERT_TRUE(j.has_value());
  const auto j2 = Json::parse(j->dump());
  ASSERT_TRUE(j2.has_value());
  EXPECT_EQ(j2->string_or("name", ""), "BM_X/flows:10");
  EXPECT_DOUBLE_EQ(j2->number_or("pps", 0), 1234567.5);
  EXPECT_TRUE(j2->find("ok")->as_bool());
}

// ---------- esw-bench-v1 round trip -----------------------------------------

BenchReport sample_report() {
  BenchReport r;
  r.figure = "fig10";
  r.title = "l2";
  r.git_sha = "deadbeefcafe";
  BenchSeries s;
  s.name = "BM_Fig10_L2";
  BenchPoint p1;
  p1.label = "size:1000/flows:100/es:1";
  p1.x = 1;
  p1.pps = 12.5e6;
  p1.cycles_per_pkt = 240.25;
  p1.counters = {{"pps", 12.5e6}, {"cycles_per_pkt", 240.25}, {"real_time", 0.05}};
  BenchPoint p2;
  p2.label = "size:1000/flows:100/es:0";
  p2.x = 0;
  p2.pps = 1.9e6;
  p2.cycles_per_pkt = 1571.0;
  s.points = {p1, p2};
  r.series = {s};
  return r;
}

TEST(BenchReport, EmitParseRoundTrip) {
  const BenchReport orig = sample_report();
  const std::string json = report_to_json(orig);
  const auto parsed = report_from_json(json);
  ASSERT_TRUE(parsed.has_value());

  EXPECT_EQ(parsed->figure, orig.figure);
  EXPECT_EQ(parsed->title, orig.title);
  EXPECT_EQ(parsed->git_sha, orig.git_sha);
  ASSERT_EQ(parsed->series.size(), 1u);
  EXPECT_EQ(parsed->series[0].name, "BM_Fig10_L2");
  ASSERT_EQ(parsed->series[0].points.size(), 2u);

  const BenchPoint& p = parsed->series[0].points[0];
  EXPECT_EQ(p.label, "size:1000/flows:100/es:1");
  EXPECT_DOUBLE_EQ(p.x, 1);
  EXPECT_DOUBLE_EQ(p.pps, 12.5e6);
  EXPECT_DOUBLE_EQ(p.cycles_per_pkt, 240.25);
  ASSERT_EQ(p.counters.size(), 3u);
  EXPECT_DOUBLE_EQ(p.counters.at("real_time"), 0.05);
  EXPECT_DOUBLE_EQ(parsed->series[0].points[1].pps, 1.9e6);
}

TEST(BenchReport, EmitsSchemaIdAndStableFields) {
  const std::string json = report_to_json(sample_report());
  const auto doc = Json::parse(json);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->string_or("schema", ""), kBenchSchemaId);
  EXPECT_EQ(doc->string_or("figure", ""), "fig10");
  EXPECT_EQ(doc->string_or("git_sha", ""), "deadbeefcafe");
  const Json* series = doc->find("series");
  ASSERT_NE(series, nullptr);
  const Json* point = &series->items()[0].find("points")->items()[0];
  // Every point must carry the stable quartet the trajectory diffs.
  EXPECT_NE(point->find("label"), nullptr);
  EXPECT_NE(point->find("x"), nullptr);
  EXPECT_NE(point->find("pps"), nullptr);
  EXPECT_NE(point->find("cycles_per_pkt"), nullptr);
}

TEST(BenchReport, RejectsWrongSchemaOrShape) {
  EXPECT_FALSE(report_from_json("{}").has_value());
  EXPECT_FALSE(report_from_json(R"({"schema": "other", "series": []})").has_value());
  EXPECT_FALSE(
      report_from_json(R"({"schema": "esw-bench-v1", "series": 7})").has_value());
  EXPECT_FALSE(report_from_json("not json at all").has_value());
}

// ---------- google-benchmark digestion ---------------------------------------

TEST(BenchReport, DigestsGoogleBenchmarkOutput) {
  const char* gb = R"({
    "context": {"date": "2026-07-29", "host_name": "ci"},
    "benchmarks": [
      {"name": "BM_Fig10_L2/size:1/flows:10/es:1/iterations:1",
       "run_type": "iteration",
       "iterations": 1, "real_time": 5.1e7, "time_unit": "ns",
       "pps": 1.25e7, "cycles_per_pkt": 240.5},
      {"name": "BM_Fig10_L2/size:1/flows:10/es:0", "run_type": "iteration",
       "iterations": 1, "real_time": 6.0e7, "time_unit": "ns",
       "pps": 2.0e6, "cycles_per_pkt": 1500.0},
      {"name": "BM_Fig10_L2/size:1/flows:10/es:1", "run_type": "aggregate",
       "aggregate_name": "mean", "pps": 1.25e7},
      {"name": "BM_Other", "run_type": "iteration", "iterations": 3,
       "real_time": 100.0}
    ]
  })";
  const auto r = report_from_google_benchmark(gb, "fig10", "l2", "abc123");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->figure, "fig10");
  EXPECT_EQ(r->git_sha, "abc123");
  ASSERT_EQ(r->series.size(), 2u);

  const BenchSeries& s = r->series[0];
  EXPECT_EQ(s.name, "BM_Fig10_L2");
  ASSERT_EQ(s.points.size(), 2u);  // aggregate row dropped
  EXPECT_EQ(s.points[0].label, "size:1/flows:10/es:1/iterations:1");
  EXPECT_DOUBLE_EQ(s.points[0].x, 1);  // last sweep arg (es:1); modifiers skipped
  EXPECT_DOUBLE_EQ(s.points[0].pps, 1.25e7);
  EXPECT_DOUBLE_EQ(s.points[0].cycles_per_pkt, 240.5);
  EXPECT_DOUBLE_EQ(s.points[0].counters.at("real_time"), 5.1e7);

  EXPECT_EQ(r->series[1].name, "BM_Other");
  EXPECT_EQ(r->series[1].points[0].label, "");
  EXPECT_DOUBLE_EQ(r->series[1].points[0].pps, 0);

  // The digest must itself round-trip through the stable schema.
  const auto r2 = report_from_json(report_to_json(*r));
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->series.size(), r->series.size());
  EXPECT_DOUBLE_EQ(r2->series[0].points[1].cycles_per_pkt, 1500.0);
}

TEST(BenchReport, RejectsNonBenchmarkInput) {
  EXPECT_FALSE(report_from_google_benchmark("[]", "f", "t", "s").has_value());
  EXPECT_FALSE(report_from_google_benchmark("{\"benchmarks\": 1}", "f", "t", "s")
                   .has_value());
}

// ---------- latency_ns block (additive schema extension) ---------------------

std::map<std::string, double> full_latency_block() {
  return {{"p50", 100.0}, {"p90", 200.0}, {"p99", 400.0},
          {"p999", 900.0}, {"max", 2500.0}};
}

TEST(BenchReport, LatencyBlockRoundTrips) {
  BenchReport r = sample_report();
  r.series[0].points[0].latency_ns = full_latency_block();
  const auto parsed = report_from_json(report_to_json(r));
  ASSERT_TRUE(parsed.has_value());
  const BenchPoint& p = parsed->series[0].points[0];
  ASSERT_EQ(p.latency_ns.size(), 5u);
  EXPECT_DOUBLE_EQ(p.latency_ns.at("p999"), 900.0);
  EXPECT_DOUBLE_EQ(p.latency_ns.at("max"), 2500.0);
  // The block is optional: a point without one parses back without one.
  EXPECT_TRUE(parsed->series[0].points[1].latency_ns.empty());
}

TEST(BenchReport, DigestLiftsLatencyCountersIntoBlock) {
  const char* gb = R"({
    "context": {"date": "2026-08-08"},
    "benchmarks": [
      {"name": "BM_Fig16_Latency/flows:10/es:1", "run_type": "iteration",
       "iterations": 1, "real_time": 1.0e6, "time_unit": "ns",
       "pps": 3.0e6, "latency_ns_p50": 110.0, "latency_ns_p90": 210.0,
       "latency_ns_p99": 410.0, "latency_ns_p999": 910.0,
       "latency_ns_max": 5000.0, "latency_samples": 123456.0}
    ]
  })";
  const auto r = report_from_google_benchmark(gb, "fig16", "latency", "sha");
  ASSERT_TRUE(r.has_value());
  const BenchPoint& p = r->series[0].points[0];
  // Lifted into the structured block...
  ASSERT_EQ(p.latency_ns.size(), 5u);
  EXPECT_DOUBLE_EQ(p.latency_ns.at("p50"), 110.0);
  EXPECT_DOUBLE_EQ(p.latency_ns.at("p999"), 910.0);
  // ...while the flat counters stay (additive schema: nothing removed).
  EXPECT_DOUBLE_EQ(p.counters.at("latency_ns_p999"), 910.0);
  EXPECT_DOUBLE_EQ(p.counters.at("latency_samples"), 123456.0);
  // And the lifted block survives the stable-schema round trip.
  const auto r2 = report_from_json(report_to_json(*r));
  ASSERT_TRUE(r2.has_value());
  EXPECT_DOUBLE_EQ(r2->series[0].points[0].latency_ns.at("max"), 5000.0);
}

// ---------- validate_report (the `run_all --check` contracts) ----------------

TEST(ValidateReport, AcceptsCleanReportAndLatencyBlock) {
  BenchReport r = sample_report();
  r.series[0].points[0].counters["trace"] = 0;
  r.series[0].points[1].counters["trace"] = 1;
  r.series[0].points[0].latency_ns = full_latency_block();
  EXPECT_TRUE(validate_report(r).empty());
}

TEST(ValidateReport, RejectsIncompleteLatencyBlock) {
  BenchReport r = sample_report();
  r.figure = "fig16";  // not trace-gated; isolates the latency contract
  r.series[0].points[0].latency_ns = full_latency_block();
  r.series[0].points[0].latency_ns.erase("p999");
  const auto errs = validate_report(r);
  ASSERT_EQ(errs.size(), 1u);
  EXPECT_NE(errs[0].find("p999"), std::string::npos);
}

TEST(ValidateReport, RejectsNonMonotoneLatencyBlock) {
  BenchReport r = sample_report();
  r.figure = "fig16";
  r.series[0].points[0].latency_ns = full_latency_block();
  r.series[0].points[0].latency_ns["p99"] = 150.0;  // below p90
  const auto errs = validate_report(r);
  ASSERT_EQ(errs.size(), 1u);
  EXPECT_NE(errs[0].find("non-monotone"), std::string::npos);
}

TEST(ValidateReport, RejectsFlatCountersWithoutBlock) {
  // A digester that drops the block while the flat counters exist would
  // silently lose the percentile data downstream.
  BenchReport r = sample_report();
  r.figure = "fig16";
  r.series[0].points[0].counters["latency_ns_p50"] = 100.0;
  const auto errs = validate_report(r);
  ASSERT_EQ(errs.size(), 1u);
  EXPECT_NE(errs[0].find("block missing"), std::string::npos);
}

TEST(ValidateReport, ChaosPointRequiresDegradationCounters) {
  // A chaos-marked point (failpoints armed during the measurement) must carry
  // the backend's whole degradation ledger; losing one would blind the chaos
  // legs.
  BenchReport r = sample_report();
  r.figure = "fig16";
  auto& c = r.series[0].points[0].counters;
  c["chaos"] = 1;
  c["template_fallbacks"] = 0;
  c["mods_refused_table_full"] = 0;
  // fusion_fallbacks deliberately missing
  const auto errs = validate_report(r);
  ASSERT_EQ(errs.size(), 1u);
  EXPECT_NE(errs[0].find("fusion_fallbacks"), std::string::npos);

  c["fusion_fallbacks"] = 3;
  EXPECT_TRUE(validate_report(r).empty());
}

TEST(ValidateReport, NonChaosPointNeedsNoDegradationCounters) {
  BenchReport r = sample_report();
  r.figure = "fig16";
  r.series[0].points[0].counters["chaos"] = 0;  // marked, not armed
  EXPECT_TRUE(validate_report(r).empty());      // second point: unmarked
}

BenchReport fig19_report() {
  BenchReport r;
  r.figure = "fig19";
  r.title = "multicore";
  r.git_sha = "sha";
  BenchSeries s;
  s.name = "BM_Fig19_MultiCore";
  BenchPoint p;
  p.label = "workers:2/flows:100/es:1/churn:1";
  p.pps = 10e6;
  p.counters = {{"threads", 2}, {"pps_w0", 5e6}, {"pps_w1", 5e6}};
  p.latency_ns = full_latency_block();
  s.points = {p};
  r.series = {s};
  return r;
}

TEST(ValidateReport, AcceptsWellFormedFig19) {
  EXPECT_TRUE(validate_report(fig19_report()).empty());
}

TEST(ValidateReport, RejectsFig19MissingWorkerRate) {
  BenchReport r = fig19_report();
  r.series[0].points[0].counters.erase("pps_w1");
  const auto errs = validate_report(r);
  ASSERT_EQ(errs.size(), 1u);
  EXPECT_NE(errs[0].find("pps_w1"), std::string::npos);
}

TEST(ValidateReport, RejectsFig19WorkerSumMismatch) {
  BenchReport r = fig19_report();
  r.series[0].points[0].counters["pps_w1"] = 1e6;  // sum 6e6 vs aggregate 10e6
  const auto errs = validate_report(r);
  ASSERT_EQ(errs.size(), 1u);
  EXPECT_NE(errs[0].find("aggregate"), std::string::npos);
}

TEST(ValidateReport, RejectsFig19ChurnPointWithoutLatency) {
  BenchReport r = fig19_report();
  r.series[0].points[0].latency_ns.clear();
  const auto errs = validate_report(r);
  ASSERT_EQ(errs.size(), 1u);
  EXPECT_NE(errs[0].find("latency_ns"), std::string::npos);
  // The same point without churn is fine: the block is only required where
  // tail-under-update-load is the figure's claim.
  r.series[0].points[0].label = "workers:2/flows:100/es:1/churn:0";
  EXPECT_TRUE(validate_report(r).empty());
}

TEST(ValidateReport, RejectsMalformedFusionPoint) {
  // The fusion figure's CI gate divides one mode's pps by another's; a
  // point without the boolean `fused` tag (or without throughput)
  // makes the ratio meaningless, so --check must refuse the report.
  BenchReport r = sample_report();
  r.figure = "fusion";
  r.series[0].points[0].counters["fused"] = 1;
  // points[1] carries no fused counter at all
  auto errs = validate_report(r);
  ASSERT_EQ(errs.size(), 1u);
  EXPECT_NE(errs[0].find("fused"), std::string::npos);
  // A non-boolean tag is rejected too.
  r.series[0].points[1].counters["fused"] = 2;
  errs = validate_report(r);
  ASSERT_EQ(errs.size(), 1u);
  EXPECT_NE(errs[0].find("0 or 1"), std::string::npos);
  // Well-formed: both points tagged.
  r.series[0].points[1].counters["fused"] = 0;
  EXPECT_TRUE(validate_report(r).empty());
  // A fusion point with no throughput is dead weight for the ratio gate.
  r.series[0].points[0].pps = 0;
  errs = validate_report(r);
  ASSERT_EQ(errs.size(), 1u);
  EXPECT_NE(errs[0].find("throughput"), std::string::npos);
}

BenchReport scale_report() {
  BenchReport r;
  r.figure = "scale";
  r.title = "cuckoo";
  r.git_sha = "sha";
  BenchSeries s;
  s.name = "BM_Scale_CuckooMillionFlow";
  BenchPoint p;
  p.label = "entries:1000000";
  p.counters = {{"entries", 1e6},       {"build_seconds", 2.5},
                {"lookups_per_s", 8e6},  {"lines_per_lookup", 2.5},
                {"lookup_misses", 0},    {"memory_bytes", 9e7},
                {"grows", 10}};
  s.points = {p};
  r.series = {s};
  return r;
}

TEST(ValidateReport, RejectsMalformedScalePoint) {
  EXPECT_TRUE(validate_report(scale_report()).empty());
  // A point without the probe rate can't feed the 1M/100K ratio gate.
  BenchReport r = scale_report();
  r.series[0].points[0].counters.erase("lookups_per_s");
  auto errs = validate_report(r);
  ASSERT_EQ(errs.size(), 1u);
  EXPECT_NE(errs[0].find("lookups_per_s"), std::string::npos);
  // Probe misses mean the table lost entries while growing.
  r = scale_report();
  r.series[0].points[0].counters["lookup_misses"] = 3;
  errs = validate_report(r);
  ASSERT_EQ(errs.size(), 1u);
  EXPECT_NE(errs[0].find("misses"), std::string::npos);
  // An empty table measured nothing.
  r = scale_report();
  r.series[0].points[0].counters["entries"] = 0;
  errs = validate_report(r);
  ASSERT_EQ(errs.size(), 1u);
  EXPECT_NE(errs[0].find("entries"), std::string::npos);
}

BenchReport churn_report() {
  BenchReport r;
  r.figure = "churn";
  r.title = "flowmods";
  r.git_sha = "sha";
  BenchSeries s;
  s.name = "BM_Churn_BatchedFlowMods";
  BenchPoint p;
  p.label = "mods_per_s:100000";
  p.pps = 10e6;
  p.counters = {{"threads", 2},
                {"pps_w0", 5e6},
                {"pps_w1", 5e6},
                {"churn_target", 100000},
                {"churn_mods_per_s", 99000}};
  p.latency_ns = full_latency_block();
  s.points = {p};
  r.series = {s};
  return r;
}

TEST(ValidateReport, RejectsMalformedChurnPoint) {
  EXPECT_TRUE(validate_report(churn_report()).empty());
  // The fig19 worker discipline applies: every worker's rate must be there.
  BenchReport r = churn_report();
  r.series[0].points[0].counters.erase("pps_w1");
  auto errs = validate_report(r);
  ASSERT_EQ(errs.size(), 1u);
  EXPECT_NE(errs[0].find("pps_w1"), std::string::npos);
  // A nonzero target that applied no mods measured the wrong thing.
  r = churn_report();
  r.series[0].points[0].counters["churn_mods_per_s"] = 0;
  errs = validate_report(r);
  ASSERT_EQ(errs.size(), 1u);
  EXPECT_NE(errs[0].find("no mods"), std::string::npos);
  // Tail-under-update-load is the claim: the percentile block is mandatory.
  r = churn_report();
  r.series[0].points[0].latency_ns.clear();
  errs = validate_report(r);
  ASSERT_EQ(errs.size(), 1u);
  EXPECT_NE(errs[0].find("latency_ns"), std::string::npos);
}

TEST(ValidateReport, RejectsMissingTraceMarker) {
  BenchReport r = sample_report();  // fig10
  r.series[0].points[0].counters["trace"] = 0;
  // points[1] carries no trace counter at all
  auto errs = validate_report(r);
  ASSERT_EQ(errs.size(), 1u);
  EXPECT_NE(errs[0].find("trace"), std::string::npos);
  // A non-0/1 marker is rejected too.
  r.series[0].points[1].counters["trace"] = 2;
  errs = validate_report(r);
  ASSERT_EQ(errs.size(), 1u);
  EXPECT_NE(errs[0].find("0 or 1"), std::string::npos);
}

}  // namespace
}  // namespace esw::perf
