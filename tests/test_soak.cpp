// perf/soak.hpp — the long-haul harness at ctest scale: a clean short soak
// passes every check, and each planted fault makes exactly its check fire.
// A soak that cannot fail is a no-op; these tests are the proof it can.
//
// Sizes scale via env (same pattern as ESW_DIFF_*): ESW_SOAK_TEST_PACKETS
// bounds each run (default 60k — seconds on one core), ESW_SOAK_TEST_WORKERS
// the thread count (default 2).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/failpoint.hpp"
#include "netio/pcap.hpp"
#include "netio/pktgen.hpp"
#include "perf/bench_json.hpp"
#include "perf/soak.hpp"
#include "usecases/usecases.hpp"

namespace {

using esw::perf::Json;
using esw::perf::run_soak;
using esw::perf::SoakOptions;
using esw::perf::SoakReport;

uint64_t env_u64(const char* name, uint64_t fallback) {
  const char* s = std::getenv(name);
  return s != nullptr && *s != '\0' ? std::strtoull(s, nullptr, 0) : fallback;
}

SoakOptions test_opts() {
  SoakOptions o;
  o.target_packets = env_u64("ESW_SOAK_TEST_PACKETS", 60000);
  o.max_seconds = 60;  // backstop so a wedged runtime fails fast, not at ctest timeout
  o.workers = static_cast<uint32_t>(env_u64("ESW_SOAK_TEST_WORKERS", 2));
  o.n_prefixes = 500;
  o.n_flows = 2000;
  o.churn_rate = 4000;  // both update shapes must see traffic (see churn_chunk)
  o.checkpoint_every_ms = 20;
  return o;
}

bool has_check(const SoakReport& r, const std::string& name, bool* ok_out) {
  for (const auto& c : r.checks)
    if (c.name == name) {
      *ok_out = c.ok;
      return true;
    }
  return false;
}

/// Asserts the fault run failed overall and that `expect_failed` is the ONE
/// check that fired — a planted fault tripping a neighbouring check would
/// mean the checks alias each other.
void expect_only_failure(const SoakReport& r, const std::string& expect_failed) {
  EXPECT_FALSE(r.ok());
  for (const auto& c : r.checks)
    EXPECT_EQ(c.ok, c.name != expect_failed) << c.name << ": " << c.detail;
}

TEST(Soak, CleanRunPassesEveryCheck) {
  const SoakReport r = run_soak(test_opts());
  EXPECT_GE(r.packets, env_u64("ESW_SOAK_TEST_PACKETS", 60000));
  EXPECT_GT(r.pps, 0);
  EXPECT_GT(r.churn_mods, 0u);
  EXPECT_GE(r.checks.size(), 6u);
  for (const auto& c : r.checks) EXPECT_TRUE(c.ok) << c.name << ": " << c.detail;
  // The percentile block is populated and ordered.
  EXPECT_EQ(r.latency_ns.samples, r.packets);
  EXPECT_GT(r.latency_ns.p50, 0);
  EXPECT_LE(r.latency_ns.p50, r.latency_ns.p99);
  EXPECT_LE(r.latency_ns.p99, r.latency_ns.p999);
  EXPECT_LE(r.latency_ns.p999, r.latency_ns.max);
}

TEST(Soak, TraceReplayPassesEveryCheck) {
  // The --trace leg: every worker replays a saved capture instead of its
  // generated shard.  The capture holds the soak's own L3 mix.
  SoakOptions o = test_opts();
  const auto uc = esw::uc::make_l3(o.n_prefixes, o.seed);
  const auto traffic = esw::net::TrafficSet::from_flows(uc.traffic(256, o.seed));
  esw::net::PcapWriter w;
  esw::net::Packet p;
  for (size_t i = 0; i < traffic.size(); ++i) {
    traffic.load(i, p);
    w.add(p.data(), p.len(), i);
  }
  o.trace_pcap = ::testing::TempDir() + "soak_trace.pcap";
  ASSERT_TRUE(w.save(o.trace_pcap));
  const SoakReport r = run_soak(o);
  std::remove(o.trace_pcap.c_str());
  EXPECT_GE(r.packets, o.target_packets);
  EXPECT_GT(r.churn_mods, 0u);
  EXPECT_GE(r.checks.size(), 6u);
  for (const auto& c : r.checks) EXPECT_TRUE(c.ok) << c.name << ": " << c.detail;
}

TEST(Soak, ChurnExercisesReclamation) {
  // The soak is only a reclamation test if churn actually retires objects:
  // the side table's rebuild stream must show up in the reclaim check's
  // detail.
  const SoakReport r = run_soak(test_opts());
  bool ok = false;
  ASSERT_TRUE(has_check(r, "reclaim", &ok));
  EXPECT_TRUE(ok);
  for (const auto& c : r.checks) {
    if (c.name == "reclaim") {
      EXPECT_EQ(c.detail.find("retired=0 "), std::string::npos)
          << "churn retired nothing — the reclaim check is vacuous: " << c.detail;
    }
  }
}

TEST(Soak, PlantedBufferLeakFires) {
  SoakOptions o = test_opts();
  o.fault = SoakOptions::Fault::kLeakBuffer;
  expect_only_failure(run_soak(o), "buffer-pool");
}

TEST(Soak, PlantedStuckWorkerFires) {
  SoakOptions o = test_opts();
  o.fault = SoakOptions::Fault::kStuckWorker;
  expect_only_failure(run_soak(o), "reclaim");
}

TEST(Soak, PlantedCounterDriftFires) {
  SoakOptions o = test_opts();
  o.fault = SoakOptions::Fault::kCounterDrift;
  expect_only_failure(run_soak(o), "counter-drift");
}

TEST(Soak, LatencyFloorFailsOnAbsurdCeiling) {
  // A 1ns ceiling no real run can meet: the latency-floor check must fire
  // (and only it).
  const std::string path = ::testing::TempDir() + "soak_floor_absurd.json";
  {
    std::ofstream f(path);
    f << "{\"p50\": 1, \"p999\": 1}";
  }
  SoakOptions o = test_opts();
  o.floor_file = path;
  expect_only_failure(run_soak(o), "latency-floor");
  std::remove(path.c_str());
}

TEST(Soak, LatencyFloorPassesOnGenerousCeiling) {
  const std::string path = ::testing::TempDir() + "soak_floor_generous.json";
  {
    std::ofstream f(path);
    // A second per packet: unreachable by orders of magnitude.
    f << "{\"p50\": 1e9, \"p90\": 1e9, \"p99\": 1e9, \"p999\": 1e9, \"max\": 1e9}";
  }
  SoakOptions o = test_opts();
  o.floor_file = path;
  const SoakReport r = run_soak(o);
  bool ok = false;
  ASSERT_TRUE(has_check(r, "latency-floor", &ok));
  EXPECT_TRUE(ok);
  std::remove(path.c_str());
}

TEST(Soak, FaultNamesParse) {
  EXPECT_EQ(esw::perf::soak_fault_from_name("none"), SoakOptions::Fault::kNone);
  EXPECT_EQ(esw::perf::soak_fault_from_name("leak-buffer"),
            SoakOptions::Fault::kLeakBuffer);
  EXPECT_EQ(esw::perf::soak_fault_from_name("stuck-worker"),
            SoakOptions::Fault::kStuckWorker);
  EXPECT_EQ(esw::perf::soak_fault_from_name("counter-drift"),
            SoakOptions::Fault::kCounterDrift);
  EXPECT_FALSE(esw::perf::soak_fault_from_name("frobnicate").has_value());
}

TEST(Soak, ReportJsonRoundTrips) {
  SoakOptions o = test_opts();
  o.target_packets = env_u64("ESW_SOAK_TEST_PACKETS", 60000) / 4;
  const SoakReport r = run_soak(o);
  const auto doc = Json::parse(r.to_json());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->string_or("schema", ""), esw::perf::kSoakSchemaId);
  EXPECT_EQ(doc->number_or("packets", -1), static_cast<double>(r.packets));
  const Json* checks = doc->find("checks");
  ASSERT_NE(checks, nullptr);
  EXPECT_EQ(checks->items().size(), r.checks.size());
  for (size_t i = 0; i < r.checks.size(); ++i) {
    EXPECT_EQ(checks->items()[i].string_or("name", ""), r.checks[i].name);
    EXPECT_EQ(checks->items()[i].find("ok")->as_bool(), r.checks[i].ok);
  }
  const Json* lat = doc->find("latency_ns");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->number_or("p999", -1), r.latency_ns.p999);
  EXPECT_EQ(doc->find("ok")->as_bool(), r.ok());
}

TEST(Soak, ChaosRunPassesAllChecks) {
  // The full failpoint schedule rotates through the run; every injected fault
  // must land in a degradation counter and every standard check still hold.
  SoakOptions o = test_opts();
  o.chaos = true;
  o.chaos_period_ms = 50;
  o.target_packets = 0;  // pure time bound: the window count is what matters
  o.max_seconds = 2.0;   // long enough that every slot sees churn, twice over
  const SoakReport r = run_soak(o);
  EXPECT_TRUE(r.chaos);
  for (const auto& c : r.checks) EXPECT_TRUE(c.ok) << c.name << ": " << c.detail;
  // At least one full rotation of the 7-slot schedule...
  EXPECT_GE(r.chaos_windows, 7u);
  // ...and the faults genuinely fired at distinct points (>= 5 of them).
  size_t fired = 0;
  for (const auto& fp : r.failpoints) fired += fp.fires > 0;
  EXPECT_GE(fired, 5u);
  // Nothing stays armed after the run.
  EXPECT_FALSE(esw::common::FailpointRegistry::any_armed());
}

TEST(Soak, ChaosPlantedUnhandledLeakTrips) {
  // A fault with NO degradation path (a stolen pool buffer) must still trip
  // the conservation checks under chaos — proof the chaos run cannot mask a
  // real bug behind "expected" injected faults.
  ASSERT_TRUE(esw::common::FailpointRegistry::instance().arm("soak.leak_buffer",
                                                             "nth:1"));
  SoakOptions o = test_opts();
  o.chaos = true;
  o.chaos_period_ms = 50;
  o.target_packets = 0;
  o.max_seconds = 0.5;
  const SoakReport r = run_soak(o);  // disarms everything on its way out
  EXPECT_FALSE(r.ok());
  bool ok = true;
  ASSERT_TRUE(has_check(r, "buffer-pool", &ok));
  EXPECT_FALSE(ok);
  EXPECT_FALSE(esw::common::FailpointRegistry::any_armed());
}

TEST(Soak, ChaosReportJsonCarriesDegradation) {
  SoakOptions o = test_opts();
  o.chaos = true;
  o.chaos_period_ms = 50;
  o.target_packets = 0;
  o.max_seconds = 0.5;
  const SoakReport r = run_soak(o);
  const auto doc = Json::parse(r.to_json());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("chaos")->as_bool(), true);
  EXPECT_EQ(doc->number_or("chaos_windows", -1),
            static_cast<double>(r.chaos_windows));
  const Json* deg = doc->find("degradation");
  ASSERT_NE(deg, nullptr);
  for (const char* key :
       {"pool_exhausted", "backpressure_events", "fusion_fallbacks",
        "template_fallbacks", "mods_refused_table_full", "watchdog_stalled",
        "watchdog_recovered"})
    EXPECT_NE(deg->find(key), nullptr) << key;
  const Json* fps = doc->find("failpoints");
  ASSERT_NE(fps, nullptr);
  EXPECT_EQ(fps->items().size(), r.failpoints.size());
  EXPECT_FALSE(fps->items().empty());
}

TEST(Soak, TimeBoundedRunStops) {
  SoakOptions o = test_opts();
  o.target_packets = 0;  // pure time bound
  o.max_seconds = 0.2;
  const SoakReport r = run_soak(o);
  EXPECT_GT(r.packets, 0u);
  EXPECT_GE(r.seconds, 0.2);
  EXPECT_LT(r.seconds, 30.0);
  for (const auto& c : r.checks) EXPECT_TRUE(c.ok) << c.name << ": " << c.detail;
}

}  // namespace
