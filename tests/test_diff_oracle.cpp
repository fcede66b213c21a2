// The differential oracle end to end: seeded campaigns prove the four legs
// (ES with JIT, ES interpreted, the OVS-model baseline and the spec
// interpreter flow::Pipeline::run) agree on arbitrary pipelines and traffic; a planted fault proves the minimizer
// finds the shortest failing prefix and emits a replayable pcap+DSL artifact.
//
// Scale knobs (all env-overridable so CI legs can size the run):
//   ESW_DIFF_CAMPAIGNS  seeded campaigns            (default 10)
//   ESW_DIFF_PIPELINES  pipelines per campaign      (default 6 -> 60 total)
//   ESW_DIFF_PACKETS    packets per pipeline        (default 10000)
//   ESW_TEST_SEED       base seed override (see testing/seed.hpp)
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>

#include "testing/diff_runner.hpp"
#include "testing/pipeline_gen.hpp"
#include "testing/seed.hpp"
#include "test_util.hpp"

namespace esw {
namespace {

using esw::testing::DiffOptions;
using esw::testing::DiffRunner;
using esw::testing::DiffTrace;
using esw::testing::GeneratedWorkload;
using esw::testing::GenOptions;
using esw::testing::PipelineGen;

uint32_t env_u32(const char* name, uint32_t def) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return def;
  const unsigned long v = std::strtoul(s, nullptr, 0);
  return v > 0 ? static_cast<uint32_t>(v) : def;
}

// The acceptance gate: N seeded campaigns, zero divergences across all four
// legs.  Defaults satisfy "10 campaigns, >= 50 pipelines, >= 10K packets
// per pipeline".
TEST(DiffOracle, SeededCampaignsFindNoDivergence) {
  const uint64_t base_seed =
      esw::testing::test_seed(0xD1FF04AC1Eull, "diff-oracle campaigns");
  const uint32_t campaigns = env_u32("ESW_DIFF_CAMPAIGNS", 10);
  const uint32_t pipelines = env_u32("ESW_DIFF_PIPELINES", 6);
  const uint32_t packets = env_u32("ESW_DIFF_PACKETS", 10000);

  const std::string artifacts = ::testing::TempDir() + "esw_diff_artifacts";
  DiffOptions opts;
  opts.artifact_dir = artifacts;
  DiffRunner runner(opts);

  uint64_t total_pipelines = 0, total_packets = 0;
  for (uint32_t c = 0; c < campaigns; ++c) {
    DiffRunner::CampaignStats cs;
    const auto d = runner.campaign(base_seed + c, pipelines, packets, {}, &cs);
    total_pipelines += cs.pipelines;
    total_packets += cs.packets;
    ASSERT_FALSE(d.has_value())
        << "campaign seed=" << base_seed + c << " diverged on " << d->description
        << "\n  kind=" << d->kind << " prefix=" << d->prefix_len
        << "\n  detail: " << d->detail << "\n  repro: " << d->rules_path << " + "
        << d->pcap_path;
  }
  std::printf("[diff-oracle] %llu pipelines, %llu packets x 4 legs, 0 divergences\n",
              static_cast<unsigned long long>(total_pipelines),
              static_cast<unsigned long long>(total_packets));
  // Acceptance floor — only meaningful when nothing scaled the run down.
  const bool default_scale = std::getenv("ESW_DIFF_CAMPAIGNS") == nullptr &&
                             std::getenv("ESW_DIFF_PIPELINES") == nullptr &&
                             std::getenv("ESW_DIFF_PACKETS") == nullptr;
  if (default_scale) {
    EXPECT_GE(total_pipelines, 50u);
    EXPECT_GE(total_packets, total_pipelines * 10000u);
  }
}

// Generator sanity: deterministic under a fixed seed, and a modest draw
// covers every table shape the template space has.
TEST(DiffOracle, GeneratorIsSeedDeterministicAndCoversShapes) {
  PipelineGen a(123), b(123);
  std::string shapes;
  for (int i = 0; i < 20; ++i) {
    const GeneratedWorkload wa = a.next_pipeline();
    const GeneratedWorkload wb = b.next_pipeline();
    EXPECT_EQ(wa.description, wb.description);
    ASSERT_FALSE(wa.pipeline.validate().has_value()) << *wa.pipeline.validate();
    const auto fa = a.traffic(wa, 64, 16);
    const auto fb = b.traffic(wb, 64, 16);
    ASSERT_EQ(fa.size(), fb.size());
    for (size_t j = 0; j < fa.size(); ++j) {
      EXPECT_EQ(fa[j].in_port, fb[j].in_port);
      EXPECT_EQ(fa[j].pkt.ip_dst, fb[j].pkt.ip_dst);
    }
    shapes += wa.description;
  }
  for (const char* shape : {"hash:", "lpm:", "range:", "direct:", "tuple:", "acl:"})
    EXPECT_NE(shapes.find(shape), std::string::npos)
        << "20 pipelines never drew shape " << shape;
}

// spec_for_match must actually satisfy satisfiable matches: synthesize a
// packet from each entry of a hash-shaped table and check it matches.
TEST(DiffOracle, SpecForMatchSatisfiesExactMatches) {
  Rng rng(7);
  flow::Match m;
  m.set(flow::FieldId::kIpDst, 0x0A0B0C0D);
  m.set(flow::FieldId::kUdpDst, 4789);
  for (int i = 0; i < 32; ++i) {
    const net::FlowSpec fs = esw::testing::spec_for_match(m, rng);
    const net::Packet p = test::make_packet(fs.pkt, fs.in_port);
    const proto::ParseInfo pi = test::parse_packet(p);
    EXPECT_TRUE(m.matches_packet(p.data(), pi));
  }
}

// A planted fault in the ES-JIT verdict stream must be (a) detected, (b)
// minimized to exactly the faulty packet's prefix via the binary search, and
// (c) dumped as a pcap+DSL artifact that loads back and reproduces the
// divergence under the same fault — the repro workflow, end to end.
TEST(DiffOracle, InjectedFaultMinimizesToReproArtifact) {
  const uint64_t seed =
      esw::testing::test_seed(0xFA17ull, "diff-oracle fault injection");
  PipelineGen gen(seed);
  const GeneratedWorkload wl = gen.next_pipeline();
  const DiffTrace trace = DiffTrace::from_flows(gen.traffic(wl, 5000, 64));

  // Clean run first: the workload itself must agree.
  {
    DiffRunner clean;
    const auto d = clean.run(wl.pipeline, wl.cfg, trace);
    ASSERT_FALSE(d.has_value()) << d->detail;
  }

  const size_t fault_at = 3123;
  const std::string dir = ::testing::TempDir() + "esw_fault_artifacts";
  std::filesystem::remove_all(dir);
  DiffOptions opts;
  opts.artifact_dir = dir;
  opts.fault = [fault_at](size_t idx, flow::Verdict v) {
    if (idx != fault_at) return v;
    return v.kind == flow::Verdict::Kind::kDrop ? flow::Verdict::output(7)
                                                : flow::Verdict::drop();
  };
  DiffRunner faulty(opts);
  const auto d = faulty.run(wl.pipeline, wl.cfg, trace, "planted");
  ASSERT_TRUE(d.has_value()) << "planted fault not detected";
  EXPECT_EQ(d->prefix_len, fault_at + 1) << "minimizer missed the faulty packet";
  EXPECT_EQ(d->kind, "verdict") << d->detail;
  ASSERT_FALSE(d->pcap_path.empty());
  ASSERT_FALSE(d->rules_path.empty());

  // The artifact loads back...
  std::string err;
  const auto art = esw::testing::load_repro(d->rules_path, d->pcap_path, &err);
  ASSERT_TRUE(art.has_value()) << err;
  EXPECT_EQ(art->trace.size(), fault_at + 1);
  EXPECT_EQ(art->cfg.enable_decomposition, wl.cfg.enable_decomposition);
  ASSERT_EQ(art->pipeline.tables().size(), wl.pipeline.tables().size());
  for (size_t t = 0; t < art->pipeline.tables().size(); ++t)
    EXPECT_EQ(art->pipeline.tables()[t].size(), wl.pipeline.tables()[t].size());
  for (size_t i = 0; i < art->trace.size(); ++i) {
    ASSERT_EQ(art->trace.items[i].frame, trace.items[i].frame) << "frame " << i;
    ASSERT_EQ(art->trace.items[i].in_port, trace.items[i].in_port);
  }

  // ...and reproduces: under the same fault the replay diverges at the same
  // prefix; without the fault it is clean (the planted bug, not the dump, is
  // the divergence).
  DiffRunner replay_faulty(opts);
  const auto d2 = replay_faulty.run(art->pipeline, art->cfg, art->trace, "replay");
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(d2->prefix_len, fault_at + 1);
  DiffRunner replay_clean;
  EXPECT_FALSE(replay_clean.run(art->pipeline, art->cfg, art->trace).has_value());
}

TEST(DiffOracle, EmptyTraceAgreesTrivially) {
  PipelineGen gen(5);
  const GeneratedWorkload wl = gen.next_pipeline();
  DiffRunner runner;
  EXPECT_FALSE(runner.run(wl.pipeline, wl.cfg, DiffTrace{}).has_value());
}

TEST(DiffOracle, ReproConfigRoundTripsAndSkipsRetiredKeys) {
  PipelineGen gen(11);
  const GeneratedWorkload wl = gen.next_pipeline();
  const DiffTrace trace = DiffTrace::from_flows(gen.traffic(wl, 8, 4));
  core::CompilerConfig cfg;
  cfg.direct_code_max_entries = 7;
  cfg.force_template = core::TableTemplate::kCompoundHash;  // stored as 1

  const std::string dir = ::testing::TempDir();
  const std::string rules = dir + "esw_roundtrip.rules";
  const std::string pcap = dir + "esw_roundtrip.pcap";
  ASSERT_TRUE(esw::testing::write_repro(pcap, rules, wl.pipeline, cfg, trace,
                                        trace.size(), "round trip"));
  const auto check = [&](const std::string& what) {
    std::string err;
    const auto art = esw::testing::load_repro(rules, pcap, &err);
    ASSERT_TRUE(art.has_value()) << what << ": " << err;
    EXPECT_EQ(art->cfg.direct_code_max_entries, 7u) << what;
    EXPECT_EQ(art->cfg.force_template, cfg.force_template) << what;
    EXPECT_EQ(art->trace.size(), trace.size()) << what;
    EXPECT_EQ(art->pipeline.tables().size(), wl.pipeline.tables().size()) << what;
  };
  check("fresh artifact");

  // Artifacts from older builds carry retired cfg keys (the cuckoo size
  // threshold, the fusion switch, the decomposition and tbl8 budgets, the
  // parser and range-template switches): they are skipped, and the rest of
  // the line still applies.
  std::string text;
  {
    std::FILE* f = std::fopen(rules.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
    std::fclose(f);
  }
  const std::string retired =
      " cuckoo_min_entries=16 enable_fusion=0 decompose_max_tables=2"
      " specialize_parser=0 lpm_max_tbl8_groups=99 enable_range_template=0";
  std::istringstream retired_kvs(retired);
  for (std::string kv; retired_kvs >> kv;) {
    const std::string key = kv.substr(0, kv.find('='));
    EXPECT_EQ(text.find(key), std::string::npos) << key << " still written";
  }
  const size_t at = text.find(" force_template=");
  ASSERT_NE(at, std::string::npos);
  text.insert(at, retired);
  {
    std::FILE* f = std::fopen(rules.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(text.c_str(), f);
    std::fclose(f);
  }
  check("artifact with retired keys");
  std::remove(rules.c_str());
  std::remove(pcap.c_str());
}

TEST(DiffOracle, LoadReproRejectsMalformedInputs) {
  std::string err;
  EXPECT_FALSE(esw::testing::load_repro("/nonexistent.rules", "/nonexistent.pcap", &err)
                   .has_value());
  EXPECT_FALSE(err.empty());

  const std::string dir = ::testing::TempDir();
  const std::string rules = dir + "esw_bad.rules";
  {
    std::FILE* f = std::fopen(rules.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("priority=1, actions=drop\n", f);  // rule before a table header
    std::fclose(f);
  }
  err.clear();
  EXPECT_FALSE(esw::testing::load_repro(rules, "/nonexistent.pcap", &err).has_value());
  EXPECT_NE(err.find("table header"), std::string::npos) << err;
  std::remove(rules.c_str());
}

}  // namespace
}  // namespace esw
