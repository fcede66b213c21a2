// diffhunt — the long-running differential campaign driver (CI nightly mode)
// and the repro-artifact replayer.
//
//   diffhunt [--seconds N | --campaigns N] [--seed S] [--pipelines N]
//            [--packets N] [--artifacts DIR]
//       Runs seeded campaigns (time- or count-bounded) through the four
//       DiffRunner legs.  Exit 0 = no divergence; exit 1 = divergence found
//       (artifacts written to --artifacts, default diff-artifacts/); the seed
//       of every campaign is printed, so any hit replays exactly.
//
//   diffhunt --replay FILE.rules FILE.pcap
//       Loads a repro artifact (written by a previous run or by
//       tests/test_diff_oracle) and re-runs its trace through all four
//       legs.  Exit 1 when the divergence still reproduces, 0 when fixed.
//
// Seeds default to ESW_TEST_SEED or the wall clock; every knob is also an
// env var so the nightly workflow can tune without flag plumbing.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>

#include "testing/diff_runner.hpp"
#include "testing/seed.hpp"

namespace {

using esw::testing::DiffOptions;
using esw::testing::DiffRunner;
using esw::testing::Divergence;

struct Args {
  uint64_t seed = 0;
  bool seed_set = false;
  uint32_t seconds = 0;     // 0 = use campaigns count
  uint32_t campaigns = 10;
  uint32_t pipelines = 6;
  uint32_t packets = 10000;
  std::string artifacts = "diff-artifacts";
  std::string replay_rules, replay_pcap;
};

void usage() {
  std::fprintf(stderr,
               "usage: diffhunt [--seconds N | --campaigns N] [--seed S]\n"
               "                [--pipelines N] [--packets N] [--artifacts DIR]\n"
               "       diffhunt --replay FILE.rules FILE.pcap\n");
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v;
    if (arg == "--seconds" && (v = next())) {
      a->seconds = static_cast<uint32_t>(std::strtoul(v, nullptr, 0));
    } else if (arg == "--campaigns" && (v = next())) {
      a->campaigns = static_cast<uint32_t>(std::strtoul(v, nullptr, 0));
    } else if (arg == "--seed" && (v = next())) {
      a->seed = std::strtoull(v, nullptr, 0);
      a->seed_set = true;
    } else if (arg == "--pipelines" && (v = next())) {
      a->pipelines = static_cast<uint32_t>(std::strtoul(v, nullptr, 0));
    } else if (arg == "--packets" && (v = next())) {
      a->packets = static_cast<uint32_t>(std::strtoul(v, nullptr, 0));
    } else if (arg == "--artifacts" && (v = next())) {
      a->artifacts = v;
    } else if (arg == "--replay") {
      const char* r = next();
      const char* p = next();
      if (r == nullptr || p == nullptr) return false;
      a->replay_rules = r;
      a->replay_pcap = p;
    } else {
      return false;
    }
  }
  return true;
}

void print_divergence(const Divergence& d) {
  std::printf("DIVERGENCE kind=%s prefix=%zu\n", d.kind.c_str(), d.prefix_len);
  if (!d.description.empty()) std::printf("  workload: %s\n", d.description.c_str());
  std::printf("  %s\n", d.detail.c_str());
  if (!d.rules_path.empty())
    std::printf("  repro: %s + %s\n  replay: diffhunt --replay %s %s\n",
                d.rules_path.c_str(), d.pcap_path.c_str(), d.rules_path.c_str(),
                d.pcap_path.c_str());
}

int replay(const Args& a) {
  std::string err;
  const auto art = esw::testing::load_repro(a.replay_rules, a.replay_pcap, &err);
  if (!art.has_value()) {
    std::fprintf(stderr, "diffhunt: cannot load artifact: %s\n", err.c_str());
    return 2;
  }
  std::printf("[diffhunt] replaying %zu packets over %zu tables\n",
              art->trace.size(), art->pipeline.tables().size());
  DiffOptions opts;
  opts.artifact_dir = a.artifacts;
  DiffRunner runner(opts);
  const auto d = runner.run(art->pipeline, art->cfg, art->trace, "replay");
  if (d.has_value()) {
    print_divergence(*d);
    return 1;
  }
  std::printf("[diffhunt] artifact no longer diverges (fixed)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (const char* v = std::getenv("ESW_DIFF_SECONDS")) a.seconds = std::atoi(v);
  if (const char* v = std::getenv("ESW_DIFF_CAMPAIGNS")) a.campaigns = std::atoi(v);
  if (const char* v = std::getenv("ESW_DIFF_PIPELINES")) a.pipelines = std::atoi(v);
  if (const char* v = std::getenv("ESW_DIFF_PACKETS")) a.packets = std::atoi(v);
  if (!parse_args(argc, argv, &a)) {
    usage();
    return 2;
  }
  if (!a.replay_rules.empty()) return replay(a);

  const uint64_t base_seed =
      a.seed_set ? a.seed
                 : esw::testing::test_seed(
                       static_cast<uint64_t>(std::time(nullptr)), "diffhunt");

  DiffOptions opts;
  opts.artifact_dir = a.artifacts;
  DiffRunner runner(opts);

  const std::time_t deadline = a.seconds > 0 ? std::time(nullptr) + a.seconds : 0;
  uint64_t total_pipelines = 0, total_packets = 0;
  uint32_t c = 0;
  while (deadline != 0 ? std::time(nullptr) < deadline : c < a.campaigns) {
    const uint64_t seed = base_seed + c;
    DiffRunner::CampaignStats cs;
    const auto d = runner.campaign(seed, a.pipelines, a.packets, {}, &cs);
    total_pipelines += cs.pipelines;
    total_packets += cs.packets;
    std::printf("[diffhunt] campaign %u seed=0x%" PRIx64 ": %" PRIu64
                " pipelines, %" PRIu64 " packets%s\n",
                c, seed, cs.pipelines, cs.packets,
                d.has_value() ? " -> DIVERGED" : "");
    std::fflush(stdout);
    if (d.has_value()) {
      print_divergence(*d);
      return 1;
    }
    ++c;
  }
  std::printf("[diffhunt] clean: %u campaigns, %" PRIu64 " pipelines, %" PRIu64
              " packets x 4 legs, 0 divergences\n",
              c, total_pipelines, total_packets);
  return 0;
}
