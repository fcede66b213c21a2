// Repeated runs and their comparison.
#pragma once

#include <string>
#include <vector>

namespace e2e {

struct RepeatOptions {
  int rounds = 5;
  int sets = 1;  // independent sets of `rounds` rounds each
  std::vector<std::string> workloads;
  std::vector<std::string> child_args;  // --seed/--seconds/--trace/--smoke/--out
  std::string json_path;
};

/// Runs every workload `sets * rounds` times, each in a fresh process of
/// this binary, alternating the workload order between rounds, and writes
/// all results (with the machine fingerprint) to one JSON file.  Returns
/// non-zero if any run failed.
int run_repeat(const RepeatOptions& o);

/// Compares two repeat files per (end-to-end metric, workload): medians,
/// IQRs, the ratio to the base and a verdict — better, within bound,
/// regressed or unresolved — against the bounds in `bench_json`.  A path
/// may end in "#N" to select set N of a multi-set file.  Returns 1 if
/// anything regressed.
int run_compare(const std::string& base, const std::string& next,
                const std::string& bench_json);

}  // namespace e2e
