// esw_e2e — end-to-end benchmark of core::SwitchRuntime<core::Eswitch>.
//
//   esw_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//           [--out DIR] [--json FILE] [--fault NAME]
//   esw_e2e --repeat N [--sets K] [--workload all|NAME[,NAME...]] --json FILE
//           [run options]
//   esw_e2e --compare BASE[#SET] NEW[#SET] [--bench-json BENCHMARK.json]
//
// A single run prints `workload metric value unit` for every metric it
// measured, then one JSON line: {"correct", "attempted", "failed", "metrics"}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1, which adds the traced replay).  It exits 1 when any
// correctness check failed and 2 on a usage or set-up error.
#include <sys/stat.h>

#include <algorithm>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "e2e.hpp"
#include "repeat.hpp"

namespace {

int usage(const std::string& msg) {
  std::cerr << "esw_e2e: " << msg << "\n"
            << "usage: esw_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
            << "               [--smoke] [--out DIR] [--json FILE] [--fault NAME]\n"
            << "       esw_e2e --repeat N [--sets K] [--workload all|A,B] --json FILE ...\n"
            << "       esw_e2e --compare BASE[#SET] NEW[#SET] [--bench-json FILE]\n"
            << "workloads: gateway l2_1m lb ct_fw; faults: too_few_ports table_capacity\n"
            << "           flip_verdict count_mismatch\n";
  return 2;
}

std::vector<std::string> split(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  for (std::string part; std::getline(ss, part, ',');) out.push_back(part);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out_dir = "e2e-out", json_path, fault, bench_json = "BENCHMARK.json";
  std::string compare_base, compare_new;
  uint64_t seed = 1;
  double seconds = 20;
  bool traced = false, smoke = false;
  int repeat = 0, sets = 1;
  std::vector<std::string> child_args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--workload") {
        workload = value();
      } else if (a == "--seed") {
        seed = std::stoull(value());
        child_args.insert(child_args.end(), {a, std::to_string(seed)});
      } else if (a == "--seconds") {
        seconds = std::stod(value());
        if (!(seconds > 0)) throw std::invalid_argument("--seconds must be positive");
        child_args.insert(child_args.end(), {a, argv[i]});
      } else if (a == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
        traced = v == "1";
        child_args.insert(child_args.end(), {a, v});
      } else if (a == "--smoke") {
        smoke = true;
        child_args.push_back(a);
      } else if (a == "--out") {
        out_dir = value();
        child_args.insert(child_args.end(), {a, out_dir});
      } else if (a == "--json") {
        json_path = value();
      } else if (a == "--fault") {
        fault = value();
        child_args.insert(child_args.end(), {a, fault});
      } else if (a == "--repeat") {
        repeat = std::stoi(value());
      } else if (a == "--sets") {
        sets = std::stoi(value());
      } else if (a == "--compare") {
        compare_base = value();
        compare_new = value();
      } else if (a == "--bench-json") {
        bench_json = value();
      } else {
        throw std::invalid_argument("unknown argument " + a);
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }

  if (!compare_base.empty()) return e2e::run_compare(compare_base, compare_new, bench_json);

  if (repeat > 0) {
    if (json_path.empty()) return usage("--repeat needs --json FILE");
    e2e::RepeatOptions ro;
    ro.rounds = repeat;
    ro.sets = sets;
    ro.workloads = workload.empty() || workload == "all" ? e2e::workload_names() : split(workload);
    ro.child_args = child_args;
    ro.json_path = json_path;
    return e2e::run_repeat(ro);
  }

  if (workload.empty()) return usage("--workload is required");
  e2e::RunOptions opts;
  opts.seconds = seconds;
  opts.smoke = smoke;
  opts.out_dir = out_dir;
  if (fault == "too_few_ports") {
    opts.faults.too_few_ports = true;
  } else if (fault == "table_capacity") {
    opts.faults.table_capacity = true;
  } else if (fault == "flip_verdict") {
    opts.faults.flip_verdict = true;
  } else if (fault == "count_mismatch") {
    opts.faults.count_mismatch = true;
  } else if (!fault.empty()) {
    return usage("unknown fault " + fault);
  }

  e2e::Result r;
  r.workload = workload;
  r.seed = seed;
  r.seconds = seconds;
  r.traced = traced;
  try {
    ::mkdir(out_dir.c_str(), 0755);
    const e2e::Workload wl = e2e::make_workload(workload, seed, opts.faults);
    e2e::run_e2e(wl, opts, r);
    if (traced) e2e::run_traced(wl, opts, r);
  } catch (const std::exception& e) {
    std::cerr << "esw_e2e: " << workload << ": " << e.what() << "\n";
    return 2;
  }
  r.set("fail_frac", static_cast<double>(r.failed) /
                         static_cast<double>(std::max<uint64_t>(r.attempted, 1)));
  for (const e2e::MetricDef& d : traced ? e2e::kPerLayer : e2e::kEndToEnd)
    r.check(r.values.count(d.name) != 0, "metric_missing", d.name);
  e2e::print_result(r);
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << e2e::result_json(r);
  }
  return r.correct() ? 0 : 1;
}
