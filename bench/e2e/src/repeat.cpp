#include "repeat.hpp"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>

#include "metrics.hpp"
#include "perf/bench_json.hpp"
#include "workload.hpp"

extern char** environ;

namespace e2e {
namespace {

using esw::perf::Json;

std::optional<Json> load_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream ss;
  ss << in.rdbuf();
  return Json::parse(ss.str());
}

/// Runs this binary with `args` (argv[0] included) and waits for it;
/// returns its exit code, or -1 if it did not start or did not exit.
int run_child(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  pid_t pid;
  if (::posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(), environ) != 0)
    return -1;
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0)
    if (errno != EINTR) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// (metric, workload) -> values in run order.
using Series = std::map<std::pair<std::string, std::string>, std::vector<double>>;

/// Loads "path" or "path#set".
std::optional<Series> load_series(const std::string& spec) {
  std::string path = spec;
  int set = -1;
  if (const size_t hash = spec.rfind('#'); hash != std::string::npos) {
    path = spec.substr(0, hash);
    set = std::stoi(spec.substr(hash + 1));
  }
  const std::optional<Json> doc = load_json(path);
  if (!doc || doc->find("runs") == nullptr) return std::nullopt;
  Series s;
  for (const Json& run : doc->find("runs")->items()) {
    if (set >= 0 && static_cast<int>(run.number_or("set", 0)) != set) continue;
    const std::string wl = run.string_or("workload", "");
    const Json* metrics = run.find("metrics");
    if (metrics == nullptr) continue;
    for (const auto& [name, m] : metrics->members())
      s[{name, wl}].push_back(m.number_or("value", 0));
  }
  return s;
}

std::string verdict(const std::vector<double>& base, const std::vector<double>& next,
                    double bound, bool lower_better) {
  const double mb = median(base), mn = median(next);
  const auto [b1, b3] = quartiles(base);
  const auto [n1, n3] = quartiles(next);
  const double sign = lower_better ? 1 : -1;
  const double worse = mb == 0 ? 0 : sign * (mn - mb) / std::fabs(mb);
  const double spread = mb == 0 ? 0 : std::max(b3 - b1, n3 - n1) / std::fabs(mb);
  const auto [bmin, bmax] = std::minmax_element(base.begin(), base.end());
  const auto [nmin, nmax] = std::minmax_element(next.begin(), next.end());
  const bool all_better = lower_better ? *nmax < *bmin : *nmin > *bmax;
  if (spread > bound) return all_better ? "better" : "unresolved";
  if (worse > bound) return "regressed";
  // A gain needs at least ten pairs, nine tenths of them won (ties count for
  // neither), and medians further apart than the base's own quartiles.
  size_t wins = 0;
  const size_t pairs = std::min(base.size(), next.size());
  for (size_t i = 0; i < pairs; ++i)
    if (sign * (next[i] - base[i]) < 0) ++wins;
  if (worse < 0 && pairs >= 10 && static_cast<double>(wins) >= 0.9 * static_cast<double>(pairs) &&
      std::fabs(mn - mb) > b3 - b1)
    return "better";
  return "within bound";
}

}  // namespace

int run_repeat(const RepeatOptions& o) {
  Json runs = Json::array();
  int rc_all = 0;
  const std::string tmp = o.json_path + ".run";
  for (int set = 0; set < o.sets; ++set)
    for (int round = 0; round < o.rounds; ++round) {
      std::vector<std::string> order = o.workloads;
      if (round % 2 == 1) std::reverse(order.begin(), order.end());
      for (const std::string& wl : order) {
        std::vector<std::string> args = {"esw_e2e", "--workload", wl, "--json", tmp};
        args.insert(args.end(), o.child_args.begin(), o.child_args.end());
        const int rc = run_child(args);
        std::optional<Json> run = load_json(tmp);
        std::remove(tmp.c_str());
        if (rc != 0 || !run) {
          std::cerr << "repeat: " << wl << " set " << set << " round " << round
                    << " exited " << rc << "\n";
          rc_all = 1;
        }
        if (!run) continue;
        run->set("set", Json::number(set));
        run->set("round", Json::number(round));
        run->set("exit", Json::number(rc));
        runs.push_back(std::move(*run));
      }
    }
  Json doc = Json::object();
  doc.set("schema", Json::string("esw-e2e-repeat-v1"));
  Json fp = Json::object();
  for (const auto& [k, v] : machine_fingerprint()) fp.set(k, Json::string(v));
  doc.set("fingerprint", std::move(fp));
  doc.set("runs", std::move(runs));
  std::ofstream out(o.json_path);
  out << doc.dump() << "\n";
  if (!out) {
    std::cerr << "repeat: cannot write " << o.json_path << "\n";
    return 1;
  }
  return rc_all;
}

int run_compare(const std::string& base, const std::string& next,
                const std::string& bench_json) {
  const std::optional<Series> b = load_series(base), n = load_series(next);
  const std::optional<Json> bench = load_json(bench_json);
  if (!b || !n || !bench || bench->find("end_to_end") == nullptr) {
    std::cerr << "compare: cannot read " << base << ", " << next << " or " << bench_json
              << "\n";
    return 2;
  }
  std::printf("%-12s %-8s %12s %10s %12s %10s %8s %6s  %s\n", "metric", "workload",
              "base_med", "base_iqr", "new_med", "new_iqr", "ratio", "bound", "verdict");
  int rc = 0;
  for (const Json& m : bench->find("end_to_end")->items()) {
    const std::string name = m.string_or("name", "");
    const double bound = m.number_or("bound", 0);
    const bool lower = m.string_or("better", "lower") == "lower";
    for (const std::string& wl : workload_names()) {
      const auto bi = b->find({name, wl}), ni = n->find({name, wl});
      if (bi == b->end() || ni == n->end() || bi->second.empty() || ni->second.empty())
        continue;
      const double mb = median(bi->second), mn = median(ni->second);
      const auto [b1, b3] = quartiles(bi->second);
      const auto [n1, n3] = quartiles(ni->second);
      const std::string v = verdict(bi->second, ni->second, bound, lower);
      if (v == "regressed") rc = 1;
      std::printf("%-12s %-8s %12.6g %10.4g %12.6g %10.4g %8.4f %6.3f  %s\n", name.c_str(),
                  wl.c_str(), mb, b3 - b1, mn, n3 - n1, mb == 0 ? 0 : mn / mb, bound,
                  v.c_str());
    }
  }
  return rc;
}

}  // namespace e2e
