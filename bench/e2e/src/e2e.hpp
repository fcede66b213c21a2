// The two kinds of benchmark run over one workload:
//   * run_e2e — setup timing, the DiffRunner pre-flight, then the closed-loop
//     capacity phase and the open-loop latency phase through SwitchRuntime
//     with the write stream running (the end-to-end metrics and counters);
//   * run_traced — a single-threaded replay of the same inputs that times
//     each layer's public entry point (the per-layer metrics and the Chrome
//     trace).
#pragma once

#include <string>

#include "metrics.hpp"
#include "workload.hpp"

namespace e2e {

struct RunOptions {
  double seconds = 10;  // measured time, split evenly between the two phases
  bool smoke = false;   // short warmups, one setup, a small traced replay
  std::string out_dir;  // trace_<workload>.json lands here
  Faults faults;
};

void run_e2e(const Workload& wl, const RunOptions& o, Result& r);
/// Needs run_e2e's results in `r` (the layer coverage is read against the
/// measured packet rate).
void run_traced(const Workload& wl, const RunOptions& o, Result& r);

}  // namespace e2e
