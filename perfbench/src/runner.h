// One benchmark run of one workload: set-up, warm-up, quality probes,
// the measured closed loop, final correctness probes, and (traced runs)
// the per-layer replay probes. Emits one JSON object of raw results;
// perfbench/run.py turns it into the reported metrics.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "workload.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // traced runs write their spans here
};

// Runs `spec` and writes the raw result object to `out`; failed
// operations and correctness violations are counted in it.
void run_workload(const WorkloadSpec& spec, const RunOptions& opts,
                  std::FILE* out);

}  // namespace perfbench
