// perfbench_loop — runs one benchmark workload and prints its raw
// results as one JSON line prefixed "PERFBENCH_RAW ".
//
//   perfbench_loop --workload query_mix --seed 7 --seconds 10
//                    [--trace 0|1] [--trace-out spans.tsv]
//
// perfbench/run.py builds this binary, runs it and turns the raw
// results into the reported metrics.
#include <sys/prctl.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "runner.h"
#include "workload.h"

int main(int argc, char** argv) {
  // Never outlive run.py: when it is killed mid-run, this run ends too.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  std::string workload;
  perfbench::RunOptions opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opts.trace = std::string(value) == "1";
    } else if (flag == "--trace-out") {
      opts.trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const perfbench::WorkloadSpec* spec = perfbench::find_workload(workload);
  if (spec == nullptr || !(opts.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: %s --workload query_mix|wire_mix "
                 "--seed N "
                 "--seconds S [--trace 0|1] [--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  std::fputs("PERFBENCH_RAW ", stdout);
  perfbench::run_workload(*spec, opts, stdout);
  return std::fflush(stdout) == 0 ? 0 : 1;
}
