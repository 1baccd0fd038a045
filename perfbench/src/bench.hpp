#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = "perfbench/out";
};

// Runs the named workload and returns its report. `process_start` is
// taken first thing in main: set-up is timed from it.
Report run_sim(const Options& options, const Workload& workload,
               Clock::time_point process_start);

// The rt layer's metrics (rt.*), from kRtBatches closed-loop batches per
// protocol on the thread backend. Counts each batch into `report` as an
// operation.
void measure_rt_layer(std::uint64_t seed, Report& report,
                      std::map<std::string, double>& layers, SpanLog& spans);

}  // namespace perfbench
