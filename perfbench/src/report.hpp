#pragma once

// The result line: one JSON object with the operation counts and every
// metric by name with its unit, printed as the last line of stdout.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Report {
  // Speaks of the pass as a whole and of the operations that did not
  // fail: it turns false when a check over the whole pass fails (the
  // paper ordering). An operation that throws or fails one of its own
  // checks counts in `failed` and leaves `correct` alone, so a result is
  // clean only when `correct` is true and `failed` is 0.
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // One line of JSON, shortest round-trip digits for every value.
  std::string json() const;
};

// Adds every per-layer metric to `report`, in BENCHMARK.json order, with
// its value from `values`, and 0 for the layers this workload does not run.
void add_layers(Report& report, const std::map<std::string, double>& values);

// The q-quantile of `samples` (sorted in place), interpolating linearly
// between the two nearest ranks, so an even count's median is the mean of
// the middle two; 0 when empty.
double quantile(std::vector<double>& samples, double q);

// Peak resident set of this process, in MB (2^20 bytes).
double peak_rss_mb();

}  // namespace perfbench
