#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>

namespace perfbench {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in BENCHMARK.json order.
constexpr LayerMetric kLayerMetrics[] = {
    {"sim.events_per_txn", "events/txn"},
    {"sim.step_ns_p50", "ns"},
    {"sim.step_ns_p99", "ns"},
    {"sim.queue_op_ns", "ns"},
    {"sched.execute_ns", "ns"},
    {"cc.grants_per_txn", "grants/txn"},
    {"cc.blocks_per_txn", "blocks/txn"},
    {"cc.attempts_per_commit", "attempts/commit"},
    {"cc.lock_op_ns", "ns"},
    {"cc.ceiling_op_ns", "ns"},
    {"net.msgs_per_txn", "msgs/txn"},
    {"net.msgs_per_flush", "msgs/flush"},
    {"net.deliver_ns", "ns"},
    {"dist.manager_requests_per_txn", "requests/txn"},
    {"dist.replica_updates_per_txn", "updates/txn"},
    {"txn.commit_rounds_per_txn", "rounds/txn"},
    {"txn.restarts_per_txn", "restarts/txn"},
    {"core.build_ms_p50", "ms"},
    {"check.callback_ns_per_txn", "ns/txn"},
    {"check.callbacks_per_txn", "callbacks/txn"},
    {"analysis.analyze_us", "us"},
    {"workload.generate_us_per_txn", "us/txn"},
    {"rt.acquire_ns_p50", "ns"},
    {"rt.acquire_ns_p99", "ns"},
    {"rt.release_ns_p50", "ns"},
    {"rt.latch_ns", "ns"},
    {"rt.aborts_per_txn", "aborts/txn"},
};

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

void add_layers(Report& report, const std::map<std::string, double>& values) {
  for (const LayerMetric& m : kLayerMetrics) {
    const auto it = values.find(m.name);
    report.add(m.name, it == values.end() ? 0.0 : it->second, m.unit);
  }
}

double quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) *
                           (samples[hi] - samples[lo]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
