// The simulated workloads. One operation is one simulated run: build the
// System, run it until drained, collect its scalars (exactly
// core::ExperimentRunner::run_once, the entry point every sweep uses).
//
//   set-up       from process start: one cold System built for every
//                distinct run of the timed pass (see run_sim for what the
//                clock covers); then, untimed, each cell's workload is
//                regenerated for round 0 as the checks' oracle input
//   timed pass   rounds_for(cells) rounds of run_once, swept repeatedly
//                for --seconds (see timed_sweeps), each run timed by its
//                fastest execution; every execution's scalars are checked
//   check pass   one untimed run per cell with the history recorder on
//   traced pass  (--trace 1) the timed pass's runs once more, each System
//                stepped by hand with every step timed and a forwarding
//                observer in front of each controller, then the
//                standalone layer harnesses

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "analysis/bounds.hpp"
#include "bench.hpp"
#include "checks.hpp"
#include "core/experiment.hpp"
#include "core/system.hpp"
#include "harness.hpp"

namespace perfbench {

namespace {

using rtdb::core::DistScheme;
using rtdb::core::RunResult;
using rtdb::core::System;
using rtdb::core::SystemConfig;

double scalar(const RunResult& result, const char* name) {
  const rtdb::core::RunScalar* s = rtdb::core::find_run_scalar(name);
  if (s == nullptr) throw std::logic_error(std::string("no run scalar ") + name);
  return s->extract(result);
}

std::uint64_t count(const RunResult& result, const char* name) {
  return static_cast<std::uint64_t>(std::llround(scalar(result, name)));
}

// The scalars a hand-stepped System yields without the runner: the
// traced pass recomputes these and must match the untimed pass exactly.
constexpr const char* kReplayed[] = {
    "throughput_objects_per_sec", "pct_missed", "arrived", "processed",
    "committed", "missed", "avg_response_units", "avg_blocked_units",
    "ceiling_blocks", "elapsed_units", "bound_blocking_units",
    "conformance_violations"};
constexpr std::size_t kReplayedCount = std::size(kReplayed);

// One operation of the timed pass, with what the other passes need.
struct Op {
  std::size_t cell = 0;
  std::uint64_t seed = 0;
  double replayed[kReplayedCount] = {};
  std::uint64_t processed = 0;
  std::uint64_t committed = 0;
  std::uint64_t restarts = 0;
  std::uint64_t commit_rounds = 0;
  std::uint64_t batched = 0;
  std::uint64_t flushes = 0;
};

Op summarize(const RunResult& r, std::size_t cell, std::uint64_t seed) {
  Op op;
  op.cell = cell;
  op.seed = seed;
  for (std::size_t i = 0; i < kReplayedCount; ++i) {
    op.replayed[i] = scalar(r, kReplayed[i]);
  }
  op.processed = count(r, "processed");
  op.committed = count(r, "committed");
  op.restarts = count(r, "restarts");
  op.commit_rounds = count(r, "commit_rounds");
  op.batched = count(r, "batched_messages");
  op.flushes = count(r, "batch_flushes");
  return op;
}

// Two executions of one run: the simulation is a pure function of its
// configuration, so every scalar must repeat exactly.
bool same_run(const Op& a, const Op& b) {
  return std::equal(std::begin(a.replayed), std::end(a.replayed),
                    std::begin(b.replayed)) &&
         a.restarts == b.restarts && a.commit_rounds == b.commit_rounds &&
         a.batched == b.batched && a.flushes == b.flushes;
}

SystemConfig config_for(const Cell& cell, std::uint64_t seed) {
  SystemConfig cfg = cell.config;
  cfg.seed = seed;
  return cfg;
}

// Checks on every simulated run, from its scalars alone.
std::string check_run(const RunResult& r, const Cell& cell) {
  const RunCounts counts{count(r, "arrived"), count(r, "processed"),
                         count(r, "committed"), count(r, "missed"),
                         count(r, "shed")};
  std::string why = check_conservation(
      cell.config.workload.transaction_count, counts);
  if (!why.empty()) return why;
  for (const char* audit : {"invariant_violations", "conformance_violations",
                            "bound_violations"}) {
    if (count(r, audit) != 0) {
      return std::string(audit) + " = " + std::to_string(count(r, audit));
    }
  }
  return {};
}

// The untimed oracle run: history recorder on, then the records, the
// committed history and the post-run invariants are checked.
std::string check_cell(const Cell& cell, std::uint64_t seed,
                       const Specs& regenerated) {
  SystemConfig cfg = config_for(cell, seed);
  cfg.record_history = true;
  System system{cfg};
  system.run_to_completion();
  const auto& records = system.monitor().records();
  const rtdb::stats::Metrics m = system.metrics();
  RunCounts counts{m.arrived, m.processed, m.committed, m.missed, 0};
  for (const auto& record : records) counts.shed += record.shed ? 1 : 0;
  std::string why =
      check_conservation(cfg.workload.transaction_count, counts);
  if (why.empty()) why = check_records(records, regenerated);
  // The local-ceiling scheme hands no history recorder to its replicated
  // executors, so its history is empty and those cells get no
  // serializability check.
  if (why.empty() && cfg.scheme != DistScheme::kLocalCeiling) {
    why = check_history(*system.history(), m.committed);
  }
  if (why.empty()) {
    std::string reason;
    if (system.invariant_violations(&reason) != 0) {
      why = "invariant violated: " + reason;
    }
  }
  if (why.empty() && system.conformance() != nullptr &&
      (system.conformance()->violations() != 0 ||
       system.conformance()->bound_violations() != 0)) {
    why = "audit flagged the run:\n" + system.conformance()->format_reports();
  }
  return why;
}

// Totals of the traced pass.
struct Traced {
  Histogram step_ns;
  std::vector<double> build_ms;
  std::vector<double> analyze_us;
  std::vector<std::vector<std::int64_t>> event_times;  // round 0's runs
  ObserverTally sites;     // site controllers
  ObserverTally managers;  // ceiling managers' embedded protocols
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t manager_requests = 0;
  std::uint64_t replica_updates = 0;
  double wall_ms = 0;
};

using Forwarders = std::vector<std::unique_ptr<ForwardingObserver>>;

void interpose(rtdb::cc::ConcurrencyController& controller,
               ObserverTally& tally, Forwarders& out) {
  out.push_back(
      std::make_unique<ForwardingObserver>(controller.observer(), tally));
  controller.set_observer(out.back().get());
}

// One traced run; returns false when its scalars differ from the
// untraced run of the same configuration.
bool traced_run(const Op& op, std::uint64_t index, const SystemConfig& cfg,
                bool keep_times, Traced& t, SpanLog& spans) {
  const auto op_start = Clock::now();
  // Declared before the System so they outlive every callback into them.
  Forwarders forwarders;
  const auto build_start = Clock::now();
  auto system = std::make_unique<System>(cfg);
  const auto build_end = Clock::now();
  spans.add("core.build", build_start, build_end, index);
  t.build_ms.push_back(static_cast<double>(ns_between(build_start, build_end)) /
                       1e6);

  for (std::uint32_t s = 0; s < system->site_count(); ++s) {
    auto& site = system->site(s);
    interpose(*site.cc, t.sites, forwarders);
    if (site.manager != nullptr) {
      interpose(site.manager->protocol(), t.managers, forwarders);
    }
    for (auto& manager : site.shard_managers) {
      if (manager != nullptr) {
        interpose(manager->protocol(), t.managers, forwarders);
      }
    }
  }

  const auto run_start = Clock::now();
  std::vector<std::int64_t>* times = nullptr;
  if (keep_times) times = &t.event_times.emplace_back();
  system->start();
  rtdb::sim::Kernel& kernel = system->kernel();
  while (true) {
    const std::int64_t forwarded_before =
        t.sites.forwarded_ns + t.managers.forwarded_ns;
    const auto step_start = Clock::now();
    const bool stepped = kernel.step();
    const auto step_end = Clock::now();
    if (!stepped) break;
    const std::int64_t check_ns =
        t.sites.forwarded_ns + t.managers.forwarded_ns - forwarded_before;
    t.step_ns.add(ns_between(step_start, step_end) - check_ns);
    if (times != nullptr) times->push_back(kernel.now().as_ticks());
  }
  spans.add("sim.run", run_start, Clock::now(), index);

  const auto analyze_start = Clock::now();
  const rtdb::analysis::BlockingBounds bounds = rtdb::analysis::analyze(cfg);
  const auto analyze_end = Clock::now();
  spans.add("analysis.analyze", analyze_start, analyze_end, index);
  t.analyze_us.push_back(
      static_cast<double>(ns_between(analyze_start, analyze_end)) / 1e3);

  RunResult replay;
  replay.metrics = system->metrics();
  replay.elapsed = kernel.now() - rtdb::sim::TimePoint::origin();
  replay.bound_blocking_units = bounds.worst_bound_units();
  if (system->conformance() != nullptr) {
    replay.conformance_violations = system->conformance()->violations();
  }
  t.events += kernel.events_executed();
  if (system->network() != nullptr) {
    t.messages += system->network()->messages_sent();
  }
  for (std::uint32_t s = 0; s < system->site_count(); ++s) {
    auto& site = system->site(s);
    if (site.manager != nullptr) {
      t.manager_requests += site.manager->acquire_requests();
    }
    for (auto& manager : site.shard_managers) {
      if (manager != nullptr) t.manager_requests += manager->acquire_requests();
    }
    if (site.replication != nullptr) {
      t.replica_updates += site.replication->updates_sent();
    }
  }
  system.reset();
  spans.add("op", op_start, Clock::now(), index);

  for (std::size_t i = 0; i < kReplayedCount; ++i) {
    if (scalar(replay, kReplayed[i]) != op.replayed[i]) {
      std::cerr << "[perfbench] traced run differs in " << kReplayed[i]
                << " (seed " << cfg.seed << "): "
                << scalar(replay, kReplayed[i]) << " vs " << op.replayed[i]
                << "\n";
      return false;
    }
  }
  return true;
}

double per(double part, double whole) { return whole > 0 ? part / whole : 0.0; }

}  // namespace

Report run_sim(const Options& options, const Workload& workload,
               Clock::time_point process_start) {
  Report report;
  const auto& cells = workload.cells;

  // ---- set-up ----
  // setup_s is the host time from process start to the first build plus
  // the construction of one System for each distinct run of the timed
  // pass, summed: core::System construction over the pass. Each build is
  // cold, the first of its configuration in the process. Destruction and
  // the copies kept for later passes are left out of it.
  const std::uint64_t rounds = rounds_for(cells.size());
  std::int64_t setup_ns = ns_between(process_start, Clock::now());
  std::vector<SystemConfig> configs0;  // as the System completed them
  std::vector<rtdb::db::Database> schemas0;
  for (std::uint64_t round = 0; round < rounds; ++round) {
    for (const Cell& cell : cells) {
      const SystemConfig cfg = config_for(cell, round_seed(options.seed, round));
      const auto build_start = Clock::now();
      System cold{cfg};
      setup_ns += ns_between(build_start, Clock::now());
      if (round == 0) {
        schemas0.push_back(cold.schema());
        configs0.push_back(cold.config());
      }
    }
  }
  const double setup_s = static_cast<double>(setup_ns) / 1e9;
  // The checks' oracle input, generated apart from the program's runs.
  std::vector<Specs> specs0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    specs0.push_back(
        regenerate(schemas0[c], configs0[c].workload, configs0[c].seed));
  }

  // ---- timed pass ----
  std::vector<Op> ops;  // one per distinct run, round-major
  std::vector<double> sweep_ms;  // host ms of each whole sweep
  int sweeps = 0;
  // Traced, the end-to-end metrics are not reported: one sweep gives the
  // untraced reference that the traced pass is compared with.
  const std::vector<double> best_ms = timed_sweeps(
      options.trace ? 0.0 : options.seconds, rounds, cells.size(),
      [&](std::uint64_t round, std::size_t c, int sweep) {
        const std::uint64_t seed = round_seed(options.seed, round);
        ++report.attempted;
        const auto start = Clock::now();
        std::string why;
        RunResult r;
        try {
          r = rtdb::core::ExperimentRunner::run_once(
              config_for(cells[c], seed));
        } catch (const std::exception& e) {
          why = std::string("threw: ") + e.what();
        }
        const double ms =
            static_cast<double>(ns_between(start, Clock::now())) / 1e6;
        sweep_ms.resize(std::max<std::size_t>(sweep_ms.size(), sweep + 1));
        sweep_ms[sweep] += ms;
        if (why.empty()) why = check_run(r, cells[c]);
        Op op = summarize(r, c, seed);
        const std::size_t index = round * cells.size() + c;
        if (sweep == 0) {
          ops.push_back(op);
        } else if (why.empty() && !same_run(ops[index], op)) {
          why = "a repeat of the run gave different scalars";
        }
        if (!why.empty()) {
          ++report.failed;
          std::cerr << "[perfbench] " << cells[c].label << " seed " << seed
                    << " failed: " << why << "\n";
        }
        return ms;
      },
      sweeps);

  std::uint64_t processed = 0;
  for (const Op& op : ops) processed += op.processed;
  std::vector<double> run_ms = best_ms;
  const double best_total_ms =
      std::accumulate(best_ms.begin(), best_ms.end(), 0.0);
  std::cerr << "[perfbench] " << ops.size() << " distinct runs, " << sweeps
            << " sweep(s)\n";

  // ---- check pass ----
  for (std::size_t c = 0; c < cells.size(); ++c) {
    ++report.attempted;
    std::string why;
    try {
      why = check_cell(cells[c], configs0[c].seed, specs0[c]);
    } catch (const std::exception& e) {
      why = std::string("threw: ") + e.what();
    }
    if (!why.empty()) {
      ++report.failed;
      std::cerr << "[perfbench] check run " << cells[c].label
                << " failed: " << why << "\n";
    }
  }
  if (workload.kind == WorkloadKind::kFig23SingleSite) {
    double sum[3] = {};
    double n[3] = {};
    for (const Op& op : ops) {
      const std::string& label = cells[op.cell].label;
      for (int k = 0; k < 3; ++k) {
        if (label == std::string(1, "CPL"[k]) + "/20") {
          sum[k] += op.replayed[0];  // throughput_objects_per_sec
          n[k] += 1;
        }
      }
    }
    const std::string why = check_paper_ordering(
        per(sum[0], n[0]), per(sum[1], n[1]), per(sum[2], n[2]));
    if (!why.empty()) {
      report.correct = false;
      std::cerr << "[perfbench] " << why << "\n";
    }
  }

  if (!options.trace) {
    report.add("txns_per_s",
               per(static_cast<double>(processed), best_total_ms / 1e3),
               "txn/s");
    report.add("run_ms_p50", quantile(run_ms, 0.5), "ms");
    report.add("run_ms_p90", quantile(run_ms, 0.9), "ms");
    report.add("setup_s", setup_s, "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    return report;
  }

  // ---- traced pass ----
  SpanLog spans{process_start};
  Traced t;
  std::uint64_t committed = 0;
  std::uint64_t restarts = 0;
  std::uint64_t commit_rounds = 0;
  std::uint64_t batched = 0;
  std::uint64_t flushes = 0;
  const auto traced_start = Clock::now();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    ++report.attempted;
    bool same = false;
    try {
      same = traced_run(op, i, config_for(cells[op.cell], op.seed),
                        i < cells.size(), t, spans);
    } catch (const std::exception& e) {
      std::cerr << "[perfbench] traced run threw: " << e.what() << "\n";
    }
    if (!same) ++report.failed;
    committed += op.committed;
    restarts += op.restarts;
    commit_rounds += op.commit_rounds;
    batched += op.batched;
    flushes += op.flushes;
  }
  t.wall_ms = static_cast<double>(ns_between(traced_start, Clock::now())) / 1e6;

  // Workload generation alone, from the set-up's schemas and seeds.
  const auto gen_start = Clock::now();
  std::uint64_t generated = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    generated += regenerate(schemas0[c], configs0[c].workload,
                            configs0[c].seed).size();
  }
  const auto gen_end = Clock::now();
  spans.add("workload.generate", gen_start, gen_end, ops.size());

  const double txns = static_cast<double>(processed);
  const double untraced_ms = quantile(sweep_ms, 0.5);
  std::cerr << "[perfbench] tracing overhead: traced pass " << t.wall_ms
            << " ms vs untraced " << untraced_ms << " ms ("
            << (t.wall_ms / untraced_ms - 1.0) * 100.0 << "%)\n";

  const auto ratio = [](std::uint64_t part, double whole) {
    return per(static_cast<double>(part), whole);
  };
  std::map<std::string, double> layers;
  layers["sim.events_per_txn"] = ratio(t.events, txns);
  layers["sim.step_ns_p50"] = t.step_ns.quantile(0.5);
  layers["sim.step_ns_p99"] = t.step_ns.quantile(0.99);
  layers["sim.queue_op_ns"] = queue_op_ns(t.event_times);
  layers["sched.execute_ns"] = cpu_execute_ns(specs0, configs0);
  layers["cc.grants_per_txn"] = ratio(t.sites.grants, txns);
  layers["cc.blocks_per_txn"] = ratio(t.sites.blocks, txns);
  layers["cc.attempts_per_commit"] =
      ratio(t.sites.begins, static_cast<double>(committed));
  layers["cc.lock_op_ns"] = lock_op_ns(specs0);
  layers["cc.ceiling_op_ns"] = ceiling_op_ns(specs0, configs0);
  layers["net.msgs_per_txn"] = ratio(t.messages, txns);
  layers["net.msgs_per_flush"] = ratio(batched, static_cast<double>(flushes));
  layers["net.deliver_ns"] = deliver_ns(specs0, configs0);
  layers["dist.manager_requests_per_txn"] = ratio(t.manager_requests, txns);
  layers["dist.replica_updates_per_txn"] = ratio(t.replica_updates, txns);
  layers["txn.commit_rounds_per_txn"] = ratio(commit_rounds, txns);
  layers["txn.restarts_per_txn"] = ratio(restarts, txns);
  layers["core.build_ms_p50"] = quantile(t.build_ms, 0.5);
  layers["check.callback_ns_per_txn"] = per(
      static_cast<double>(t.sites.forwarded_ns + t.managers.forwarded_ns),
      txns);
  layers["check.callbacks_per_txn"] =
      ratio(t.sites.forwarded + t.managers.forwarded, txns);
  layers["analysis.analyze_us"] = quantile(t.analyze_us, 0.5);
  layers["workload.generate_us_per_txn"] =
      per(static_cast<double>(ns_between(gen_start, gen_end)) / 1e3,
          static_cast<double>(generated));
  if (workload.kind == WorkloadKind::kFig23SingleSite) {
    measure_rt_layer(options.seed, report, layers, spans);
  }
  add_layers(report, layers);

  std::filesystem::create_directories(options.out_dir);
  const std::string path = options.out_dir + "/" + workload.name + "-seed" +
                           std::to_string(options.seed) + ".trace.json";
  if (!spans.write(path)) {
    std::cerr << "[perfbench] could not write " << path << "\n";
  }
  return report;
}

}  // namespace perfbench
