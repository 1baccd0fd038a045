#include "exp/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "exp/progress.hpp"

namespace rtdb::exp {

std::optional<std::string> check_fault_sites(const SweepSpec& spec,
                                             const Options& opts) {
  auto out_of_range = [](const char* flag, net::SiteId site,
                         std::uint32_t sites) {
    return std::string{flag} + ": site " + std::to_string(site) +
           " does not exist in a " + std::to_string(sites) +
           "-site cell (site ids are 0.." + std::to_string(sites - 1) + ")";
  };
  for (const Cell& cell : spec.cells) {
    const std::uint32_t sites = opts.sites.value_or(cell.config.sites);
    for (const net::FaultSpec::Crash& crash : opts.crashes) {
      if (crash.site >= sites) {
        return out_of_range("--crash-at", crash.site, sites);
      }
    }
    for (const net::FaultSpec::Partition& partition : opts.partitions) {
      for (const net::SiteId site : partition.group) {
        if (site >= sites) return out_of_range("--partition", site, sites);
      }
    }
  }
  return std::nullopt;
}

SweepResult run_sweep(const SweepSpec& spec, const Options& opts) {
  if (const auto error = check_fault_sites(spec, opts)) {
    std::fprintf(stderr, "%s: %s\n", spec.name.c_str(), error->c_str());
    std::exit(2);
  }
  const int runs = std::max(1, opts.runs.value_or(spec.default_runs));
  const std::size_t n_cells = spec.cells.size();
  const std::size_t total = n_cells * static_cast<std::size_t>(runs);

  auto base_seed_of = [&](std::size_t cell) {
    return opts.seed.value_or(spec.cells[cell].config.seed);
  };
  // --backend / --rt-workers overlays, applied uniformly to every cell
  // (mirrors apply_faults).
  auto apply_backend = [&](core::SystemConfig* config) {
    if (opts.backend) {
      config->backend = *opts.backend == "threads"
                            ? core::BackendKind::kThreads
                            : core::BackendKind::kSim;
    }
    if (opts.rt_workers) {
      config->rt_workers = static_cast<std::uint32_t>(*opts.rt_workers);
    }
  };

  SweepResult result;
  result.name = spec.name;
  result.title = spec.title;
  result.runs_per_cell = runs;
  result.base_seed = n_cells > 0 ? base_seed_of(0) : opts.seed.value_or(1);

  // Substrate provenance for the artifact header, from the effective
  // (post-overlay) configs.
  std::size_t thread_cells = 0;
  for (const Cell& cell : spec.cells) {
    core::SystemConfig config = cell.config;
    apply_backend(&config);
    if (config.backend == core::BackendKind::kThreads) {
      ++thread_cells;
      result.rt_workers = config.rt_workers;
      result.rt_unit_nanos = config.rt_unit_nanos;
    }
  }
  if (thread_cells > 0) {
    result.backend = thread_cells == n_cells ? "threads" : "mixed";
    if (result.rt_workers == 0) {
      // Record the resolved pool size, not the "pick for me" sentinel.
      const unsigned hw = std::thread::hardware_concurrency();
      result.rt_workers = hw > 0 ? hw : 1;
    }
  }

  // Flat (cell-major) result slots: worker interleaving decides only *when*
  // a slot fills, never *what* or *where* — determinism by construction.
  std::vector<core::RunResult> flat(total);
  std::atomic<std::size_t> next{0};
  ProgressMeter meter{spec.name, total, !opts.quiet};
  WorkerNotes notes;

  auto worker = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) return;
      const std::size_t cell = i / static_cast<std::size_t>(runs);
      const int run = static_cast<int>(i % static_cast<std::size_t>(runs));
      core::SystemConfig config = spec.cells[cell].config;
      config.seed =
          core::ExperimentRunner::seed_for_run(base_seed_of(cell), run);
      opts.apply_faults(&config.faults);
      apply_backend(&config);
      if (opts.arrival_rate) {
        config.workload.mean_interarrival =
            sim::Duration::from_units(1.0 / *opts.arrival_rate);
      }
      if (opts.sites) config.sites = *opts.sites;
      if (opts.scheme) {
        config.scheme = *opts.scheme == "global"
                            ? core::DistScheme::kGlobalCeiling
                        : *opts.scheme == "local"
                            ? core::DistScheme::kLocalCeiling
                            : core::DistScheme::kPartitionedCeiling;
      }
      if (opts.shards) config.shards = *opts.shards;
      if (opts.partitioner) {
        config.partitioner = *opts.partitioner == "range"
                                 ? core::Partitioner::kRange
                                 : core::Partitioner::kHash;
      }
      if (opts.zipf_theta) config.workload.zipf_theta = *opts.zipf_theta;
      if (opts.batch_window_units) {
        config.batch_window =
            sim::Duration::from_units(*opts.batch_window_units);
      }
      if (opts.check) config.conformance_check = true;
      if (opts.bounds) config.bounds_check = true;
      flat[i] = core::ExperimentRunner::run_once(config);
      if (flat[i].conformance_violations > 0) {
        notes.add("cell " + std::to_string(cell) + " run " +
                  std::to_string(run) + " (seed " +
                  std::to_string(config.seed) + "): " +
                  std::to_string(flat[i].conformance_violations) +
                  " conformance violation(s)");
      }
      if (flat[i].bound_violations > 0) {
        notes.add("cell " + std::to_string(cell) + " run " +
                  std::to_string(run) + " (seed " +
                  std::to_string(config.seed) + "): " +
                  std::to_string(flat[i].bound_violations) +
                  " blocking-bound violation(s)");
      }
      meter.tick();
    }
  };

  // Thread-backend cells own the whole machine (their worker pool is the
  // experiment), so the sweep runs them one at a time; sim cells keep the
  // usual run-level parallelism.
  const int jobs =
      thread_cells > 0
          ? 1
          : static_cast<int>(std::min<std::size_t>(
                static_cast<std::size_t>(opts.effective_jobs()),
                std::max<std::size_t>(total, 1)));
  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int j = 0; j < jobs; ++j) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  meter.finish();

  // Conformance summary (stderr only — the stdout/artifact path stays
  // byte-identical). Sorted: arrival order depends on worker interleaving.
  std::vector<std::string> flagged = notes.take();
  std::sort(flagged.begin(), flagged.end());
  for (const std::string& note : flagged) {
    std::fprintf(stderr, "[check] %s: %s\n", spec.name.c_str(), note.c_str());
  }

  result.cells.reserve(n_cells);
  for (std::size_t c = 0; c < n_cells; ++c) {
    CellResult cell;
    cell.axes = spec.cells[c].axes;
    cell.base_seed = base_seed_of(c);
    const auto begin = flat.begin() + static_cast<std::ptrdiff_t>(
                                          c * static_cast<std::size_t>(runs));
    cell.runs.assign(begin, begin + runs);
    result.cells.push_back(std::move(cell));
  }
  return result;
}

}  // namespace rtdb::exp
