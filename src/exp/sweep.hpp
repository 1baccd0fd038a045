#pragma once

// The parallel sweep engine. A sweep is a grid of cells (one SystemConfig
// per cell, labelled by its axis values); every cell is executed with
// `runs` consecutive seeds. The (cell, run) pairs are independent — each
// run owns a private core::System, the simulation kernel inside stays
// single-threaded — so the engine farms them out to a worker pool and
// writes each result into a preallocated slot. Aggregation happens after
// the join, in grid order, which makes the output a pure function of
// (spec, runs, base seed): `--jobs N` is byte-identical to `--jobs 1`.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/experiment.hpp"
#include "exp/cli.hpp"
#include "stats/metrics.hpp"

namespace rtdb::exp {

// One axis label, e.g. {"protocol", "C"} or {"size", "12"}.
using Axis = std::pair<std::string, std::string>;

struct Cell {
  std::vector<Axis> axes;
  core::SystemConfig config;
};

// The grid description a bench binary builds before running anything.
struct SweepSpec {
  std::string name;   // machine name, e.g. "fig2_throughput"
  std::string title;  // the table caption
  int default_runs = core::ExperimentRunner::kDefaultRuns;

  std::vector<Cell> cells;

  // Returns the new cell's index (benches use it to find results back).
  std::size_t add_cell(std::vector<Axis> axes, core::SystemConfig config) {
    cells.push_back(Cell{std::move(axes), std::move(config)});
    return cells.size() - 1;
  }
};

// Results of one cell: the per-run RunResults in seed order plus
// aggregation helpers over them.
struct CellResult {
  std::vector<Axis> axes;
  std::uint64_t base_seed = 0;
  std::vector<core::RunResult> runs;

  stats::RunAggregate aggregate(
      const core::ExperimentRunner::Extractor& extract) const {
    return core::ExperimentRunner::aggregate(runs, extract);
  }
  stats::RunAggregate aggregate(const core::RunScalar& scalar) const {
    return aggregate([&scalar](const core::RunResult& r) {
      return scalar.extract(r);
    });
  }
  stats::RunAggregate throughput() const {
    return aggregate(*core::find_run_scalar("throughput_objects_per_sec"));
  }
  stats::RunAggregate pct_missed() const {
    return aggregate(*core::find_run_scalar("pct_missed"));
  }
  double mean_of(const char* scalar_name) const {
    return aggregate(*core::find_run_scalar(scalar_name)).mean;
  }
};

struct SweepResult {
  std::string name;
  std::string title;
  int runs_per_cell = 0;
  std::uint64_t base_seed = 0;
  // Execution-substrate provenance. Empty when every cell ran on the
  // simulation — the artifact then omits the backend/hardware header
  // fields, keeping sim artifacts byte-identical with pre-backend ones.
  // "threads" when every cell ran on real threads, "mixed" otherwise;
  // rt_workers/rt_unit_nanos describe the thread cells.
  std::string backend;
  std::uint32_t rt_workers = 0;
  std::uint64_t rt_unit_nanos = 0;
  std::vector<CellResult> cells;

  const CellResult& cell(std::size_t index) const { return cells.at(index); }
};

// Executes the grid. Honors opts.runs / opts.seed overrides (falling back
// to spec.default_runs and each cell config's own seed), runs on
// opts.effective_jobs() workers, and reports progress to stderr unless
// opts.quiet. Deterministic: the result depends only on (spec, runs,
// seed), never on the worker count or scheduling.
// Before any run starts, also checks the CLI's fault sites against every
// cell: a --crash-at or --partition site id a cell does not have is a
// usage error, reported on stderr with exit status 2 (as a bad flag is).
SweepResult run_sweep(const SweepSpec& spec, const Options& opts);

// That check on its own: the message naming the flag and the first
// out-of-range site, or nullopt when every cell has every named site.
std::optional<std::string> check_fault_sites(const SweepSpec& spec,
                                             const Options& opts);

}  // namespace rtdb::exp
