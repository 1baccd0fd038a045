#pragma once

// The benchmark's workloads: each is a fixed list of cells (one
// SystemConfig each, minus the seed). A round runs every cell once with
// one seed; a timed pass sweeps a fixed number of rounds, so every pass
// attempts the same mix of operations whatever its length.
//
// The configurations are written out here rather than taken from
// bench/params.hpp so that the benchmark's inputs stay fixed while the
// figure parameters evolve.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"

namespace perfbench {

enum class WorkloadKind : std::uint8_t {
  kFig23SingleSite,
  kScaleDistributed,
  kAuditedSingleSite,
};

struct Cell {
  std::string label;
  rtdb::core::SystemConfig config;  // seed overwritten per round
};

struct Workload {
  WorkloadKind kind;
  std::string name;
  std::vector<Cell> cells;
};

// Fills `out` with the named workload; false for an unknown name.
bool make_workload(std::string_view name, Workload& out);

// The names make_workload accepts, for usage text.
const std::vector<std::string>& workload_names();

// Seed of round `round` of a pass started with `--seed base`. Every cell
// of a round shares it, so the protocols of one size see the same
// arrivals (the paired comparison the paper's figures make).
std::uint64_t round_seed(std::uint64_t base, std::uint64_t round);

// Fig 2/3 cell (single site, heavy load, 400 transactions).
rtdb::core::SystemConfig fig23_config(rtdb::core::Protocol protocol,
                                      std::uint32_t size);

// Closed-loop thread-backend batches (traced pass of fig23_single_site):
// the Fig-2 transaction shape at size 8, three threads on a 4-core host.
inline constexpr std::uint32_t kRtSize = 8;
inline constexpr std::uint32_t kRtWorkers = 3;
inline constexpr std::uint64_t kRtBatch = 1000;    // transactions per batch
inline constexpr std::uint64_t kRtBatches = 25;    // per protocol

}  // namespace perfbench
