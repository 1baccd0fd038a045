#include "workloads.hpp"

namespace perfbench {

using rtdb::core::DistScheme;
using rtdb::core::Protocol;
using rtdb::core::SystemConfig;
using rtdb::sim::Duration;

namespace {

constexpr const char* kNames[] = {"fig23_single_site", "scale_distributed",
                                  "audited_single_site"};

const char* curve(Protocol protocol) {
  switch (protocol) {
    case Protocol::kPriorityCeiling:
      return "C";
    case Protocol::kTwoPhasePriority:
      return "P";
    case Protocol::kTwoPhase:
      return "L";
    default:
      return rtdb::core::to_string(protocol);
  }
}

// The ext_scale_sweep cell: constant 0.3 txn/unit offered load while the
// cluster and its database grow, 1tu control-message batching.
SystemConfig scale_config(DistScheme scheme, std::uint32_t sites,
                          double zipf_theta) {
  SystemConfig cfg;
  cfg.scheme = scheme;
  cfg.sites = sites;
  cfg.db_objects = 20 * sites;
  cfg.cpu_per_object = Duration::units(2);
  cfg.io_per_object = Duration::zero();
  cfg.comm_delay = Duration::units(1);
  cfg.batch_window = Duration::units(1);
  cfg.workload.size_min = 4;
  cfg.workload.size_max = 8;
  cfg.workload.mean_interarrival = Duration::from_units(10.0 / 3.0);
  cfg.workload.read_only_fraction = 0.25;
  cfg.workload.transaction_count = 30 * sites;
  cfg.workload.zipf_theta = zipf_theta;
  cfg.workload.slack_min = 3.5;
  cfg.workload.slack_max = 7;
  cfg.workload.est_time_per_object = Duration::units(3);
  return cfg;
}

std::string scale_label(DistScheme scheme, std::uint32_t sites,
                        const char* skew, const char* mix) {
  return std::string(rtdb::core::to_string(scheme)) + "/" +
         std::to_string(sites) + "/" + skew + "/" + mix;
}

}  // namespace

SystemConfig fig23_config(Protocol protocol, std::uint32_t size) {
  SystemConfig cfg;
  cfg.protocol = protocol;
  cfg.db_objects = 200;
  cfg.cpu_per_object = Duration::units(2);
  cfg.io_per_object = Duration::units(1);
  cfg.victim_policy =
      protocol == Protocol::kTwoPhase
          ? rtdb::cc::TwoPhaseLocking::VictimPolicy::kRequester
          : rtdb::cc::TwoPhaseLocking::VictimPolicy::kLowestPriority;
  cfg.workload.size_min = size;
  cfg.workload.size_max = size;
  cfg.workload.mean_interarrival = Duration::units(50);
  cfg.workload.transaction_count = 400;
  cfg.workload.slack_min = 15;
  cfg.workload.slack_max = 30;
  cfg.workload.est_time_per_object = Duration::units(4);
  cfg.workload.read_only_fraction = 0.0;
  return cfg;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names(std::begin(kNames),
                                              std::end(kNames));
  return names;
}

std::uint64_t round_seed(std::uint64_t base, std::uint64_t round) {
  // splitmix64 over (base, round): distinct, well-spread seeds per round.
  std::uint64_t z = base * 0x9e3779b97f4a7c15ull + round + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return (z ^ (z >> 31)) >> 16;
}

bool make_workload(std::string_view name, Workload& out) {
  out.name = std::string(name);
  out.cells.clear();
  if (name == kNames[0]) {
    out.kind = WorkloadKind::kFig23SingleSite;
    for (const Protocol protocol : {Protocol::kPriorityCeiling,
                                    Protocol::kTwoPhasePriority,
                                    Protocol::kTwoPhase}) {
      for (std::uint32_t size = 2; size <= 20; size += 2) {
        out.cells.push_back(
            {std::string(curve(protocol)) + "/" + std::to_string(size),
             fig23_config(protocol, size)});
      }
    }
    return true;
  }
  if (name == kNames[1]) {
    out.kind = WorkloadKind::kScaleDistributed;
    for (const DistScheme scheme :
         {DistScheme::kGlobalCeiling, DistScheme::kLocalCeiling,
          DistScheme::kPartitionedCeiling}) {
      for (const std::uint32_t sites : {8u, 32u}) {
        for (const double theta : {0.0, 0.9}) {
          out.cells.push_back(
              {scale_label(scheme, sites, theta == 0.0 ? "uniform" : "zipf0.9",
                           "rw0.25"),
               scale_config(scheme, sites, theta)});
        }
      }
    }
    for (const DistScheme scheme :
         {DistScheme::kGlobalCeiling, DistScheme::kPartitionedCeiling}) {
      SystemConfig cfg = scale_config(scheme, 32, 0.9);
      cfg.workload.read_only_fraction = 0.75;
      out.cells.push_back(
          {scale_label(scheme, 32, "zipf0.9", "rw0.75"), cfg});
    }
    return true;
  }
  if (name == kNames[2]) {
    // The global and partitioned chaos cells (8 sites, 1% message loss,
    // a manager-hosting site crashed) are left out: each fails its audit
    // or aborts on about one seed in several thousand (see CHANGES.md), so
    // whether a run fails would depend on the seed.
    out.kind = WorkloadKind::kAuditedSingleSite;
    for (const Protocol protocol :
         {Protocol::kPriorityCeiling, Protocol::kTwoPhasePriority}) {
      for (const std::uint32_t size : {12u, 20u}) {
        SystemConfig cfg = fig23_config(protocol, size);
        cfg.conformance_check = true;
        cfg.bounds_check = true;
        out.cells.push_back(
            {std::string(curve(protocol)) + "/" + std::to_string(size) +
                 "/audited",
             cfg});
      }
    }
    return true;
  }
  return false;
}

}  // namespace perfbench
