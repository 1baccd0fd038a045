#pragma once

// Correctness checks the benchmark applies to every operation. Each one
// compares the program's output with a figure reached apart from it (the
// configured count, an independent regeneration of the workload, the
// benchmark's own counters) or with a property the method must have
// (conflict serializability, the paper's protocol ordering). Every check
// returns an empty string when it passes and the reason when it fails.

#include <cstdint>
#include <span>
#include <string>

#include "cc/serializability.hpp"
#include "stats/monitor.hpp"
#include "txn/transaction.hpp"

namespace perfbench {

// The lifecycle totals of one simulated run.
struct RunCounts {
  std::uint64_t arrived = 0;
  std::uint64_t processed = 0;
  std::uint64_t committed = 0;
  std::uint64_t missed = 0;
  std::uint64_t shed = 0;
};

// arrived == configured count, processed + shed == arrived, committed +
// missed == processed.
std::string check_conservation(std::uint64_t configured, const RunCounts& c);

// The monitor's records against a fresh regeneration of the workload:
// one record per generated transaction, each with the generated size,
// and no transaction id committed twice.
std::string check_records(std::span<const rtdb::stats::TxnRecord> records,
                          std::span<const rtdb::txn::TransactionSpec> specs);

// The committed history is conflict-serializable and holds exactly the
// committed transactions.
std::string check_history(const rtdb::cc::HistoryRecorder& history,
                          std::uint64_t committed);

// Paper §3.3: at size 20 the ceiling protocol beats priority 2PL, which
// beats plain 2PL, in mean throughput.
std::string check_paper_ordering(double c, double p, double l);

// One thread-backend batch, as counted by the benchmark itself.
struct RtBatchCounts {
  std::uint64_t transactions = 0;
  std::uint64_t commits = 0;          // summed over transactions
  std::uint64_t max_commits = 0;      // most commits of any one transaction
  std::uint64_t min_commits = 0;      // fewest commits of any one transaction
  std::uint64_t acquires_returned = 0;
  std::uint64_t table_grants = 0;     // RtLockTable::stats().grants delta
  std::uint64_t overlapping_writers = 0;
  bool quiescent = true;
};

std::string check_rt_batch(const RtBatchCounts& c);

}  // namespace perfbench
