#include "checks.hpp"

#include <unordered_map>
#include <unordered_set>

namespace perfbench {

std::string check_conservation(std::uint64_t configured, const RunCounts& c) {
  if (c.arrived != configured) {
    return "arrived " + std::to_string(c.arrived) + " != configured " +
           std::to_string(configured);
  }
  if (c.processed + c.shed != c.arrived) {
    return "processed " + std::to_string(c.processed) + " + shed " +
           std::to_string(c.shed) + " != arrived " + std::to_string(c.arrived);
  }
  if (c.committed + c.missed != c.processed) {
    return "committed " + std::to_string(c.committed) + " + missed " +
           std::to_string(c.missed) + " != processed " +
           std::to_string(c.processed);
  }
  return {};
}

std::string check_records(std::span<const rtdb::stats::TxnRecord> records,
                          std::span<const rtdb::txn::TransactionSpec> specs) {
  if (records.size() != specs.size()) {
    return std::to_string(records.size()) + " records for " +
           std::to_string(specs.size()) + " generated transactions";
  }
  std::unordered_map<std::uint64_t, std::uint32_t> size_of;
  for (const auto& spec : specs) size_of.emplace(spec.id.value, spec.size());
  std::unordered_set<std::uint64_t> committed;
  for (const auto& record : records) {
    const auto it = size_of.find(record.id.value);
    if (it == size_of.end()) {
      return "record for txn " + std::to_string(record.id.value) +
             " that the generator never made";
    }
    if (it->second != record.size) {
      return "txn " + std::to_string(record.id.value) + " has size " +
             std::to_string(record.size) + ", generated " +
             std::to_string(it->second);
    }
    if (record.committed && !committed.insert(record.id.value).second) {
      return "txn " + std::to_string(record.id.value) + " committed twice";
    }
  }
  return {};
}

std::string check_history(const rtdb::cc::HistoryRecorder& history,
                          std::uint64_t committed) {
  std::string cycle;
  if (!history.conflict_serializable(&cycle)) {
    return "history not conflict-serializable: " + cycle;
  }
  if (history.committed_transactions() != committed) {
    return "history holds " + std::to_string(history.committed_transactions()) +
           " committed transactions, monitor counted " +
           std::to_string(committed);
  }
  return {};
}

std::string check_paper_ordering(double c, double p, double l) {
  if (c > p && p > l) return {};
  return "size-20 throughput not C > P > L: C " + std::to_string(c) + ", P " +
         std::to_string(p) + ", L " + std::to_string(l);
}

std::string check_rt_batch(const RtBatchCounts& c) {
  if (c.min_commits != 1 || c.max_commits != 1 ||
      c.commits != c.transactions) {
    return "transactions must commit exactly once: " +
           std::to_string(c.commits) + " commits over " +
           std::to_string(c.transactions) + " transactions (min " +
           std::to_string(c.min_commits) + ", max " +
           std::to_string(c.max_commits) + ")";
  }
  if (c.table_grants != c.acquires_returned) {
    return "lock table counted " + std::to_string(c.table_grants) +
           " grants, acquire returned " + std::to_string(c.acquires_returned) +
           " times";
  }
  if (c.overlapping_writers != 0) {
    return std::to_string(c.overlapping_writers) +
           " overlapping conflicting holders";
  }
  if (!c.quiescent) return "lock table not quiescent after the batch";
  return {};
}

}  // namespace perfbench
