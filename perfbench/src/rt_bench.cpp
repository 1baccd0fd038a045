// The thread backend's layer, measured closed-loop: kRtWorkers threads
// drive rt::RtLockTable directly, each taking the next transaction of the
// batch as soon as its previous one commits (on_begin, acquire per
// operation, release_all, on_end, retrying on TxnAborted), with no
// simulated work between acquires and no deadline. One operation is one
// batch of kRtBatch transactions under one protocol, every acquire and
// release_all timed, every batch checked against the benchmark's own
// counters.

#include <algorithm>
#include <atomic>
#include <deque>
#include <iostream>
#include <map>
#include <memory>

#include "bench.hpp"
#include "cc/types.hpp"
#include "checks.hpp"
#include "harness.hpp"
#include "rt/lock_table.hpp"
#include "rt/thread_backend.hpp"

namespace perfbench {

namespace {

using rtdb::cc::LockMode;
using rtdb::rt::RtLockTable;

struct Slot {
  rtdb::txn::TransactionSpec spec;
  rtdb::rt::RtTxn txn;
  std::atomic<std::uint32_t> commits{0};
};
using Batch = std::deque<Slot>;

// Per-thread counts; each worker writes only its own.
struct Tally {
  std::uint64_t acquires_returned = 0;
  std::uint64_t aborts = 0;
  std::uint64_t overlaps = 0;
  Histogram acquire_ns;
  Histogram release_ns;
};

// The benchmark's own record of who holds what: bumped after an acquire
// returns and dropped before release_all, so a correct lock table never
// lets a writer meet another holder here.
class HolderCounts {
 public:
  explicit HolderCounts(std::size_t objects)
      : writers_(objects), readers_(objects) {}

  // Returns true when the new holder overlaps a conflicting one.
  bool enter(rtdb::db::ObjectId object, LockMode mode) {
    if (mode == LockMode::kWrite) {
      const bool other_writer = writers_[object].fetch_add(1) != 0;
      return other_writer || readers_[object].load() != 0;
    }
    readers_[object].fetch_add(1);
    return writers_[object].load() != 0;
  }
  void leave(rtdb::db::ObjectId object, LockMode mode) {
    (mode == LockMode::kWrite ? writers_ : readers_)[object].fetch_sub(1);
  }

 private:
  std::vector<std::atomic<std::int32_t>> writers_;
  std::vector<std::atomic<std::int32_t>> readers_;
};

void run_transactions(Batch& batch, std::atomic<std::size_t>& next,
                      RtLockTable& table, HolderCounts& holders,
                      Tally& tally) {
  std::vector<std::pair<rtdb::db::ObjectId, LockMode>> held;
  for (std::size_t i = next.fetch_add(1); i < batch.size();
       i = next.fetch_add(1)) {
    Slot& slot = batch[i];
    rtdb::rt::RtTxn& txn = slot.txn;
    for (;;) {
      txn.reset_for_attempt();
      table.on_begin(txn);
      held.clear();
      bool committed = false;
      try {
        for (const auto& op : slot.spec.access.operations()) {
          const auto start = Clock::now();
          table.acquire(txn, op.object, op.mode);
          tally.acquire_ns.add(ns_between(start, Clock::now()));
          ++tally.acquires_returned;
          if (holders.enter(op.object, op.mode)) ++tally.overlaps;
          held.emplace_back(op.object, op.mode);
        }
        RtLockTable::checkpoint(txn);
        committed = true;
      } catch (const rtdb::cc::TxnAborted&) {
        ++tally.aborts;
      }
      for (const auto& [object, mode] : held) holders.leave(object, mode);
      const auto start = Clock::now();
      table.release_all(txn);
      tally.release_ns.add(ns_between(start, Clock::now()));
      table.on_end(txn);
      if (committed) {
        slot.commits.fetch_add(1);
        break;
      }
    }
  }
}

struct BatchResult {
  std::uint64_t aborts = 0;
  std::string why;  // empty when every check passed
};

// Runs one batch on kRtWorkers threads and checks it; the acquire and
// release timings are added to `timings`.
BatchResult run_batch(Batch& batch, RtLockTable& table,
                      rtdb::rt::ThreadBackend& backend, HolderCounts& holders,
                      Tally& timings) {
  for (Slot& slot : batch) slot.commits.store(0);
  std::vector<Tally> local(kRtWorkers);
  const std::uint64_t grants_before = table.stats().grants;
  const std::uint64_t exceptions_before = backend.body_exceptions();
  std::atomic<std::size_t> next{0};
  for (Tally& tally : local) {
    backend.spawn("closed-loop", [&] {
      run_transactions(batch, next, table, holders, tally);
    });
  }
  backend.run();
  BatchResult result;

  RtBatchCounts counts;
  counts.transactions = batch.size();
  counts.min_commits = batch.empty() ? 0 : ~std::uint64_t{0};
  for (const Slot& slot : batch) {
    const std::uint64_t n = slot.commits.load();
    counts.commits += n;
    counts.min_commits = std::min(counts.min_commits, n);
    counts.max_commits = std::max(counts.max_commits, n);
  }
  for (const Tally& tally : local) {
    counts.acquires_returned += tally.acquires_returned;
    counts.overlapping_writers += tally.overlaps;
    result.aborts += tally.aborts;
    timings.acquire_ns.merge(tally.acquire_ns);
    timings.release_ns.merge(tally.release_ns);
  }
  counts.table_grants = table.stats().grants - grants_before;
  std::string reason;
  counts.quiescent = table.quiescent(&reason);
  result.why = check_rt_batch(counts);
  if (!result.why.empty() && !reason.empty()) result.why += " (" + reason + ")";
  if (result.why.empty() && backend.body_exceptions() != exceptions_before) {
    result.why = "a worker body threw";
  }
  return result;
}

}  // namespace

void measure_rt_layer(std::uint64_t seed, Report& report,
                      std::map<std::string, double>& layers, SpanLog& spans) {
  std::vector<rtdb::core::SystemConfig> protocols;
  for (const auto protocol : {rtdb::core::Protocol::kPriorityCeiling,
                              rtdb::core::Protocol::kTwoPhasePriority}) {
    rtdb::core::SystemConfig cfg = fig23_config(protocol, kRtSize);
    cfg.workload.transaction_count = kRtBatch;
    protocols.push_back(cfg);
  }
  const rtdb::core::SystemConfig& shape = protocols.front();
  const rtdb::db::Database schema{rtdb::db::DatabaseConfig{
      shape.db_objects, 1, rtdb::db::Placement::kSingleSite}};

  const auto gen_start = Clock::now();
  std::vector<Specs> specs;
  for (std::uint64_t k = 0; k < kRtBatches; ++k) {
    specs.push_back(regenerate(schema, shape.workload, round_seed(seed, k)));
  }
  spans.add("workload.generate", gen_start, Clock::now(), 0, 1);
  std::vector<Batch> batches(kRtBatches);
  for (std::uint64_t k = 0; k < kRtBatches; ++k) {
    for (const auto& spec : specs[k]) {
      Slot& slot = batches[k].emplace_back();
      slot.spec = spec;
      slot.txn.id = spec.id;
      slot.txn.base_priority = spec.priority;
      slot.txn.access = spec.access;
    }
  }
  rtdb::rt::ThreadBackend backend{{kRtWorkers, shape.rt_unit_nanos}};
  HolderCounts holders{shape.db_objects};

  Tally timings;
  std::uint64_t aborts_2plp = 0;
  std::uint64_t txns_2plp = 0;
  for (const auto& cfg : protocols) {
    RtLockTable table{{cfg.protocol, cfg.db_objects, cfg.victim_policy,
                       cfg.pcp_deadlock_backstop, false, {}},
                      backend};
    for (std::uint64_t k = 0; k < kRtBatches; ++k) {
      const auto start = Clock::now();
      const BatchResult r =
          run_batch(batches[k], table, backend, holders, timings);
      spans.add(std::string("rt.batch.") + rtdb::core::to_string(cfg.protocol),
                start, Clock::now(), k, 1);
      ++report.attempted;
      if (!r.why.empty()) {
        ++report.failed;
        std::cerr << "[perfbench] " << rtdb::core::to_string(cfg.protocol)
                  << " thread batch failed: " << r.why << "\n";
      }
      if (cfg.protocol == rtdb::core::Protocol::kTwoPhasePriority) {
        aborts_2plp += r.aborts;
        txns_2plp += batches[k].size();
      }
    }
  }

  layers["rt.acquire_ns_p50"] = timings.acquire_ns.quantile(0.5);
  layers["rt.acquire_ns_p99"] = timings.acquire_ns.quantile(0.99);
  layers["rt.release_ns_p50"] = timings.release_ns.quantile(0.5);
  layers["rt.latch_ns"] = latch_ns(specs.front(), kRtWorkers);
  layers["rt.aborts_per_txn"] =
      txns_2plp > 0 ? static_cast<double>(aborts_2plp) /
                          static_cast<double>(txns_2plp)
                    : 0.0;
}

}  // namespace perfbench
