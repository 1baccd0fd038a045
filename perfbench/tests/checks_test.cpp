// Each correctness check of the benchmark fed a corrupted input must fail,
// and fed the honest input must pass.

#include <gtest/gtest.h>

#include <vector>

#include "checks.hpp"
#include "core/system.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using rtdb::cc::HistoryRecorder;
using rtdb::cc::LockMode;
using rtdb::db::TxnId;

// A finished Fig-2 run and a regeneration of its workload.
struct FinishedRun {
  explicit FinishedRun(rtdb::core::SystemConfig cfg) : system(cfg) {
    system.run_to_completion();
    records = system.monitor().records();
    specs = regenerate(system.schema(), system.config().workload, cfg.seed);
  }
  rtdb::core::System system;
  std::vector<rtdb::stats::TxnRecord> records;
  Specs specs;
};

rtdb::core::SystemConfig small_fig2() {
  rtdb::core::SystemConfig cfg =
      fig23_config(rtdb::core::Protocol::kPriorityCeiling, 8);
  cfg.workload.transaction_count = 60;
  cfg.seed = 7;
  return cfg;
}

RunCounts counts_of(const std::vector<rtdb::stats::TxnRecord>& records) {
  RunCounts c;
  for (const auto& r : records) {
    ++c.arrived;
    c.processed += r.processed ? 1 : 0;
    c.committed += r.committed ? 1 : 0;
    c.missed += r.missed_deadline ? 1 : 0;
    c.shed += r.shed ? 1 : 0;
  }
  return c;
}

TEST(ConservationCheck, PassesOnARealRun) {
  FinishedRun run{small_fig2()};
  EXPECT_EQ(check_conservation(60, counts_of(run.records)), "");
}

TEST(ConservationCheck, FailsWithOneCommittedTransactionRemoved) {
  FinishedRun run{small_fig2()};
  RunCounts c = counts_of(run.records);
  ASSERT_GT(c.committed, 0u);
  --c.committed;
  EXPECT_NE(check_conservation(60, c), "");
}

TEST(RecordsCheck, PassesOnARealRun) {
  FinishedRun run{small_fig2()};
  EXPECT_EQ(check_records(run.records, run.specs), "");
}

TEST(RecordsCheck, FailsWithOneCommittedTransactionRemoved) {
  FinishedRun run{small_fig2()};
  auto records = run.records;
  for (auto it = records.begin(); it != records.end(); ++it) {
    if (it->committed) {
      records.erase(it);
      break;
    }
  }
  ASSERT_EQ(records.size() + 1, run.records.size());
  EXPECT_NE(check_records(records, run.specs), "");
}

TEST(RecordsCheck, FailsOnADuplicatedCommitOrAWrongSize) {
  FinishedRun run{small_fig2()};
  auto duplicated = run.records;
  duplicated.back() = duplicated.front();
  duplicated.front().committed = duplicated.back().committed = true;
  EXPECT_NE(check_records(duplicated, run.specs), "");

  auto resized = run.records;
  resized.front().size += 1;
  EXPECT_NE(check_records(resized, run.specs), "");
}

TEST(HistoryCheck, FailsOnAConflictCycle) {
  HistoryRecorder history;
  // T1 writes x before T2 does, T2 writes y before T1 does: T1 -> T2 -> T1.
  history.record(TxnId{1}, 1, LockMode::kWrite);
  history.record(TxnId{2}, 1, LockMode::kWrite);
  history.record(TxnId{2}, 2, LockMode::kWrite);
  history.record(TxnId{1}, 2, LockMode::kWrite);
  history.commit(TxnId{1});
  history.commit(TxnId{2});
  EXPECT_NE(check_history(history, 2), "");
}

TEST(HistoryCheck, PassesOnASerialHistoryAndCountsCommits) {
  HistoryRecorder history;
  history.record(TxnId{1}, 1, LockMode::kWrite);
  history.record(TxnId{1}, 2, LockMode::kWrite);
  history.commit(TxnId{1});
  history.record(TxnId{2}, 1, LockMode::kWrite);
  history.commit(TxnId{2});
  EXPECT_EQ(check_history(history, 2), "");
  EXPECT_NE(check_history(history, 3), "");
}

TEST(PaperOrderingCheck, FailsWhenCeilingFallsBelowPlainTwoPhase) {
  EXPECT_EQ(check_paper_ordering(169, 104, 20), "");
  EXPECT_NE(check_paper_ordering(15, 104, 20), "");
  EXPECT_NE(check_paper_ordering(169, 10, 20), "");
}

TEST(RtBatchCheck, FailsOnAGrantTotalOffByOne) {
  RtBatchCounts c;
  c.transactions = c.commits = 100;
  c.min_commits = c.max_commits = 1;
  c.acquires_returned = c.table_grants = 800;
  EXPECT_EQ(check_rt_batch(c), "");

  RtBatchCounts off = c;
  off.table_grants = 801;
  EXPECT_NE(check_rt_batch(off), "");
}

TEST(RtBatchCheck, FailsOnADoubleCommitOverlapOrLeftoverState) {
  RtBatchCounts c;
  c.transactions = c.commits = 100;
  c.min_commits = c.max_commits = 1;
  c.acquires_returned = c.table_grants = 800;

  RtBatchCounts twice = c;
  twice.max_commits = 2;
  twice.min_commits = 0;
  EXPECT_NE(check_rt_batch(twice), "");

  RtBatchCounts overlap = c;
  overlap.overlapping_writers = 1;
  EXPECT_NE(check_rt_batch(overlap), "");

  RtBatchCounts busy = c;
  busy.quiescent = false;
  EXPECT_NE(check_rt_batch(busy), "");
}

}  // namespace
}  // namespace perfbench
