#pragma once

// Measurement plumbing: the timed pass's sweep schedule, and for the
// traced pass a log-bucketed latency histogram, an in-memory span log
// written once as Chrome trace-event JSON, and a forwarding
// cc::CcObserver that counts protocol events and times whatever observer
// it stands in front of.

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cc/observer.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// Host interference from other tenants (contention for the shared cache,
// which a pure compute loop does not feel but these workloads do) only
// ever adds time, and it comes in phases seconds long. So the timed pass
// runs a fixed set of operations in repeated sweeps spread over the whole
// pass, and times each operation by its fastest execution.

// Every pass times at least this many distinct operations, so the 90th
// percentile has ten samples beyond it.
inline constexpr std::size_t kMinRuns = 100;

// Rounds of `per_round` operations that make up kMinRuns.
inline std::uint64_t rounds_for(std::size_t per_round) {
  return (kMinRuns + per_round - 1) / per_round;
}

// Runs every round's operations once per sweep, and starts another sweep
// only while it is projected to end within `seconds` (at least one sweep
// always runs). `run(round, index, sweep)` executes one operation and
// returns its host time in ms. Returns each operation's fastest time,
// round-major; `sweeps` receives the number of sweeps made.
std::vector<double> timed_sweeps(
    double seconds, std::uint64_t rounds, std::size_t per_round,
    const std::function<double(std::uint64_t, std::size_t, int)>& run,
    int& sweeps);

// Non-negative nanosecond samples in buckets of 1/32 of a power of two
// (values below 64 are exact), so a percentile is within about 3% of the
// sample it stands for, at fixed memory however many samples arrive.
class Histogram {
 public:
  void add(std::int64_t ns);
  void merge(const Histogram& other);
  // The q-quantile (0 < q < 1) as the midpoint of its bucket; 0 when empty.
  double quantile(double q) const;

 private:
  static constexpr int kSubBits = 5;
  static constexpr int kBuckets = 64 * (1 << kSubBits);
  static int bucket_of(std::uint64_t v);
  static double midpoint(int bucket);

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
};

// Spans kept in memory and written once, at the end of the run.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  // Records [start, end) on thread lane `tid`; `op` ties the span to the
  // operation (one simulated run or one batch) that caused it.
  void add(std::string name, Clock::time_point start, Clock::time_point end,
           std::uint64_t op, std::uint32_t tid = 0);
  // Chrome trace-event JSON ("X" complete events, microsecond times).
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::uint64_t op;
    std::uint32_t tid;
  };
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// What the forwarders of one System saw.
struct ObserverTally {
  std::uint64_t begins = 0;
  std::uint64_t grants = 0;
  std::uint64_t blocks = 0;
  // Calls forwarded to an attached observer (the check layer) and the host
  // time spent inside them.
  std::uint64_t forwarded = 0;
  std::int64_t forwarded_ns = 0;
};

// Stands in front of `inner` (possibly null) on a controller: counts every
// protocol event into `tally` and times each forwarded call. Pure
// observation, like any CcObserver: it never touches the controller.
class ForwardingObserver final : public rtdb::cc::CcObserver {
 public:
  ForwardingObserver(rtdb::cc::CcObserver* inner, ObserverTally& tally)
      : inner_(inner), tally_(tally) {}

  void on_txn_begin(const rtdb::cc::CcTxn& txn) override;
  void on_txn_end(const rtdb::cc::CcTxn& txn) override;
  void on_grant(const rtdb::cc::CcTxn& txn, rtdb::db::ObjectId object,
                rtdb::cc::LockMode mode) override;
  void on_block(const rtdb::cc::CcTxn& txn, rtdb::db::ObjectId object,
                rtdb::cc::LockMode mode,
                std::span<rtdb::cc::CcTxn* const> blockers) override;
  void on_unblock(const rtdb::cc::CcTxn& txn) override;
  void on_release_all(const rtdb::cc::CcTxn& txn) override;
  void on_abort(rtdb::db::TxnId victim, rtdb::cc::AbortReason reason) override;
  void on_adopt(const rtdb::cc::CcTxn& txn, rtdb::db::ObjectId object,
                rtdb::cc::LockMode mode) override;
  void on_tso_access(const rtdb::cc::CcTxn& txn, rtdb::db::ObjectId object,
                     rtdb::cc::LockMode mode, std::uint64_t ts,
                     bool accepted) override;

 private:
  template <typename Call>
  void forward(Call&& call) {
    if (inner_ == nullptr) return;
    const auto start = Clock::now();
    call(*inner_);
    tally_.forwarded_ns += ns_between(start, Clock::now());
    ++tally_.forwarded;
  }

  rtdb::cc::CcObserver* inner_;
  ObserverTally& tally_;
};

}  // namespace perfbench
