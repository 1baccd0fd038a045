#include "trace.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>

namespace perfbench {

std::vector<double> timed_sweeps(
    double seconds, std::uint64_t rounds, std::size_t per_round,
    const std::function<double(std::uint64_t, std::size_t, int)>& run,
    int& sweeps) {
  std::vector<double> best(rounds * per_round,
                           std::numeric_limits<double>::infinity());
  const auto start = Clock::now();
  for (sweeps = 1;; ++sweeps) {
    for (std::uint64_t round = 0; round < rounds; ++round) {
      for (std::size_t i = 0; i < per_round; ++i) {
        double& slot = best[round * per_round + i];
        slot = std::min(slot, run(round, i, sweeps - 1));
      }
    }
    const double elapsed =
        static_cast<double>(ns_between(start, Clock::now())) / 1e9;
    if (elapsed / sweeps * (sweeps + 1) > seconds) break;
  }
  return best;
}

int Histogram::bucket_of(std::uint64_t v) {
  constexpr std::uint64_t kExact = 2u << kSubBits;
  if (v < kExact) return static_cast<int>(v);
  const int e = std::bit_width(v) - 1;
  const auto sub =
      static_cast<int>((v >> (e - kSubBits)) & ((1u << kSubBits) - 1));
  return static_cast<int>(kExact) + (e - kSubBits - 1) * (1 << kSubBits) + sub;
}

double Histogram::midpoint(int bucket) {
  constexpr int kExact = 2 << kSubBits;
  if (bucket < kExact) return bucket;
  const int e = kSubBits + 1 + (bucket - kExact) / (1 << kSubBits);
  const int sub = (bucket - kExact) % (1 << kSubBits);
  const double width = static_cast<double>(std::uint64_t{1} << (e - kSubBits));
  return ((1 << kSubBits) + sub) * width + width / 2;
}

void Histogram::add(std::int64_t ns) {
  ++counts_[bucket_of(ns < 0 ? 0 : static_cast<std::uint64_t>(ns))];
  ++count_;
}

void Histogram::merge(const Histogram& other) {
  for (int i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  // Nearest rank: the smallest sample with at least q of them at or below.
  auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count_));
  if (rank >= count_) rank = count_ - 1;
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen > rank) return midpoint(i);
  }
  return midpoint(kBuckets - 1);
}

void SpanLog::add(std::string name, Clock::time_point start,
                  Clock::time_point end, std::uint64_t op, std::uint32_t tid) {
  spans_.push_back(Span{std::move(name), ns_between(epoch_, start),
                        ns_between(start, end), op, tid});
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu}}%s\n",
                 s.name.c_str(), s.tid, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3,
                 static_cast<unsigned long long>(s.op),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("],\"displayTimeUnit\":\"ns\"}\n", f);
  return std::fclose(f) == 0;
}

void ForwardingObserver::on_txn_begin(const rtdb::cc::CcTxn& txn) {
  ++tally_.begins;
  forward([&](rtdb::cc::CcObserver& o) { o.on_txn_begin(txn); });
}

void ForwardingObserver::on_txn_end(const rtdb::cc::CcTxn& txn) {
  forward([&](rtdb::cc::CcObserver& o) { o.on_txn_end(txn); });
}

void ForwardingObserver::on_grant(const rtdb::cc::CcTxn& txn,
                                  rtdb::db::ObjectId object,
                                  rtdb::cc::LockMode mode) {
  ++tally_.grants;
  forward([&](rtdb::cc::CcObserver& o) { o.on_grant(txn, object, mode); });
}

void ForwardingObserver::on_block(const rtdb::cc::CcTxn& txn,
                                  rtdb::db::ObjectId object,
                                  rtdb::cc::LockMode mode,
                                  std::span<rtdb::cc::CcTxn* const> blockers) {
  ++tally_.blocks;
  forward([&](rtdb::cc::CcObserver& o) {
    o.on_block(txn, object, mode, blockers);
  });
}

void ForwardingObserver::on_unblock(const rtdb::cc::CcTxn& txn) {
  forward([&](rtdb::cc::CcObserver& o) { o.on_unblock(txn); });
}

void ForwardingObserver::on_release_all(const rtdb::cc::CcTxn& txn) {
  forward([&](rtdb::cc::CcObserver& o) { o.on_release_all(txn); });
}

void ForwardingObserver::on_abort(rtdb::db::TxnId victim,
                                  rtdb::cc::AbortReason reason) {
  forward([&](rtdb::cc::CcObserver& o) { o.on_abort(victim, reason); });
}

void ForwardingObserver::on_adopt(const rtdb::cc::CcTxn& txn,
                                  rtdb::db::ObjectId object,
                                  rtdb::cc::LockMode mode) {
  forward([&](rtdb::cc::CcObserver& o) { o.on_adopt(txn, object, mode); });
}

void ForwardingObserver::on_tso_access(const rtdb::cc::CcTxn& txn,
                                       rtdb::db::ObjectId object,
                                       rtdb::cc::LockMode mode,
                                       std::uint64_t ts, bool accepted) {
  forward([&](rtdb::cc::CcObserver& o) {
    o.on_tso_access(txn, object, mode, ts, accepted);
  });
}

}  // namespace perfbench
