#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "cc/lock_table.hpp"
#include "cc/pcp.hpp"
#include "dist/global_ceiling.hpp"
#include "net/message_server.hpp"
#include "net/network.hpp"
#include "report.hpp"
#include "rt/pqlock.hpp"
#include "sched/cpu.hpp"
#include "sim/event_queue.hpp"
#include "sim/kernel.hpp"
#include "sim/random.hpp"
#include "trace.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace {

using rtdb::sim::Duration;
using rtdb::sim::Kernel;

constexpr int kRepetitions = 5;

// Median ns per operation over kRepetitions runs of `body` after one
// warm-up; `body` returns the number of operations it performed.
template <typename Body>
double per_op_ns(Body&& body) {
  body();
  std::vector<double> samples;
  for (int i = 0; i < kRepetitions; ++i) {
    const auto start = Clock::now();
    const std::uint64_t ops = body();
    const auto ns = static_cast<double>(ns_between(start, Clock::now()));
    if (ops > 0) samples.push_back(ns / static_cast<double>(ops));
  }
  return quantile(samples, 0.5);
}

rtdb::sim::Task<void> cpu_job(Kernel& kernel, rtdb::sched::PreemptiveCpu& cpu,
                              Duration release, Duration work,
                              rtdb::sim::Priority priority) {
  co_await kernel.delay(release);
  co_await cpu.execute(work, priority);
}

rtdb::cc::CcTxn cc_txn(const rtdb::txn::TransactionSpec& spec) {
  rtdb::cc::CcTxn txn;
  txn.id = spec.id;
  txn.base_priority = spec.priority;
  txn.deadline = spec.deadline;
  txn.access = spec.access;
  return txn;
}

}  // namespace

Specs regenerate(const rtdb::db::Database& schema,
                 const rtdb::workload::WorkloadConfig& workload,
                 std::uint64_t seed) {
  Kernel kernel;
  Specs specs;
  rtdb::workload::TransactionGenerator generator(
      kernel, schema, workload, rtdb::sim::RandomStream{seed},
      [&specs](rtdb::txn::TransactionSpec spec) {
        specs.push_back(std::move(spec));
      });
  generator.start();
  kernel.run();
  return specs;
}

double queue_op_ns(const std::vector<std::vector<std::int64_t>>& event_times) {
  constexpr std::size_t kLookahead = 64;
  return per_op_ns([&]() -> std::uint64_t {
    std::uint64_t ops = 0;
    for (const auto& times : event_times) {
      rtdb::sim::EventQueue queue;
      std::size_t next = 0;
      for (; next < std::min(kLookahead, times.size()); ++next) {
        queue.schedule(rtdb::sim::TimePoint::at_ticks(times[next]), [] {});
      }
      while (auto event = queue.pop()) {
        ++ops;
        if (next < times.size()) {
          queue.schedule(rtdb::sim::TimePoint::at_ticks(times[next++]), [] {});
        }
      }
    }
    return ops;
  });
}

double cpu_execute_ns(const std::vector<Specs>& specs,
                      const std::vector<rtdb::core::SystemConfig>& configs) {
  return per_op_ns([&]() -> std::uint64_t {
    std::uint64_t jobs = 0;
    for (std::size_t c = 0; c < specs.size(); ++c) {
      Kernel kernel;
      std::vector<std::unique_ptr<rtdb::sched::PreemptiveCpu>> cpus;
      for (std::uint32_t s = 0; s < configs[c].sites; ++s) {
        cpus.push_back(std::make_unique<rtdb::sched::PreemptiveCpu>(
            kernel, configs[c].cpus_per_site));
      }
      for (const auto& spec : specs[c]) {
        auto& cpu = *cpus[spec.home_site % cpus.size()];
        kernel.spawn("job", cpu_job(kernel, cpu,
                                    spec.arrival - rtdb::sim::TimePoint::origin(),
                                    configs[c].cpu_per_object *
                                        static_cast<std::int64_t>(spec.size()),
                                    spec.priority));
        ++jobs;
      }
      kernel.run();
    }
    return jobs;
  });
}

double lock_op_ns(const std::vector<Specs>& specs) {
  constexpr std::size_t kHolding = 8;
  std::vector<std::vector<rtdb::cc::CcTxn>> txns;
  for (const Specs& cell : specs) {
    auto& out = txns.emplace_back();
    for (const auto& spec : cell) out.push_back(cc_txn(spec));
  }
  return per_op_ns([&]() -> std::uint64_t {
    std::uint64_t ops = 0;
    for (auto& cell : txns) {
      rtdb::cc::LockTable table{rtdb::cc::LockTable::QueuePolicy::kPriority};
      for (std::size_t i = 0; i < cell.size(); ++i) {
        for (const auto& op : cell[i].access.operations()) {
          table.try_grant(cell[i], op.object, op.mode);
          ++ops;
        }
        if (i >= kHolding) table.release_all(cell[i - kHolding]);
      }
      for (std::size_t i = cell.size() > kHolding ? cell.size() - kHolding : 0;
           i < cell.size(); ++i) {
        table.release_all(cell[i]);
      }
    }
    return ops;
  });
}

double ceiling_op_ns(const std::vector<Specs>& specs,
                     const std::vector<rtdb::core::SystemConfig>& configs) {
  constexpr std::size_t kActive = 32;
  std::vector<std::vector<rtdb::cc::CcTxn>> txns;
  for (const Specs& cell : specs) {
    auto& out = txns.emplace_back();
    for (const auto& spec : cell) out.push_back(cc_txn(spec));
  }
  return per_op_ns([&]() -> std::uint64_t {
    std::uint64_t pairs = 0;
    for (std::size_t c = 0; c < txns.size(); ++c) {
      Kernel kernel;
      rtdb::cc::PriorityCeiling pcp{kernel, configs[c].db_objects};
      auto& cell = txns[c];
      for (std::size_t first = 0; first < cell.size(); first += kActive) {
        const std::size_t last = std::min(cell.size(), first + kActive);
        for (std::size_t i = first; i < last; ++i) pcp.on_begin(cell[i]);
        for (std::size_t i = first; i < last; ++i) pcp.on_end(cell[i]);
        pairs += last - first;
      }
    }
    return pairs;
  });
}

double deliver_ns(const std::vector<Specs>& specs,
                  const std::vector<rtdb::core::SystemConfig>& configs) {
  constexpr std::size_t kBurst = 64;  // transactions' messages per drain
  bool any = false;
  for (const auto& cfg : configs) {
    any = any || cfg.scheme != rtdb::core::DistScheme::kSingleSite;
  }
  if (!any) return 0.0;
  return per_op_ns([&]() -> std::uint64_t {
    std::uint64_t delivered = 0;
    for (std::size_t c = 0; c < specs.size(); ++c) {
      const auto& cfg = configs[c];
      if (cfg.scheme == rtdb::core::DistScheme::kSingleSite) continue;
      Kernel kernel;
      rtdb::net::Network network{kernel, cfg.sites, cfg.comm_delay};
      std::vector<std::unique_ptr<rtdb::net::MessageServer>> servers;
      for (rtdb::net::SiteId id = 0; id < cfg.sites; ++id) {
        servers.push_back(
            std::make_unique<rtdb::net::MessageServer>(kernel, network, id));
        servers.back()->on<rtdb::dist::EndTxnMsg>(
            [&delivered](rtdb::net::SiteId, rtdb::dist::EndTxnMsg) {
              ++delivered;
            });
        servers.back()->start();
      }
      const auto& cell = specs[c];
      for (std::size_t i = 0; i < cell.size(); ++i) {
        for (const auto& op : cell[i].access.operations()) {
          const std::uint32_t to =
              rtdb::core::shard_of(op.object, cfg.db_objects, cfg.sites,
                                   rtdb::core::Partitioner::kHash);
          servers[cell[i].home_site]->send(
              to, rtdb::dist::EndTxnMsg{cell[i].id.value, 1});
        }
        if ((i + 1) % kBurst == 0 || i + 1 == cell.size()) kernel.run();
      }
    }
    return delivered;
  });
}

double latch_ns(const Specs& specs, std::uint32_t threads) {
  constexpr std::size_t kPairs = 100'000;  // per thread
  rtdb::rt::PqSpinLock latch;
  std::uint64_t shared = 0;  // the critical section's work; guarded by latch
  return per_op_ns([&]() -> std::uint64_t {
    std::atomic<std::uint32_t> ready{0};
    std::vector<std::thread> pool;
    for (std::uint32_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < threads) rtdb::rt::cpu_relax();
        for (std::size_t i = 0; i < kPairs; ++i) {
          const auto& spec = specs[(i * threads + t) % specs.size()];
          rtdb::rt::PqSpinLock::Node node;
          latch.lock(node, spec.priority);
          ++shared;
          latch.unlock();
        }
      });
    }
    for (auto& thread : pool) thread.join();
    return kPairs;
  });
}

}  // namespace perfbench
