#pragma once

// Standalone layer harnesses: each drives one layer through its public
// interface, by itself, on inputs taken from the workload's own generated
// transactions (or, for the event queue, from the event times the traced
// pass recorded). Every result is host nanoseconds per operation of that
// layer, the median of several repetitions after one warm-up.

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "db/database.hpp"
#include "txn/transaction.hpp"
#include "workload/config.hpp"

namespace perfbench {

using Specs = std::vector<rtdb::txn::TransactionSpec>;

// The workload a System with this schema and workload config would
// generate for `seed`, replayed by a fresh TransactionGenerator on a
// throwaway kernel (the generator is a pure function of those three).
Specs regenerate(const rtdb::db::Database& schema,
                 const rtdb::workload::WorkloadConfig& workload,
                 std::uint64_t seed);

// sim::EventQueue: schedule+pop pairs replaying recorded event times in
// firing order, with a lookahead of 64 pending events.
double queue_op_ns(const std::vector<std::vector<std::int64_t>>& event_times);

// sched::PreemptiveCpu: one job per transaction (size x cpu_per_object at
// its priority, released at its arrival) on its home site's CPU.
double cpu_execute_ns(const std::vector<Specs>& specs,
                      const std::vector<rtdb::core::SystemConfig>& configs);

// cc::LockTable: try_grant of every operation, then release_all, with
// eight transactions holding locks at a time.
double lock_op_ns(const std::vector<Specs>& specs);

// cc::PriorityCeiling: on_begin + on_end pairs, 32 transactions active at
// a time (ceiling maintenance over real declared access sets).
double ceiling_op_ns(const std::vector<Specs>& specs,
                     const std::vector<rtdb::core::SystemConfig>& configs);

// net::Network + net::MessageServer: one control message per accessed
// object from the home site to the object's hash-shard site; only the
// distributed cells count. 0 when there are none.
double deliver_ns(const std::vector<Specs>& specs,
                  const std::vector<rtdb::core::SystemConfig>& configs);

// rt::PqSpinLock: lock+unlock pairs from `threads` contending threads at
// the transactions' priorities, as seen by one thread (wall time over its
// own pairs).
double latch_ns(const Specs& specs, std::uint32_t threads);

}  // namespace perfbench
