#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <ostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cc/access_set.hpp"
#include "check/lock_audit.hpp"
#include "check/monitor.hpp"
#include "sim/kernel.hpp"

// Equivalence oracle for LockAudit's incremental holder/declarer index.
// RescanAudit below is the audit written the naive way: a std::map of held
// locks per shadow, a compatibility walk over every shadow, and per-object
// ceilings recomputed from every began shadow's declared list on each
// grant. Both observers see the same seeded random event stream — legal
// traffic plus read→write upgrades, failover adoptions, restarts whose
// begin event is missing, and injected illegal grants — and must produce
// the same reports, in the same order, and the same run scalars.

namespace rtdb::check {

// Names the family in gtest's parameter output.
void PrintTo(ProtocolFamily family, std::ostream* os) {
  *os << to_string(family);
}

namespace {

using cc::LockMode;

std::string priority_string(sim::Priority p) {
  return "(" + std::to_string(p.key()) + "," + std::to_string(p.tie()) + ")";
}

class RescanAudit final : public cc::CcObserver {
 public:
  RescanAudit(ConformanceMonitor& monitor, ProtocolFamily family)
      : monitor_(monitor), family_(family) {}

  void on_txn_begin(const cc::CcTxn& txn) override {
    monitor_.record({{}, "begin", txn.id.value, txn.attempt, 0, 0});
    ShadowTxn fresh;
    fresh.attempt = txn.attempt;
    fresh.base = txn.base_priority;
    fresh.began = true;
    if (family_ == ProtocolFamily::kCeiling) {
      const auto ops = txn.access.operations();
      fresh.declared.assign(ops.begin(), ops.end());
    }
    txns_[txn.id.value] = std::move(fresh);
  }

  void on_txn_end(const cc::CcTxn& txn) override {
    monitor_.record({{}, "end", txn.id.value, txn.attempt, 0, 0});
    auto it = txns_.find(txn.id.value);
    if (it != txns_.end()) {
      close_inversion(it->second);
      close_wait(txn, it->second);
      txns_.erase(it);
    }
    graph_.remove(txn.id.value);
  }

  void on_grant(const cc::CcTxn& txn, db::ObjectId object,
                LockMode mode) override {
    monitor_.record({{}, "grant", txn.id.value, txn.attempt,
                     static_cast<std::int64_t>(object),
                     mode == LockMode::kWrite ? 1 : 0});
    ShadowTxn& shadow = shadow_of(txn);
    if (shadow.released) {
      std::ostringstream detail;
      detail << "txn " << txn.id.value << "/" << txn.attempt
             << " granted object " << object
             << " after its release_all (two-phase rule)";
      monitor_.report("lock.two_phase", detail.str());
    }
    if (family_ == ProtocolFamily::kCeiling) check_ceiling_grant(txn, object);
    check_compat(txn, object, mode, "granted");
    install(shadow, object, mode);
  }

  void on_adopt(const cc::CcTxn& txn, db::ObjectId object,
                LockMode mode) override {
    monitor_.record({{}, "adopt", txn.id.value, txn.attempt,
                     static_cast<std::int64_t>(object),
                     mode == LockMode::kWrite ? 1 : 0});
    ShadowTxn& shadow = shadow_of(txn);
    check_compat(txn, object, mode, "adopted");
    install(shadow, object, mode);
  }

  void on_block(const cc::CcTxn& txn, db::ObjectId object, LockMode mode,
                std::span<cc::CcTxn* const> blockers) override {
    (void)mode;
    monitor_.record({{}, "block", txn.id.value, txn.attempt,
                     static_cast<std::int64_t>(object),
                     static_cast<std::int64_t>(blockers.size())});
    ShadowTxn& shadow = shadow_of(txn);
    const bool age_family = family_ == ProtocolFamily::kWaitDie ||
                            family_ == ProtocolFamily::kWoundWait;
    if (age_family) {
      for (const cc::CcTxn* blocker : blockers) {
        const bool waiter_older = txn.id.value < blocker->id.value;
        const bool ok =
            family_ == ProtocolFamily::kWaitDie ? waiter_older : !waiter_older;
        if (ok) continue;
        std::ostringstream detail;
        detail << "txn " << txn.id.value << " waits behind "
               << (family_ == ProtocolFamily::kWaitDie ? "older" : "younger")
               << " txn " << blocker->id.value << " on object " << object;
        monitor_.report(family_ == ProtocolFamily::kWaitDie
                            ? "wait_die.age_order"
                            : "wound_wait.age_order",
                        detail.str());
      }
    }
    std::vector<std::uint64_t> edge_targets;
    for (const cc::CcTxn* blocker : blockers) {
      edge_targets.push_back(blocker->id.value);
    }
    if (graph_.set_edges(txn.id.value, std::move(edge_targets))) {
      monitor_.note_cycle();
      if (age_family) {
        std::ostringstream detail;
        detail << "wait-for cycle through txn " << txn.id.value << ":";
        for (const std::uint64_t member : graph_.last_cycle()) {
          detail << " " << member;
        }
        monitor_.report("age.wait_cycle", detail.str());
      }
    }
    if (!shadow.waiting) {
      shadow.waiting = true;
      shadow.wait_start = monitor_.now();
    }
    if (!shadow.inversion) {
      for (const cc::CcTxn* blocker : blockers) {
        if (txn.base_priority.higher_than(blocker->base_priority)) {
          shadow.inversion = true;
          shadow.inversion_start = monitor_.now();
          break;
        }
      }
    }
  }

  void on_unblock(const cc::CcTxn& txn) override {
    monitor_.record({{}, "unblock", txn.id.value, txn.attempt, 0, 0});
    graph_.clear_waiter(txn.id.value);
    auto it = txns_.find(txn.id.value);
    if (it != txns_.end()) {
      close_inversion(it->second);
      close_wait(txn, it->second);
    }
  }

  void on_release_all(const cc::CcTxn& txn) override {
    monitor_.record({{}, "release", txn.id.value, txn.attempt, 0, 0});
    ShadowTxn& shadow = shadow_of(txn);
    shadow.held.clear();
    shadow.released = true;
  }

  void on_abort(db::TxnId victim, cc::AbortReason reason) override {
    monitor_.record({{}, "abort", victim.value, 0,
                     static_cast<std::int64_t>(reason), 0});
  }

 private:
  struct ShadowTxn {
    std::uint32_t attempt = 0;
    sim::Priority base{};
    std::vector<cc::Operation> declared;
    std::map<db::ObjectId, LockMode> held;
    bool began = false;
    bool released = false;
    bool inversion = false;
    sim::TimePoint inversion_start{};
    bool waiting = false;
    sim::TimePoint wait_start{};
  };

  ShadowTxn& shadow_of(const cc::CcTxn& txn) {
    ShadowTxn& shadow = txns_[txn.id.value];
    if (shadow.attempt != txn.attempt) {
      shadow = ShadowTxn{};
      shadow.attempt = txn.attempt;
    }
    shadow.base = txn.base_priority;
    return shadow;
  }

  static void install(ShadowTxn& shadow, db::ObjectId object, LockMode mode) {
    auto [it, inserted] = shadow.held.try_emplace(object, mode);
    if (!inserted && mode == LockMode::kWrite) it->second = LockMode::kWrite;
  }

  void check_compat(const cc::CcTxn& txn, db::ObjectId object, LockMode mode,
                    const char* how) {
    for (const auto& [id, other] : txns_) {
      if (id == txn.id.value) continue;
      auto held = other.held.find(object);
      if (held == other.held.end()) continue;
      if (mode == LockMode::kRead && held->second == LockMode::kRead) continue;
      std::ostringstream detail;
      detail << "txn " << txn.id.value << "/" << txn.attempt << " " << how
             << " a " << cc::to_string(mode) << " lock on object " << object
             << " already " << cc::to_string(held->second) << "-held by txn "
             << id;
      monitor_.report("lock.conflict", detail.str());
    }
  }

  sim::Priority declared_ceiling(db::ObjectId object, bool writes_only) const {
    sim::Priority ceiling = sim::Priority::lowest();
    for (const auto& [id, shadow] : txns_) {
      (void)id;
      if (!shadow.began) continue;
      for (const cc::Operation& op : shadow.declared) {
        if (op.object != object) continue;
        if (writes_only && op.mode != LockMode::kWrite) continue;
        ceiling = sim::Priority::stronger(ceiling, shadow.base);
        break;
      }
    }
    return ceiling;
  }

  void check_ceiling_grant(const cc::CcTxn& txn, db::ObjectId object) {
    struct LockedObject {
      bool write_locked = false;
      bool held_by_other = false;
    };
    std::map<db::ObjectId, LockedObject> locked;
    for (const auto& [id, shadow] : txns_) {
      for (const auto& [held_object, held_mode] : shadow.held) {
        LockedObject& entry = locked[held_object];
        if (held_mode == LockMode::kWrite) entry.write_locked = true;
        if (id != txn.id.value) entry.held_by_other = true;
      }
    }
    bool blocked = false;
    sim::Priority strongest = sim::Priority::lowest();
    db::ObjectId blocking_object = 0;
    for (const auto& [locked_object, entry] : locked) {
      if (!entry.held_by_other) continue;
      const sim::Priority ceiling =
          declared_ceiling(locked_object, !entry.write_locked);
      if (!blocked || ceiling.higher_than(strongest)) {
        strongest = ceiling;
        blocking_object = locked_object;
      }
      blocked = true;
    }
    if (!blocked || txn.base_priority.higher_than(strongest)) return;
    std::ostringstream detail;
    detail << "txn " << txn.id.value << "/" << txn.attempt << " base "
           << priority_string(txn.base_priority) << " granted object "
           << object << " despite rw-ceiling " << priority_string(strongest)
           << " of locked object " << blocking_object;
    monitor_.report("pcp.grant_rule", detail.str());
  }

  void close_inversion(ShadowTxn& shadow) {
    if (!shadow.inversion) return;
    shadow.inversion = false;
    monitor_.note_inversion(monitor_.now() - shadow.inversion_start);
  }

  void close_wait(const cc::CcTxn& txn, ShadowTxn& shadow) {
    if (!shadow.waiting) return;
    shadow.waiting = false;
    monitor_.note_blocking(txn, monitor_.now() - shadow.wait_start);
  }

  ConformanceMonitor& monitor_;
  ProtocolFamily family_;
  WaitGraph graph_;
  std::map<std::uint64_t, ShadowTxn> txns_;
};

// Drives one seeded stream into both observers. The stream keeps its own
// picture of who holds what only to make most grants legal; with a small
// probability it grants regardless, and it replays the protocol-shaped
// corner cases (upgrades, adoption, restarts with or without a begin).
class EventStream {
 public:
  EventStream(std::uint64_t seed, std::vector<cc::CcObserver*> observers,
               sim::Kernel& kernel)
      : rng_(seed), observers_(std::move(observers)), kernel_(kernel) {}

  void run(int steps) {
    for (int step = 0; step < steps; ++step) {
      kernel_.run_for(sim::Duration::ticks(pick(4)));
      this->step();
    }
  }

  std::uint64_t grants() const { return grants_; }

 private:
  static constexpr std::uint32_t kObjects = 12;
  static constexpr std::uint64_t kIds = 10;

  struct Txn {
    cc::CcTxn ctx;
    bool active = false;
    bool waiting = false;
    std::map<db::ObjectId, LockMode> held;
  };

  std::uint64_t pick(std::uint64_t n) { return rng_() % n; }
  bool chance(int percent) { return pick(100) < static_cast<std::uint64_t>(percent); }

  template <typename F>
  void emit(F&& f) {
    for (cc::CcObserver* observer : observers_) f(*observer);
  }

  Txn& txn_at(std::uint64_t slot) {
    Txn& t = txns_[slot];
    t.ctx.id = db::TxnId{slot + 1};
    return t;
  }

  void new_attempt(Txn& t) {
    ++t.ctx.attempt;
    // Priorities collide on purpose (keys 0..5, tie = id), so ceilings tie
    // across objects and the report must name the lowest-id object.
    t.ctx.base_priority = sim::Priority{static_cast<std::int64_t>(pick(6)),
                                        static_cast<std::uint32_t>(
                                            t.ctx.id.value % 3)};
    std::vector<cc::Operation> ops;
    const std::uint64_t size = 1 + pick(5);
    for (std::uint64_t i = 0; i < size; ++i) {
      ops.push_back({static_cast<db::ObjectId>(pick(kObjects)),
                     chance(40) ? LockMode::kWrite : LockMode::kRead});
    }
    t.ctx.access = cc::AccessSet::from_operations(std::move(ops));
    t.held.clear();
    t.waiting = false;
  }

  bool compatible(const Txn& t, db::ObjectId object, LockMode mode) const {
    for (const auto& [slot, other] : txns_) {
      if (&other == &t) continue;
      auto it = other.held.find(object);
      if (it == other.held.end()) continue;
      if (mode == LockMode::kWrite || it->second == LockMode::kWrite) {
        return false;
      }
    }
    return true;
  }

  void grant(Txn& t, db::ObjectId object, LockMode mode, bool adopt) {
    auto [it, inserted] = t.held.try_emplace(object, mode);
    if (!inserted && mode == LockMode::kWrite) it->second = LockMode::kWrite;
    if (adopt) {
      emit([&](cc::CcObserver& o) { o.on_adopt(t.ctx, object, mode); });
    } else {
      ++grants_;
      emit([&](cc::CcObserver& o) { o.on_grant(t.ctx, object, mode); });
    }
  }

  void step() {
    Txn& t = txn_at(pick(kIds));
    const std::uint64_t action = pick(100);
    if (!t.active) {
      if (action < 70) {
        new_attempt(t);
        t.active = true;
        emit([&](cc::CcObserver& o) { o.on_txn_begin(t.ctx); });
      } else if (action < 85 && t.ctx.attempt > 0) {
        // Restart whose begin was missed: the next event carries a new
        // attempt number (the shadow_of reset path).
        new_attempt(t);
        t.active = true;
        grant(t, static_cast<db::ObjectId>(pick(kObjects)), LockMode::kRead,
              false);
      } else {
        // Failover adoption for a transaction this audit never saw begin.
        grant(t, static_cast<db::ObjectId>(pick(kObjects)),
              chance(50) ? LockMode::kWrite : LockMode::kRead, true);
      }
      return;
    }
    if (t.waiting) {
      t.waiting = false;
      emit([&](cc::CcObserver& o) { o.on_unblock(t.ctx); });
      return;
    }
    const auto ops = t.ctx.access.operations();
    if (action < 45) {
      // Grant a declared operation (or, sometimes, an undeclared object);
      // a held read may come back as a write (upgrade).
      cc::Operation op = ops[pick(ops.size())];
      if (chance(10)) op.object = static_cast<db::ObjectId>(pick(kObjects));
      if (chance(15) && !t.held.empty()) {
        auto it = t.held.begin();
        std::advance(it, static_cast<long>(pick(t.held.size())));
        op = {it->first, LockMode::kWrite};
      }
      if (compatible(t, op.object, op.mode) || chance(12)) {
        grant(t, op.object, op.mode, false);
        return;
      }
      // Conflict: block behind up to three other active transactions.
      std::vector<cc::CcTxn*> blockers;
      for (auto& [slot, other] : txns_) {
        if (&other == &t || !other.active) continue;
        if (blockers.size() < 3 && chance(60)) blockers.push_back(&other.ctx);
      }
      if (blockers.empty()) return;
      t.waiting = true;
      const std::span<cc::CcTxn* const> span{blockers};
      emit([&](cc::CcObserver& o) {
        o.on_block(t.ctx, op.object, op.mode, span);
      });
    } else if (action < 50) {
      grant(t, static_cast<db::ObjectId>(pick(kObjects)),
            chance(50) ? LockMode::kWrite : LockMode::kRead, true);
    } else if (action < 60) {
      t.held.clear();
      emit([&](cc::CcObserver& o) { o.on_release_all(t.ctx); });
    } else if (action < 66) {
      // Injected two-phase break: grant after release_all is seen.
      emit([&](cc::CcObserver& o) { o.on_release_all(t.ctx); });
      t.held.clear();
      grant(t, ops[0].object, ops[0].mode, false);
    } else if (action < 80) {
      emit([&](cc::CcObserver& o) { o.on_release_all(t.ctx); });
      emit([&](cc::CcObserver& o) { o.on_txn_end(t.ctx); });
      t.held.clear();
      t.active = false;
    } else if (action < 88) {
      // Abort and restart through a fresh begin, no end in between.
      const cc::AbortReason reason = chance(50)
                                         ? cc::AbortReason::kWounded
                                         : cc::AbortReason::kDeadlockVictim;
      emit([&](cc::CcObserver& o) { o.on_abort(t.ctx.id, reason); });
      new_attempt(t);
      emit([&](cc::CcObserver& o) { o.on_txn_begin(t.ctx); });
    } else if (action < 94) {
      // Restart without a begin: the next grant carries the new attempt.
      new_attempt(t);
      const cc::Operation op = t.ctx.access.operations()[0];
      if (compatible(t, op.object, op.mode)) grant(t, op.object, op.mode, false);
    } else {
      // The transaction ends without a release_all (deadline kill).
      emit([&](cc::CcObserver& o) { o.on_txn_end(t.ctx); });
      t.held.clear();
      t.active = false;
    }
  }

  std::mt19937_64 rng_;
  std::vector<cc::CcObserver*> observers_;
  sim::Kernel& kernel_;
  std::map<std::uint64_t, Txn> txns_;
  std::uint64_t grants_ = 0;
};

struct Tally {
  std::map<std::string, std::uint64_t> rules;
  std::uint64_t grants = 0;
};

void expect_equivalent(ProtocolFamily family, std::uint64_t seed,
                       Tally& tally) {
  sim::Kernel kernel;
  ConformanceMonitor::Options options;
  options.max_reports = 1u << 20;  // compare every report, not a prefix
  ConformanceMonitor indexed_monitor{kernel, options};
  ConformanceMonitor rescan_monitor{kernel, options};
  // A tight gate so closed blocking episodes are reported too.
  indexed_monitor.arm_bounds(sim::Duration::ticks(6));
  rescan_monitor.arm_bounds(sim::Duration::ticks(6));
  LockAudit indexed{indexed_monitor, family};
  RescanAudit rescan{rescan_monitor, family};

  EventStream stream{seed, {&indexed, &rescan}, kernel};
  stream.run(600);

  SCOPED_TRACE(std::string{"family "} + to_string(family) + " seed " +
               std::to_string(seed));
  const auto& got = indexed_monitor.reports();
  const auto& want = rescan_monitor.reports();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].rule, want[i].rule) << "report " << i;
    EXPECT_EQ(got[i].detail, want[i].detail) << "report " << i;
    EXPECT_EQ(got[i].at, want[i].at) << "report " << i;
    ++tally.rules[want[i].rule];
  }
  EXPECT_EQ(indexed_monitor.violations(), rescan_monitor.violations());
  EXPECT_EQ(indexed_monitor.wait_cycles_detected(),
            rescan_monitor.wait_cycles_detected());
  EXPECT_EQ(indexed_monitor.max_inversion_span_units(),
            rescan_monitor.max_inversion_span_units());
  EXPECT_EQ(indexed_monitor.observed_max_blocking_units(),
            rescan_monitor.observed_max_blocking_units());
  EXPECT_EQ(indexed_monitor.bound_violations(),
            rescan_monitor.bound_violations());
  tally.grants += stream.grants();
}

class LockAuditEquivalenceTest
    : public ::testing::TestWithParam<ProtocolFamily> {};

TEST_P(LockAuditEquivalenceTest, IndexMatchesRescanOracle) {
  const ProtocolFamily family = GetParam();
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    expect_equivalent(family, seed, tally);
  }
  // The streams must exercise what the index replaces, and leave most
  // grants clean, or the comparison proves little.
  EXPECT_GT(tally.rules["lock.conflict"], 0u);
  EXPECT_GT(tally.rules["lock.two_phase"], 0u);
  EXPECT_GT(tally.rules["bound.blocking"], 0u);
  if (family == ProtocolFamily::kCeiling) {
    EXPECT_GT(tally.rules["pcp.grant_rule"], 0u);
    EXPECT_LT(tally.rules["pcp.grant_rule"], tally.grants);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, LockAuditEquivalenceTest,
    ::testing::Values(ProtocolFamily::kTwoPhase, ProtocolFamily::kCeiling,
                      ProtocolFamily::kHighPriority, ProtocolFamily::kWaitDie,
                      ProtocolFamily::kWoundWait,
                      ProtocolFamily::kRemoteClient),
    [](const ::testing::TestParamInfo<ProtocolFamily>& info) {
      std::string name = to_string(info.param);
      std::erase(name, '-');
      return name;
    });

}  // namespace
}  // namespace rtdb::check
