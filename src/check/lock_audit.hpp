#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "cc/observer.hpp"
#include "check/wait_graph.hpp"
#include "sim/priority.hpp"
#include "sim/time.hpp"

namespace rtdb::check {

class ConformanceMonitor;

// Which rule set a controller is audited against. The families map the
// shipped protocols onto their provable invariants: what is a theorem for
// one protocol (e.g. an acyclic wait-for graph under wait-die) is merely a
// statistic for another (2PL resolves its cycles by aborting a victim).
enum class ProtocolFamily : std::uint8_t {
  kTwoPhase,      // 2PL / 2PL-P / 2PL-PIP: deadlocks legal, detector resolves
  kCeiling,       // PCP / PCP-X: ceiling grant rule replayed exactly
  kHighPriority,  // 2PL-HP: transient cycles dissolve via wounds
  kWaitDie,       // age orientation: waiter older than every blocker
  kWoundWait,     // age orientation: waiter younger than every blocker
  kRemoteClient,  // global-ceiling client: structural + two-phase rule only
};

const char* to_string(ProtocolFamily family);

// Online audit of one lock-based ConcurrencyController. Maintains a shadow
// of the held-lock sets, the live wait-for graph, and — for the ceiling
// family — the per-object ceilings derived from the declared sets of the
// active transactions, and checks every observed event against the
// family's invariants:
//   * two-phase rule: no grant after the attempt's release_all
//   * compatibility: a write grant admits no second holder; a read grant
//     admits no writer (covers failover adoption double-owners)
//   * ceiling grant rule (kCeiling): the requester's base priority must
//     exceed the strongest rw-ceiling among locks held by others — an
//     exact replay of PriorityCeiling::can_grant
//   * age orientation (kWaitDie / kWoundWait): every wait edge points the
//     way the age rule proves acyclic, and no wait cycle may ever close
// Wait cycles in the other families and priority-inversion spans are
// measured (wait_cycles_detected / max_inversion_span scalars), not flagged.
class LockAudit final : public cc::CcObserver {
 public:
  LockAudit(ConformanceMonitor& monitor, ProtocolFamily family);

  void on_txn_begin(const cc::CcTxn& txn) override;
  void on_txn_end(const cc::CcTxn& txn) override;
  void on_grant(const cc::CcTxn& txn, db::ObjectId object,
                cc::LockMode mode) override;
  void on_block(const cc::CcTxn& txn, db::ObjectId object, cc::LockMode mode,
                std::span<cc::CcTxn* const> blockers) override;
  void on_unblock(const cc::CcTxn& txn) override;
  void on_release_all(const cc::CcTxn& txn) override;
  void on_abort(db::TxnId victim, cc::AbortReason reason) override;
  void on_adopt(const cc::CcTxn& txn, db::ObjectId object,
                cc::LockMode mode) override;

 private:
  struct HeldLock {
    db::ObjectId object;
    cc::LockMode mode;
  };
  struct ShadowTxn {
    std::uint32_t attempt = 0;
    sim::Priority base{};
    // Objects this attempt declared at begin (ceiling family only); each
    // has a Declarer entry in its ObjectIndex. Empty for an attempt whose
    // begin was not seen, which therefore adds to no ceiling.
    std::vector<db::ObjectId> declared;
    std::vector<HeldLock> held;  // each object once; mirrored by a Holder
    bool released = false;  // release_all seen for this attempt
    bool inversion = false;
    sim::TimePoint inversion_start{};
    // Open blocking episode (block → unblock), fed to the monitor's
    // blocking-bound gate when it closes.
    bool waiting = false;
    sim::TimePoint wait_start{};
  };
  struct Holder {
    std::uint64_t txn;
    cc::LockMode mode;
  };
  struct Declarer {
    const ShadowTxn* shadow;  // read for its current base priority
    bool may_write;
  };
  // The audit's own per-object index over the shadow state: kept in step
  // with every held/declared change, so a grant reads one object's holders
  // and the ceiling check walks only the locked objects.
  struct ObjectIndex {
    std::vector<Holder> holders;  // ascending txn id (report order)
    std::vector<Declarer> declarers;
    std::uint32_t locked_slot = kNotLocked;  // position in locked_
  };
  static constexpr std::uint32_t kNotLocked = UINT32_MAX;

  ShadowTxn& shadow_of(const cc::CcTxn& txn);
  ObjectIndex& index_of(db::ObjectId object);
  void install(std::uint64_t txn, ShadowTxn& shadow, db::ObjectId object,
               cc::LockMode mode);
  // Drops the shadow's locks (drop_held) or everything it contributes to
  // the index (forget) before the shadow is cleared or erased.
  void drop_held(std::uint64_t txn, ShadowTxn& shadow);
  void forget(std::uint64_t txn, ShadowTxn& shadow);
  void check_two_phase(const cc::CcTxn& txn, const ShadowTxn& shadow,
                       db::ObjectId object);
  void check_compat(const cc::CcTxn& txn, db::ObjectId object,
                    cc::LockMode mode, const char* how);
  void check_ceiling_grant(const cc::CcTxn& txn, db::ObjectId object);
  void close_inversion(ShadowTxn& shadow);
  void close_wait(const cc::CcTxn& txn, ShadowTxn& shadow);

  ConformanceMonitor& monitor_;
  ProtocolFamily family_;
  WaitGraph graph_;
  // Keyed by TxnId value. Node-based, so the Declarer pointers into it
  // stay valid until the shadow is forgotten and erased.
  std::map<std::uint64_t, ShadowTxn> txns_;
  // Indexed by ObjectId: object ids are dense database indexes, so the
  // table grows to the database size and no further.
  std::vector<ObjectIndex> objects_;
  std::vector<db::ObjectId> locked_;  // objects with at least one holder
};

}  // namespace rtdb::check
