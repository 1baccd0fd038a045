#include "check/lock_audit.hpp"

#include <sstream>
#include <string>

#include "check/monitor.hpp"

namespace rtdb::check {

namespace {

std::string priority_string(sim::Priority p) {
  return "(" + std::to_string(p.key()) + "," + std::to_string(p.tie()) + ")";
}

}  // namespace

const char* to_string(ProtocolFamily family) {
  switch (family) {
    case ProtocolFamily::kTwoPhase:
      return "two-phase";
    case ProtocolFamily::kCeiling:
      return "ceiling";
    case ProtocolFamily::kHighPriority:
      return "high-priority";
    case ProtocolFamily::kWaitDie:
      return "wait-die";
    case ProtocolFamily::kWoundWait:
      return "wound-wait";
    case ProtocolFamily::kRemoteClient:
      return "remote-client";
  }
  return "?";
}

LockAudit::LockAudit(ConformanceMonitor& monitor, ProtocolFamily family)
    : monitor_(monitor), family_(family) {}

LockAudit::ShadowTxn& LockAudit::shadow_of(const cc::CcTxn& txn) {
  ShadowTxn& shadow = txns_[txn.id.value];
  if (shadow.attempt != txn.attempt) {
    // A new attempt restarts the attempt-scoped state (two-phase rule,
    // held set, declared set) even when the begin event was missed.
    forget(txn.id.value, shadow);
    shadow = ShadowTxn{};
    shadow.attempt = txn.attempt;
  }
  shadow.base = txn.base_priority;
  return shadow;
}

LockAudit::ObjectIndex& LockAudit::index_of(db::ObjectId object) {
  if (object >= objects_.size()) objects_.resize(std::size_t{object} + 1);
  return objects_[object];
}

void LockAudit::on_txn_begin(const cc::CcTxn& txn) {
  monitor_.record({{}, "begin", txn.id.value, txn.attempt, 0, 0});
  ShadowTxn& shadow = txns_[txn.id.value];
  forget(txn.id.value, shadow);
  shadow = ShadowTxn{};
  shadow.attempt = txn.attempt;
  shadow.base = txn.base_priority;
  if (family_ != ProtocolFamily::kCeiling) return;
  for (const cc::Operation& op : txn.access.operations()) {
    index_of(op.object).declarers.push_back(
        {&shadow, op.mode == cc::LockMode::kWrite});
    shadow.declared.push_back(op.object);
  }
}

void LockAudit::on_txn_end(const cc::CcTxn& txn) {
  monitor_.record({{}, "end", txn.id.value, txn.attempt, 0, 0});
  auto it = txns_.find(txn.id.value);
  if (it != txns_.end()) {
    close_inversion(it->second);
    close_wait(txn, it->second);
    forget(txn.id.value, it->second);
    txns_.erase(it);
  }
  graph_.remove(txn.id.value);
}

void LockAudit::on_grant(const cc::CcTxn& txn, db::ObjectId object,
                         cc::LockMode mode) {
  monitor_.record({{},
                   "grant",
                   txn.id.value,
                   txn.attempt,
                   static_cast<std::int64_t>(object),
                   mode == cc::LockMode::kWrite ? 1 : 0});
  ShadowTxn& shadow = shadow_of(txn);
  check_two_phase(txn, shadow, object);
  if (family_ == ProtocolFamily::kCeiling) check_ceiling_grant(txn, object);
  check_compat(txn, object, mode, "granted");
  install(txn.id.value, shadow, object, mode);
}

void LockAudit::on_adopt(const cc::CcTxn& txn, db::ObjectId object,
                         cc::LockMode mode) {
  monitor_.record({{},
                   "adopt",
                   txn.id.value,
                   txn.attempt,
                   static_cast<std::int64_t>(object),
                   mode == cc::LockMode::kWrite ? 1 : 0});
  // Adoption reinstalls a lock a previous manager already granted, so the
  // ceiling grant rule is legitimately skipped — but ownership must still
  // be single-writer ("orphan-lock adoption leaves no double owner").
  ShadowTxn& shadow = shadow_of(txn);
  check_compat(txn, object, mode, "adopted");
  install(txn.id.value, shadow, object, mode);
}

void LockAudit::on_block(const cc::CcTxn& txn, db::ObjectId object,
                         cc::LockMode mode,
                         std::span<cc::CcTxn* const> blockers) {
  monitor_.record({{},
                   "block",
                   txn.id.value,
                   txn.attempt,
                   static_cast<std::int64_t>(object),
                   static_cast<std::int64_t>(blockers.size())});
  ShadowTxn& shadow = shadow_of(txn);

  // Age orientation: the flavour's wait rule makes every edge point the
  // same way along the (never reused) transaction-id order, which is what
  // proves the wait-for graph acyclic. An edge against that order means
  // the protocol waited where it had to die (or wound).
  if (family_ == ProtocolFamily::kWaitDie ||
      family_ == ProtocolFamily::kWoundWait) {
    for (const cc::CcTxn* blocker : blockers) {
      const bool waiter_older = txn.id.value < blocker->id.value;
      const bool ok =
          family_ == ProtocolFamily::kWaitDie ? waiter_older : !waiter_older;
      if (!ok) {
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
  }

  // Wait-for graph upkeep + cycle detection.
  std::vector<std::uint64_t> edge_targets;
  edge_targets.reserve(blockers.size());
  for (const cc::CcTxn* blocker : blockers) {
    edge_targets.push_back(blocker->id.value);
  }
  if (graph_.set_edges(txn.id.value, std::move(edge_targets))) {
    monitor_.note_cycle();
    if (family_ == ProtocolFamily::kWaitDie ||
        family_ == ProtocolFamily::kWoundWait) {
      // Age-ordered waiting is provably deadlock-free; a closed cycle is a
      // protocol bug, not a condition a detector is allowed to fix later.
      std::ostringstream detail;
      detail << "wait-for cycle through txn " << txn.id.value << ":";
      for (const std::uint64_t member : graph_.last_cycle()) {
        detail << " " << member;
      }
      monitor_.report("age.wait_cycle", detail.str());
    }
  }

  // Blocking episode for the bound gate: opened by the first block of a
  // wait, closed by the matching unblock (grant, abort, or kill — the
  // observer contract guarantees exactly one per block).
  if (!shadow.waiting) {
    shadow.waiting = true;
    shadow.wait_start = monitor_.now();
  }

  // Priority-inversion span: a higher-priority transaction starts waiting
  // behind at least one lower-priority holder.
  if (!shadow.inversion) {
    for (const cc::CcTxn* blocker : blockers) {
      if (txn.base_priority.higher_than(blocker->base_priority)) {
        shadow.inversion = true;
        shadow.inversion_start = monitor_.now();
        break;
      }
    }
  }
  (void)mode;
}

void LockAudit::on_unblock(const cc::CcTxn& txn) {
  monitor_.record({{}, "unblock", txn.id.value, txn.attempt, 0, 0});
  graph_.clear_waiter(txn.id.value);
  auto it = txns_.find(txn.id.value);
  if (it != txns_.end()) {
    close_inversion(it->second);
    close_wait(txn, it->second);
  }
}

void LockAudit::on_release_all(const cc::CcTxn& txn) {
  monitor_.record({{}, "release", txn.id.value, txn.attempt, 0, 0});
  ShadowTxn& shadow = shadow_of(txn);
  drop_held(txn.id.value, shadow);
  shadow.released = true;
}

void LockAudit::on_abort(db::TxnId victim, cc::AbortReason reason) {
  monitor_.record({{},
                   "abort",
                   victim.value,
                   0,
                   static_cast<std::int64_t>(reason),
                   0});
  // The victim's unblock/release events settle the shadow state; the abort
  // itself only needs to land in the trace.
}

void LockAudit::install(std::uint64_t txn, ShadowTxn& shadow,
                        db::ObjectId object, cc::LockMode mode) {
  ObjectIndex& entry = index_of(object);
  for (HeldLock& held : shadow.held) {
    if (held.object != object) continue;
    if (mode == cc::LockMode::kWrite) {
      held.mode = cc::LockMode::kWrite;  // upgrade; a write covers the read
      for (Holder& holder : entry.holders) {
        if (holder.txn == txn) holder.mode = cc::LockMode::kWrite;
      }
    }
    return;
  }
  shadow.held.push_back({object, mode});
  auto pos = entry.holders.begin();
  while (pos != entry.holders.end() && pos->txn < txn) ++pos;
  entry.holders.insert(pos, {txn, mode});
  if (entry.locked_slot == kNotLocked) {
    entry.locked_slot = static_cast<std::uint32_t>(locked_.size());
    locked_.push_back(object);
  }
}

void LockAudit::drop_held(std::uint64_t txn, ShadowTxn& shadow) {
  for (const HeldLock& held : shadow.held) {
    ObjectIndex& entry = objects_[held.object];
    std::erase_if(entry.holders,
                  [txn](const Holder& holder) { return holder.txn == txn; });
    if (!entry.holders.empty()) continue;
    // Swap-remove from the locked list, re-pointing the moved object.
    const db::ObjectId moved = locked_.back();
    locked_[entry.locked_slot] = moved;
    objects_[moved].locked_slot = entry.locked_slot;
    locked_.pop_back();
    entry.locked_slot = kNotLocked;
  }
  shadow.held.clear();
}

void LockAudit::forget(std::uint64_t txn, ShadowTxn& shadow) {
  drop_held(txn, shadow);
  for (const db::ObjectId object : shadow.declared) {
    std::vector<Declarer>& declarers = objects_[object].declarers;
    for (Declarer& declarer : declarers) {
      if (declarer.shadow != &shadow) continue;
      declarer = declarers.back();
      declarers.pop_back();
      break;
    }
  }
  shadow.declared.clear();
}

void LockAudit::check_two_phase(const cc::CcTxn& txn, const ShadowTxn& shadow,
                                db::ObjectId object) {
  if (!shadow.released) return;
  std::ostringstream detail;
  detail << "txn " << txn.id.value << "/" << txn.attempt
         << " granted object " << object
         << " after its release_all (two-phase rule)";
  monitor_.report("lock.two_phase", detail.str());
}

void LockAudit::check_compat(const cc::CcTxn& txn, db::ObjectId object,
                             cc::LockMode mode, const char* how) {
  for (const Holder& holder : index_of(object).holders) {
    if (holder.txn == txn.id.value) continue;
    if (mode == cc::LockMode::kRead && holder.mode == cc::LockMode::kRead) {
      continue;  // read-read is the one compatible pair
    }
    std::ostringstream detail;
    detail << "txn " << txn.id.value << "/" << txn.attempt << " " << how
           << " a " << cc::to_string(mode) << " lock on object " << object
           << " already " << cc::to_string(holder.mode) << "-held by txn "
           << holder.txn;
    monitor_.report("lock.conflict", detail.str());
  }
}

void LockAudit::check_ceiling_grant(const cc::CcTxn& txn, db::ObjectId object) {
  // Exact replay of PriorityCeiling::can_grant against the shadow state:
  // the grant is legal iff the requester's *base* priority is strictly
  // higher than the strongest rw-ceiling among locks held (at least
  // partly) by other transactions. Ties name the lowest object id.
  bool blocked = false;
  sim::Priority strongest = sim::Priority::lowest();
  db::ObjectId blocking_object = 0;
  for (const db::ObjectId locked_object : locked_) {
    const ObjectIndex& entry = objects_[locked_object];
    bool held_by_other = false;
    bool write_locked = false;
    for (const Holder& holder : entry.holders) {
      if (holder.txn != txn.id.value) held_by_other = true;
      if (holder.mode == cc::LockMode::kWrite) write_locked = true;
    }
    if (!held_by_other) continue;
    // "When a data object is write-locked, the rw-priority ceiling ... is
    // equal to the absolute priority ceiling. When it is read-locked ...
    // equal to the write-priority ceiling." Both are the strongest base
    // among the began transactions that declared the object (for writing).
    sim::Priority ceiling = sim::Priority::lowest();
    for (const Declarer& declarer : entry.declarers) {
      if (!write_locked && !declarer.may_write) continue;
      ceiling = sim::Priority::stronger(ceiling, declarer.shadow->base);
    }
    if (!blocked || ceiling.higher_than(strongest) ||
        (ceiling == strongest && locked_object < blocking_object)) {
      strongest = ceiling;
      blocking_object = locked_object;
    }
    blocked = true;
  }
  if (!blocked || txn.base_priority.higher_than(strongest)) return;
  std::ostringstream detail;
  detail << "txn " << txn.id.value << "/" << txn.attempt << " base "
         << priority_string(txn.base_priority) << " granted object " << object
         << " despite rw-ceiling " << priority_string(strongest)
         << " of locked object " << blocking_object;
  monitor_.report("pcp.grant_rule", detail.str());
}

void LockAudit::close_inversion(ShadowTxn& shadow) {
  if (!shadow.inversion) return;
  shadow.inversion = false;
  monitor_.note_inversion(monitor_.now() - shadow.inversion_start);
}

void LockAudit::close_wait(const cc::CcTxn& txn, ShadowTxn& shadow) {
  if (!shadow.waiting) return;
  shadow.waiting = false;
  monitor_.note_blocking(txn, monitor_.now() - shadow.wait_start);
}

}  // namespace rtdb::check
