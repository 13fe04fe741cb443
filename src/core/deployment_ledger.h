#ifndef KEA_CORE_DEPLOYMENT_LEDGER_H_
#define KEA_CORE_DEPLOYMENT_LEDGER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/journal.h"
#include "common/status.h"

namespace kea::core {

/// The write-ahead ledger of everything the control plane does to the fleet:
/// every DeploymentModule apply/rollback and every GuardrailedRollout wave
/// transition is journaled here *before* it takes effect. Each event carries
/// an idempotency key; appending a key that is already present is a no-op
/// that returns the original event, so a crashed-and-resumed round that
/// re-drives its steps records each exactly once.
///
/// The exactly-once contract is split between ledger and checkpoint:
///   - an event's effect becomes *durable* only when a later checkpoint
///     records a `ledger_durable_seq` above the event's sequence number;
///   - on resume, events below the checkpoint's durable_seq are replayed as
///     bookkeeping only (their effects are already inside the checkpoint),
///     events at or above it are re-driven deterministically.
class DeploymentLedger {
 public:
  enum class EventType {
    kRoundStarted = 0,   ///< Tuning round opened; payload carries the plan.
    kWaveStarted = 1,    ///< Rollout wave selected its sub-clusters.
    kWaveApplied = 2,    ///< Per-machine config deltas of one wave.
    kWaveObserved = 3,   ///< Observation window advanced for one wave.
    kWaveVerdict = 4,    ///< Guardrail evaluation for one wave.
    kRollback = 5,       ///< Guardrail trip: every applied wave restored.
    kRoundFinished = 6,  ///< Round closed; payload carries the outcome.
    kApply = 7,          ///< DeploymentModule::ApplyConservatively batch.
    kModuleRollback = 8, ///< DeploymentModule::RollbackLast.
    // Experiment fabric transitions (keys "fab<round>/..."). Every concurrent
    // A/B flight journals its lifecycle here with the same write-ahead +
    // idempotency discipline as rollout waves.
    kFabricStarted = 9,    ///< Fabric run opened; payload carries the queue.
    kFlightAdmitted = 10,  ///< Partition chosen: racks + both arms.
    kFlightStarted = 11,   ///< Patch applied; payload carries per-machine priors.
    kFabricAdvanced = 12,  ///< Clock advanced to the next slice boundary.
    kFlightVerdict = 13,   ///< Guardrail evaluation for one flight window.
    kFlightRollback = 14,  ///< Guardrail trip: one flight's priors restored.
    kFlightConcluded = 15, ///< Flight done; payload carries the conclusion.
    kFabricFinished = 16,  ///< Fabric run closed; payload carries the report.
  };
  friend constexpr EventType StateEnumMax(EventType) {
    return EventType::kFabricFinished;
  }

  struct Event {
    uint64_t seq = 0;     ///< Position in the ledger, dense from 0.
    EventType type = EventType::kRoundStarted;
    std::string key;      ///< Idempotency key, unique in the ledger.
    std::string payload;  ///< Bit-exact binary blob (StateWriter format).

    /// One journal record: seq is the record's position, not on the wire.
    template <class Io>
    friend void Transfer(Io& io, Event& e) {
      io(e.type, e.key, e.payload);
    }
  };

  static const char* EventTypeToString(EventType type);

  /// Opens (or creates) the ledger backed by the journal at `path`. Torn
  /// tails are recovered by the journal layer; a record that decodes to a
  /// duplicate key is rejected as corruption.
  static StatusOr<std::unique_ptr<DeploymentLedger>> Open(const std::string& path);

  /// Write-ahead append. If `key` is already present, nothing is written and
  /// the existing event is returned — replaying a journaled step is
  /// exactly-once by construction. The returned pointer is invalidated by the
  /// next Append.
  StatusOr<const Event*> Append(EventType type, const std::string& key,
                                const std::string& payload);

  const Event* Find(const std::string& key) const;
  bool Has(const std::string& key) const { return Find(key) != nullptr; }

  const std::vector<Event>& events() const { return events_; }
  /// Sequence number the next appended event will get (== events().size()).
  uint64_t next_seq() const { return events_.size(); }
  const Journal::RecoveryInfo& recovery() const { return journal_->recovery(); }

  /// Dry-run integrity check of the backing journal on disk
  /// (Journal::Scrub without repair): CRC-verifies every record and reports
  /// the valid-prefix boundary. Read-only — never truncates, quarantines,
  /// or rewrites, so it is safe to call on a live ledger.
  StatusOr<Journal::ScrubReport> VerifyIntegrity() const;

  /// CSV dump of every applied change in the ledger — per-machine rows from
  /// rollout waves (kWaveApplied) and per-group rows from module batches
  /// (kApply), in ledger order. Columns:
  ///   seq,key,kind,sc,sku,machine_id,old_max_containers,new_max_containers
  /// with -1 for fields a row kind does not carry.
  std::string AppliedChangesCsv() const;

 private:
  explicit DeploymentLedger(std::unique_ptr<Journal> journal)
      : journal_(std::move(journal)) {}

  std::unique_ptr<Journal> journal_;
  std::vector<Event> events_;
  std::unordered_map<std::string, size_t> by_key_;
};

}  // namespace kea::core

#endif  // KEA_CORE_DEPLOYMENT_LEDGER_H_
