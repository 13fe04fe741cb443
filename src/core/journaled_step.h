#ifndef KEA_CORE_JOURNALED_STEP_H_
#define KEA_CORE_JOURNALED_STEP_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "core/deployment_ledger.h"

namespace kea::core {

/// Durability context of a journaled run; its presence is what makes a run
/// durable. `durable_seq` is the ledger sequence the restored checkpoint
/// covers: ledger events below it are replayed (bookkeeping only — their
/// effects are already in the restored state), events at or above it are
/// re-driven. `round` numbers the run's idempotency keys.
/// `checkpoint(covered_seq)`, when set, persists the world after each
/// journaled step; `covered_seq` is the number of ledger events whose effects
/// the persisted state contains.
struct JournalContext {
  DeploymentLedger* ledger = nullptr;
  uint64_t durable_seq = 0;
  int round = 0;
  std::function<Status(uint64_t covered_seq)> checkpoint;
};

/// The write-ahead step discipline, implemented once for every journaled
/// driver (guarded rounds, rollout waves, fabric flights). One step is a
/// payload recorded under an idempotency key, then its effect, then a
/// checkpoint covering the step. On resume a step takes one of three paths:
///
///   - REPLAY   (recorded below durable_seq): the restored checkpoint already
///     holds the effect; only the recorded payload is returned.
///   - RE-DRIVE (recorded at or above durable_seq): the effect was lost; it
///     runs again from the recorded payload — the payload maker is not called.
///   - FRESH    (not recorded): make the payload, append it, run the effect.
///
/// Crash points "<name>.pre" and "<name>.post_record" bracket the append, so
/// a crash sweep covers both "died before journaling" (the step re-runs
/// whole) and "journaled but died before the effect was durable" (the step
/// re-drives). A runner bound to no context runs payload -> effect bare: no
/// ledger, no crash points, no checkpoint, no counters.
class JournaledStep {
 public:
  using PayloadFn = std::function<StatusOr<std::string>()>;
  using EffectFn = std::function<Status(const std::string& payload)>;

  /// A runner over `ctx`, or a bare runner when `ctx` is null. A context
  /// without a ledger is InvalidArgument.
  static StatusOr<JournaledStep> Bind(JournalContext* ctx);

  bool journaled() const { return ctx_ != nullptr; }
  /// The context's round number (0 when bare).
  int round() const { return ctx_ != nullptr ? ctx_->round : 0; }
  /// The event recorded under `key`; always null when bare.
  const DeploymentLedger::Event* Recorded(const std::string& key) const;

  /// Runs one step and returns its payload (recorded or fresh). `effect` may
  /// be null for steps that only record a decision.
  StatusOr<std::string> Run(DeploymentLedger::EventType type,
                            const std::string& key,
                            const std::string& crash_point,
                            const PayloadFn& make_payload,
                            const EffectFn& effect) const;

 private:
  explicit JournaledStep(JournalContext* ctx) : ctx_(ctx) {}

  JournalContext* ctx_;
};

}  // namespace kea::core

#endif  // KEA_CORE_JOURNALED_STEP_H_
