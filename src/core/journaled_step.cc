#include "core/journaled_step.h"

#include <utility>

#include "common/crash_point.h"
#include "obs/metrics.h"

namespace kea::core {
namespace {

// Deterministic step classification on resume — REPLAY (checkpoint already
// holds the effect), RE-DRIVE (journaled intent, effect re-run), FRESH (new):
// the audit trail that explains what a recovery actually did.
obs::Counter* StepReplayedCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("durable.step_replayed");
  return c;
}
obs::Counter* StepRedrivenCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("durable.step_redriven");
  return c;
}
obs::Counter* StepFreshCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter("durable.step_fresh");
  return c;
}

}  // namespace

StatusOr<JournaledStep> JournaledStep::Bind(JournalContext* ctx) {
  if (ctx != nullptr && ctx->ledger == nullptr) {
    return Status::InvalidArgument("journal context has no ledger");
  }
  return JournaledStep(ctx);
}

const DeploymentLedger::Event* JournaledStep::Recorded(
    const std::string& key) const {
  return ctx_ != nullptr ? ctx_->ledger->Find(key) : nullptr;
}

StatusOr<std::string> JournaledStep::Run(DeploymentLedger::EventType type,
                                         const std::string& key,
                                         const std::string& crash_point,
                                         const PayloadFn& make_payload,
                                         const EffectFn& effect) const {
  if (ctx_ == nullptr) {
    KEA_ASSIGN_OR_RETURN(std::string payload, make_payload());
    if (effect) KEA_RETURN_IF_ERROR(effect(payload));
    return payload;
  }
  const DeploymentLedger::Event* ev = ctx_->ledger->Find(key);
  if (ev != nullptr && ev->seq < ctx_->durable_seq) {
    StepReplayedCounter()->Increment();
    return ev->payload;
  }
  KEA_RETURN_IF_ERROR(CrashPoints::Check(crash_point + ".pre"));
  std::string payload;
  uint64_t seq = 0;
  if (ev != nullptr) {
    StepRedrivenCounter()->Increment();
    payload = ev->payload;
    seq = ev->seq;
  } else {
    StepFreshCounter()->Increment();
    KEA_ASSIGN_OR_RETURN(payload, make_payload());
    KEA_ASSIGN_OR_RETURN(const DeploymentLedger::Event* appended,
                         ctx_->ledger->Append(type, key, payload));
    seq = appended->seq;
  }
  KEA_RETURN_IF_ERROR(CrashPoints::Check(crash_point + ".post_record"));
  if (effect) KEA_RETURN_IF_ERROR(effect(payload));
  if (ctx_->checkpoint) KEA_RETURN_IF_ERROR(ctx_->checkpoint(seq + 1));
  return payload;
}

}  // namespace kea::core
