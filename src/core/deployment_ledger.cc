#include "core/deployment_ledger.h"

#include "common/csv.h"
#include "common/snapshot.h"
#include "core/experiment_fabric.h"

namespace kea::core {

const char* DeploymentLedger::EventTypeToString(EventType type) {
  switch (type) {
    case EventType::kRoundStarted:
      return "ROUND_STARTED";
    case EventType::kWaveStarted:
      return "WAVE_STARTED";
    case EventType::kWaveApplied:
      return "WAVE_APPLIED";
    case EventType::kWaveObserved:
      return "WAVE_OBSERVED";
    case EventType::kWaveVerdict:
      return "WAVE_VERDICT";
    case EventType::kRollback:
      return "ROLLBACK";
    case EventType::kRoundFinished:
      return "ROUND_FINISHED";
    case EventType::kApply:
      return "APPLY";
    case EventType::kModuleRollback:
      return "MODULE_ROLLBACK";
    case EventType::kFabricStarted:
      return "FABRIC_STARTED";
    case EventType::kFlightAdmitted:
      return "FLIGHT_ADMITTED";
    case EventType::kFlightStarted:
      return "FLIGHT_STARTED";
    case EventType::kFabricAdvanced:
      return "FABRIC_ADVANCED";
    case EventType::kFlightVerdict:
      return "FLIGHT_VERDICT";
    case EventType::kFlightRollback:
      return "FLIGHT_ROLLBACK";
    case EventType::kFlightConcluded:
      return "FLIGHT_CONCLUDED";
    case EventType::kFabricFinished:
      return "FABRIC_FINISHED";
  }
  return "UNKNOWN";
}

StatusOr<std::unique_ptr<DeploymentLedger>> DeploymentLedger::Open(
    const std::string& path) {
  KEA_ASSIGN_OR_RETURN(std::unique_ptr<Journal> journal, Journal::Open(path));
  auto ledger = std::unique_ptr<DeploymentLedger>(
      new DeploymentLedger(std::move(journal)));
  for (const std::string& record : ledger->journal_->records()) {
    Event event;
    KEA_RETURN_IF_ERROR(DecodeState(record, &event));
    event.seq = ledger->events_.size();
    if (!ledger->by_key_.emplace(event.key, event.seq).second) {
      return Status::InvalidArgument("ledger has duplicate key '" + event.key +
                                     "'");
    }
    ledger->events_.push_back(std::move(event));
  }
  return ledger;
}

StatusOr<const DeploymentLedger::Event*> DeploymentLedger::Append(
    EventType type, const std::string& key, const std::string& payload) {
  auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    // Idempotent replay: the step was journaled by a previous incarnation.
    return &events_[it->second];
  }
  Event event;
  event.seq = events_.size();
  event.type = type;
  event.key = key;
  event.payload = payload;
  KEA_RETURN_IF_ERROR(journal_->Append(EncodeState(event)));
  by_key_.emplace(key, events_.size());
  events_.push_back(std::move(event));
  return &events_.back();
}

StatusOr<Journal::ScrubReport> DeploymentLedger::VerifyIntegrity() const {
  return Journal::Scrub(journal_->path(), /*repair=*/false);
}

const DeploymentLedger::Event* DeploymentLedger::Find(
    const std::string& key) const {
  auto it = by_key_.find(key);
  return it == by_key_.end() ? nullptr : &events_[it->second];
}

std::string DeploymentLedger::AppliedChangesCsv() const {
  CsvWriter writer;
  writer.SetHeader({"seq", "key", "kind", "sc", "sku", "machine_id",
                    "old_max_containers", "new_max_containers"});
  auto str = [](int64_t v) { return std::to_string(v); };
  auto row = [&](const Event& event, const char* kind, int sc, int sku,
                 int machine, int old_max, int new_max) {
    (void)writer.AppendRow({str(static_cast<int64_t>(event.seq)), event.key,
                            kind, str(sc), str(sku), str(machine), str(old_max),
                            str(new_max)});
  };
  for (const Event& event : events_) {
    if (event.type == EventType::kWaveApplied) {
      std::vector<WaveDelta> deltas;
      if (!DecodeState(event.payload, &deltas).ok()) continue;
      for (const WaveDelta& d : deltas) {
        row(event, "wave_machine", -1, -1, d.machine, d.old_max, d.new_max);
      }
    } else if (event.type == EventType::kFlightStarted) {
      FlightStarted started;
      if (!DecodeState(event.payload, &started).ok()) continue;
      for (const FlightPrior& p : started.priors) {
        row(event, "flight_machine", p.sc, -1, p.id, p.old_max, p.new_max);
      }
    } else if (event.type == EventType::kApply) {
      std::vector<AppliedChange> batch;
      if (!DecodeState(event.payload, &batch).ok()) continue;
      for (const AppliedChange& c : batch) {
        row(event, "group", c.group.sc, c.group.sku, -1, c.old_max_containers,
            c.new_max_containers);
      }
    }
  }
  return writer.ToString();
}

}  // namespace kea::core
