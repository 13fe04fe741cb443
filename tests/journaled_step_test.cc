#include "core/journaled_step.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/crash_point.h"
#include "obs/metrics.h"

namespace kea::core {
namespace {

using EventType = DeploymentLedger::EventType;

constexpr char kKey[] = "r0/w0/started";
constexpr char kCrash[] = "test.step";

uint64_t CounterValue(const char* name) {
  return obs::Registry::Get().GetCounter(name)->value();
}

/// Step counters before a call, so a test can check how each one moved.
struct StepCounters {
  uint64_t replayed = CounterValue("durable.step_replayed");
  uint64_t redriven = CounterValue("durable.step_redriven");
  uint64_t fresh = CounterValue("durable.step_fresh");

  void ExpectMoved(uint64_t d_replayed, uint64_t d_redriven,
                   uint64_t d_fresh) const {
#ifndef KEA_OBS_DISABLED
    EXPECT_EQ(CounterValue("durable.step_replayed") - replayed, d_replayed);
    EXPECT_EQ(CounterValue("durable.step_redriven") - redriven, d_redriven);
    EXPECT_EQ(CounterValue("durable.step_fresh") - fresh, d_fresh);
#endif
  }
};

/// A temp-dir ledger plus a context whose checkpoint hook and step callbacks
/// record what they were called with.
class JournaledStepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CrashPoints::Reset();
    path_ = testing::TempDir() + "/journaled_step_" +
            testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".kea";
    std::remove(path_.c_str());
    ledger_ = std::move(DeploymentLedger::Open(path_)).value();
    ctx_.ledger = ledger_.get();
    ctx_.checkpoint = [this](uint64_t covered_seq) {
      checkpoints_.push_back(covered_seq);
      return Status::OK();
    };
  }
  void TearDown() override {
    CrashPoints::Reset();
    ledger_.reset();
    std::remove(path_.c_str());
  }

  void Record(const std::string& key, const std::string& payload) {
    ASSERT_TRUE(ledger_->Append(EventType::kWaveStarted, key, payload).ok());
  }

  StatusOr<std::string> RunStep(JournalContext* ctx) {
    auto step = JournaledStep::Bind(ctx);
    if (!step.ok()) return step.status();
    return step->Run(
        EventType::kWaveStarted, kKey, kCrash,
        [this]() -> StatusOr<std::string> {
          ++payloads_made_;
          if (!payload_status_.ok()) return payload_status_;
          return std::string("fresh");
        },
        [this](const std::string& payload) {
          effects_.push_back(payload);
          return Status::OK();
        });
  }

  std::string path_;
  std::unique_ptr<DeploymentLedger> ledger_;
  JournalContext ctx_;
  std::vector<uint64_t> checkpoints_;
  std::vector<std::string> effects_;
  int payloads_made_ = 0;
  Status payload_status_ = Status::OK();
};

TEST_F(JournaledStepTest, FreshAppendsOnceRunsEffectAndCheckpointsAfterIt) {
  Record("earlier", "x");  // The step lands at seq 1.
  StepCounters before;
  auto payload = RunStep(&ctx_);
  ASSERT_TRUE(payload.ok()) << payload.status();
  EXPECT_EQ(*payload, "fresh");
  EXPECT_EQ(payloads_made_, 1);
  EXPECT_EQ(ledger_->next_seq(), 2u);
  ASSERT_NE(ledger_->Find(kKey), nullptr);
  EXPECT_EQ(ledger_->Find(kKey)->seq, 1u);
  EXPECT_EQ(ledger_->Find(kKey)->payload, "fresh");
  EXPECT_EQ(effects_, std::vector<std::string>{"fresh"});
  EXPECT_EQ(checkpoints_, std::vector<uint64_t>{2});
  before.ExpectMoved(0, 0, 1);
}

TEST_F(JournaledStepTest, RedriveReusesTheRecordedPayload) {
  Record(kKey, "recorded");
  ctx_.durable_seq = 0;  // The checkpoint predates the record.
  StepCounters before;
  auto payload = RunStep(&ctx_);
  ASSERT_TRUE(payload.ok()) << payload.status();
  EXPECT_EQ(*payload, "recorded");
  EXPECT_EQ(payloads_made_, 0);
  EXPECT_EQ(ledger_->next_seq(), 1u);
  EXPECT_EQ(effects_, std::vector<std::string>{"recorded"});
  EXPECT_EQ(checkpoints_, std::vector<uint64_t>{1});
  before.ExpectMoved(0, 1, 0);
}

TEST_F(JournaledStepTest, ReplayReturnsThePayloadAndDoesNothingElse) {
  Record(kKey, "recorded");
  ctx_.durable_seq = 1;  // The checkpoint already holds the effect.
  StepCounters before;
  auto payload = RunStep(&ctx_);
  ASSERT_TRUE(payload.ok()) << payload.status();
  EXPECT_EQ(*payload, "recorded");
  EXPECT_EQ(payloads_made_, 0);
  EXPECT_EQ(ledger_->next_seq(), 1u);
  EXPECT_TRUE(effects_.empty());
  EXPECT_TRUE(checkpoints_.empty());
  before.ExpectMoved(1, 0, 0);
}

TEST_F(JournaledStepTest, CrashBeforeRecordLeavesNoRecord) {
  CrashPoints::Arm("test.step.pre");
  auto payload = RunStep(&ctx_);
  ASSERT_FALSE(payload.ok());
  EXPECT_TRUE(CrashPoints::IsCrash(payload.status())) << payload.status();
  EXPECT_EQ(payloads_made_, 0);
  EXPECT_EQ(ledger_->next_seq(), 0u);
  EXPECT_TRUE(effects_.empty());
  EXPECT_TRUE(checkpoints_.empty());
}

TEST_F(JournaledStepTest, CrashAfterRecordKeepsTheRecordAndRunsNoEffect) {
  CrashPoints::Arm("test.step.post_record");
  auto payload = RunStep(&ctx_);
  ASSERT_FALSE(payload.ok());
  EXPECT_TRUE(CrashPoints::IsCrash(payload.status())) << payload.status();
  ASSERT_NE(ledger_->Find(kKey), nullptr);
  EXPECT_EQ(ledger_->Find(kKey)->payload, "fresh");
  EXPECT_TRUE(effects_.empty());
  EXPECT_TRUE(checkpoints_.empty());
}

TEST_F(JournaledStepTest, FailingPayloadMakerAppendsNothing) {
  payload_status_ = Status::FailedPrecondition("no plan");
  auto payload = RunStep(&ctx_);
  EXPECT_EQ(payload.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ledger_->next_seq(), 0u);
  EXPECT_TRUE(effects_.empty());
  EXPECT_TRUE(checkpoints_.empty());
}

TEST_F(JournaledStepTest, BareModeTouchesNoLedger) {
  Record(kKey, "recorded");  // A bare runner must not see it.
  StepCounters before;
  CrashPoints::SetRecording(true);
  auto step = JournaledStep::Bind(nullptr);
  ASSERT_TRUE(step.ok()) << step.status();
  EXPECT_FALSE(step->journaled());
  EXPECT_EQ(step->round(), 0);
  EXPECT_EQ(step->Recorded(kKey), nullptr);
  auto payload = RunStep(nullptr);
  ASSERT_TRUE(payload.ok()) << payload.status();
  EXPECT_EQ(*payload, "fresh");
  EXPECT_EQ(payloads_made_, 1);
  EXPECT_EQ(effects_, std::vector<std::string>{"fresh"});
  EXPECT_EQ(ledger_->next_seq(), 1u);
  EXPECT_TRUE(checkpoints_.empty());
  EXPECT_TRUE(CrashPoints::Reached().empty());
  before.ExpectMoved(0, 0, 0);
}

TEST_F(JournaledStepTest, ContextWithoutLedgerIsRejected) {
  JournalContext no_ledger;
  EXPECT_EQ(JournaledStep::Bind(&no_ledger).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunStep(&no_ledger).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(payloads_made_, 0);
}

}  // namespace
}  // namespace kea::core
