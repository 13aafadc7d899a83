#include "core/dynamic_monitor.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/online_executor.h"
#include "policies/mrsf.h"
#include "policies/policy_factory.h"
#include "policies/s_edf.h"
#include "sim/experiment.h"
#include "sim/proxy.h"
#include "test_instances.h"
#include "util/random.h"

namespace pullmon {
namespace {

TEST(DynamicMonitorTest, RegisterAndSubmitValidation) {
  SEdfPolicy policy;
  DynamicMonitor monitor(2, 10, BudgetVector::Uniform(1, 10), &policy,
                         ExecutionMode::kPreemptive);
  ProfileId client = monitor.RegisterProfile("client");
  EXPECT_EQ(client, 0);

  // Unknown profile.
  EXPECT_FALSE(monitor.Submit(5, TInterval({{0, 1, 2}})).ok());
  // Resource out of range.
  EXPECT_FALSE(monitor.Submit(client, TInterval({{7, 1, 2}})).ok());
  // Beyond the epoch.
  EXPECT_FALSE(monitor.Submit(client, TInterval({{0, 8, 12}})).ok());
  // Valid.
  auto submission = monitor.Submit(client, TInterval({{0, 1, 2}}));
  ASSERT_TRUE(submission.ok());
  EXPECT_EQ(*submission, 0);
  EXPECT_EQ(monitor.t_intervals_submitted(), 1u);
}

TEST(DynamicMonitorTest, RejectsRetroactiveSubmissions) {
  SEdfPolicy policy;
  DynamicMonitor monitor(1, 10, BudgetVector::Uniform(1, 10), &policy,
                         ExecutionMode::kPreemptive);
  ProfileId client = monitor.RegisterProfile("client");
  ASSERT_TRUE(monitor.Step().ok());
  ASSERT_TRUE(monitor.Step().ok());
  EXPECT_EQ(monitor.now(), 2);
  // Starts in the past.
  EXPECT_EQ(monitor.Submit(client, TInterval({{0, 1, 5}})).status().code(),
            StatusCode::kFailedPrecondition);
  // Starts right now: fine.
  EXPECT_TRUE(monitor.Submit(client, TInterval({{0, 2, 5}})).ok());
}

TEST(DynamicMonitorTest, CapturesAndReportsPerStep) {
  SEdfPolicy policy;
  DynamicMonitor monitor(2, 6, BudgetVector::Uniform(1, 6), &policy,
                         ExecutionMode::kPreemptive);
  ProfileId client = monitor.RegisterProfile("client");
  ASSERT_TRUE(monitor.Submit(client, TInterval({{0, 0, 1}})).ok());
  ASSERT_TRUE(monitor.Submit(client, TInterval({{1, 0, 0}})).ok());

  auto step0 = monitor.Step();
  ASSERT_TRUE(step0.ok());
  // S-EDF probes r1 (deadline 0) first; the r1 t-interval captures, the
  // r0 one survives to the next chronon.
  EXPECT_EQ(step0->probed, (std::vector<ResourceId>{1}));
  ASSERT_EQ(step0->captured.size(), 1u);
  EXPECT_EQ(step0->captured[0], std::make_pair(ProfileId{0}, 1));
  EXPECT_TRUE(step0->failed.empty());

  auto step1 = monitor.Step();
  ASSERT_TRUE(step1.ok());
  EXPECT_EQ(step1->probed, (std::vector<ResourceId>{0}));
  ASSERT_EQ(step1->captured.size(), 1u);
  EXPECT_EQ(step1->captured[0], std::make_pair(ProfileId{0}, 0));

  EXPECT_EQ(monitor.t_intervals_completed(), 2u);
  EXPECT_EQ(monitor.t_intervals_failed(), 0u);
  CompletenessReport report = monitor.Completeness();
  EXPECT_DOUBLE_EQ(report.GainedCompleteness(), 1.0);
}

TEST(DynamicMonitorTest, FailureReportedOnExpiry) {
  SEdfPolicy policy;
  DynamicMonitor monitor(2, 5, BudgetVector::Uniform(1, 5), &policy,
                         ExecutionMode::kPreemptive);
  ProfileId client = monitor.RegisterProfile("client");
  // Two simultaneous unit EIs on different resources, C = 1: one fails.
  ASSERT_TRUE(monitor.Submit(client, TInterval({{0, 2, 2}})).ok());
  ASSERT_TRUE(monitor.Submit(client, TInterval({{1, 2, 2}})).ok());
  ASSERT_TRUE(monitor.Step().ok());
  ASSERT_TRUE(monitor.Step().ok());
  auto step2 = monitor.Step();
  ASSERT_TRUE(step2.ok());
  EXPECT_EQ(step2->captured.size(), 1u);
  EXPECT_EQ(step2->failed.size(), 1u);
  EXPECT_EQ(monitor.t_intervals_failed(), 1u);
}

TEST(DynamicMonitorTest, StepBeyondEpochFails) {
  SEdfPolicy policy;
  DynamicMonitor monitor(1, 2, BudgetVector::Uniform(1, 2), &policy,
                         ExecutionMode::kPreemptive);
  ASSERT_TRUE(monitor.Step().ok());
  ASSERT_TRUE(monitor.Step().ok());
  EXPECT_EQ(monitor.Step().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(DynamicMonitorTest, MidEpochArrivalIsServed) {
  MrsfPolicy policy;
  DynamicMonitor monitor(2, 10, BudgetVector::Uniform(1, 10), &policy,
                         ExecutionMode::kPreemptive);
  ProfileId early = monitor.RegisterProfile("early");
  ASSERT_TRUE(monitor.Submit(early, TInterval({{0, 0, 9}})).ok());
  ASSERT_TRUE(monitor.Step().ok());  // captures the early one at t=0

  ProfileId late = monitor.RegisterProfile("late");
  ASSERT_TRUE(monitor.Submit(late, TInterval({{1, 3, 4}})).ok());
  ASSERT_TRUE(monitor.Step().ok());  // t=1: nothing live
  ASSERT_TRUE(monitor.Step().ok());  // t=2: nothing live
  auto step3 = monitor.Step();
  ASSERT_TRUE(step3.ok());
  EXPECT_EQ(step3->probed, (std::vector<ResourceId>{1}));
  EXPECT_EQ(monitor.t_intervals_completed(), 2u);
}

TEST(DynamicMonitorTest, RankGrowsWithSubmissions) {
  // MRSF's score depends on rank(p); submitting a rank-3 t-interval to a
  // profile must raise the residuals of its earlier rank-1 t-intervals.
  MrsfPolicy policy;
  DynamicMonitor monitor(4, 12, BudgetVector::Uniform(1, 12), &policy,
                         ExecutionMode::kPreemptive);
  ProfileId simple = monitor.RegisterProfile("simple");
  ProfileId complex_p = monitor.RegisterProfile("complex");
  // Both get a rank-1 t-interval on distinct resources, same window.
  ASSERT_TRUE(monitor.Submit(simple, TInterval({{0, 0, 5}})).ok());
  ASSERT_TRUE(monitor.Submit(complex_p, TInterval({{1, 0, 5}})).ok());
  // complex also holds a rank-3 t-interval, raising rank(complex) to 3:
  // its rank-1 t-interval now scores 3 - 0 = 3 vs simple's 1.
  ASSERT_TRUE(monitor.Submit(
      complex_p, TInterval({{1, 6, 8}, {2, 6, 8}, {3, 6, 8}})).ok());
  auto step0 = monitor.Step();
  ASSERT_TRUE(step0.ok());
  // MRSF prefers the lower residual: the `simple` profile's EI.
  EXPECT_EQ(step0->probed, (std::vector<ResourceId>{0}));
}

TEST(DynamicMonitorTest, CancelOfMaxRankSubmissionLowersRank) {
  // Rank is exact, not a high-water mark: a client that cancels its only
  // rank-3 t-interval must go back to scoring as rank 1 (ROADMAP churn
  // residual b — the explore/exploit scorer reads rank, so staleness
  // changes schedules).
  MrsfPolicy policy;
  DynamicMonitor monitor(6, 12, BudgetVector::Uniform(1, 12), &policy,
                         ExecutionMode::kPreemptive);
  ProfileId heavy = monitor.RegisterProfile("heavy");
  ProfileId light = monitor.RegisterProfile("light");
  // heavy: a rank-1 t-interval on r0 plus a rank-3 one opening later.
  ASSERT_TRUE(monitor.Submit(heavy, TInterval({{0, 0, 9}})).ok());
  auto bulky = monitor.Submit(
      heavy, TInterval({{1, 6, 8}, {2, 6, 8}, {3, 6, 8}}));
  ASSERT_TRUE(bulky.ok());
  // light: a rank-2 t-interval live from the start.
  ASSERT_TRUE(monitor.Submit(light, TInterval({{4, 0, 9}, {5, 0, 9}})).ok());
  // With the rank-3 submission live, heavy's residual is 3 vs light's 2:
  // MRSF would pick light. Cancelling the bulky submission drops
  // rank(heavy) back to 1, so heavy's r0 EI (residual 1) wins.
  ASSERT_TRUE(monitor.Cancel(heavy, *bulky).ok());
  auto step = monitor.Step();
  ASSERT_TRUE(step.ok());
  EXPECT_EQ(step->probed, (std::vector<ResourceId>{0}));
}

TEST(DynamicMonitorTest, EditLoweringRankTakesEffect) {
  // Editing the rank-3 submission down to a rank-1 replacement must
  // lower the profile's rank the same way an outright cancel does.
  MrsfPolicy policy;
  DynamicMonitor monitor(6, 12, BudgetVector::Uniform(1, 12), &policy,
                         ExecutionMode::kPreemptive);
  ProfileId heavy = monitor.RegisterProfile("heavy");
  ProfileId light = monitor.RegisterProfile("light");
  ASSERT_TRUE(monitor.Submit(heavy, TInterval({{0, 0, 9}})).ok());
  auto bulky = monitor.Submit(
      heavy, TInterval({{1, 6, 8}, {2, 6, 8}, {3, 6, 8}}));
  ASSERT_TRUE(bulky.ok());
  ASSERT_TRUE(monitor.Submit(light, TInterval({{4, 0, 9}, {5, 0, 9}})).ok());
  ASSERT_TRUE(monitor.Edit(heavy, *bulky, TInterval({{1, 6, 8}})).ok());
  auto step = monitor.Step();
  ASSERT_TRUE(step.ok());
  // rank(heavy) is now 1 (both submissions are rank 1), beating light's
  // residual of 2.
  EXPECT_EQ(step->probed, (std::vector<ResourceId>{0}));
}

TEST(DynamicMonitorTest, CancelledLeaveCompletenessDenominator) {
  SEdfPolicy policy;
  DynamicMonitor monitor(2, 8, BudgetVector::Uniform(1, 8), &policy,
                         ExecutionMode::kPreemptive);
  ProfileId client = monitor.RegisterProfile("client");
  ASSERT_TRUE(monitor.Submit(client, TInterval({{0, 0, 3}})).ok());
  auto doomed = monitor.Submit(client, TInterval({{1, 0, 7}}));
  ASSERT_TRUE(doomed.ok());
  ASSERT_TRUE(monitor.Step().ok());  // S-EDF captures r0 first
  ASSERT_TRUE(monitor.Cancel(client, *doomed).ok());
  auto report = monitor.RunToEnd();
  ASSERT_TRUE(report.ok());
  // The cancelled t-interval neither completes, fails, nor counts: GC
  // is 1/1, not 1/2.
  EXPECT_EQ(report->total_t_intervals, 1u);
  EXPECT_EQ(report->captured_t_intervals, 1u);
  EXPECT_DOUBLE_EQ(report->GainedCompleteness(), 1.0);
  EXPECT_EQ(monitor.churn_stats().churn_cancelled, 1u);
  EXPECT_EQ(monitor.t_intervals_failed(), 0u);
}

TEST(DynamicMonitorTest, OrphanedProbeAccounting) {
  // A rank-2 t-interval captures one of its two EIs, then gets
  // cancelled: that spent capture is recorded as orphaned work.
  SEdfPolicy policy;
  DynamicMonitor monitor(2, 8, BudgetVector::Uniform(1, 8), &policy,
                         ExecutionMode::kPreemptive);
  ProfileId client = monitor.RegisterProfile("client");
  auto sub = monitor.Submit(client, TInterval({{0, 0, 2}, {1, 4, 6}}));
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(monitor.Step().ok());  // captures the r0 EI
  EXPECT_EQ(monitor.t_intervals_completed(), 0u);
  ASSERT_TRUE(monitor.Cancel(client, *sub).ok());
  EXPECT_EQ(monitor.churn_stats().orphaned_probes, 1u);
  EXPECT_EQ(monitor.churn_stats().churn_cancelled, 1u);
}

TEST(DynamicMonitorTest, EditMovesWorkToReplacement) {
  SEdfPolicy policy;
  DynamicMonitor monitor(3, 10, BudgetVector::Uniform(1, 10), &policy,
                         ExecutionMode::kPreemptive);
  ProfileId client = monitor.RegisterProfile("client");
  auto sub = monitor.Submit(client, TInterval({{0, 2, 9}}));
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(monitor.Step().ok());
  auto replacement = monitor.Edit(client, *sub, TInterval({{2, 1, 9}}));
  ASSERT_TRUE(replacement.ok());
  EXPECT_NE(*replacement, *sub);
  auto step = monitor.Step();
  ASSERT_TRUE(step.ok());
  // The monitor now probes the replacement's resource, not the old one.
  EXPECT_EQ(step->probed, (std::vector<ResourceId>{2}));
  ASSERT_EQ(step->captured.size(), 1u);
  EXPECT_EQ(step->captured[0], std::make_pair(client, *replacement));
  // Net bookkeeping: 2 submitted (original + replacement), 1 completed.
  // The replaced original counts as edited — not cancelled — yet still
  // leaves the completeness denominator.
  EXPECT_EQ(monitor.t_intervals_submitted(), 2u);
  EXPECT_EQ(monitor.churn_stats().churn_cancelled, 0u);
  EXPECT_EQ(monitor.t_intervals_completed(), 1u);
  EXPECT_EQ(monitor.churn_stats().churn_edited, 1u);
  EXPECT_EQ(monitor.Completeness().total_t_intervals, 1u);
}

TEST(DynamicMonitorTest, UnregisterBarsFutureSubmissions) {
  SEdfPolicy policy;
  DynamicMonitor monitor(2, 8, BudgetVector::Uniform(1, 8), &policy,
                         ExecutionMode::kPreemptive);
  ProfileId gone = monitor.RegisterProfile("gone");
  ProfileId stays = monitor.RegisterProfile("stays");
  ASSERT_TRUE(monitor.Submit(gone, TInterval({{0, 1, 6}})).ok());
  ASSERT_TRUE(monitor.Submit(gone, TInterval({{1, 2, 6}})).ok());
  ASSERT_TRUE(monitor.Submit(stays, TInterval({{0, 3, 6}})).ok());
  auto cancelled = monitor.Unregister(gone);
  ASSERT_TRUE(cancelled.ok());
  EXPECT_EQ(*cancelled, 2);
  EXPECT_EQ(monitor.Submit(gone, TInterval({{0, 4, 6}})).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(monitor.Cancel(gone, 0).code(), StatusCode::kInvalidArgument);
  // The other profile is unaffected.
  EXPECT_TRUE(monitor.Submit(stays, TInterval({{1, 4, 6}})).ok());
  EXPECT_EQ(monitor.churn_stats().churn_unregistered_profiles, 1u);
}

TEST(DynamicMonitorTest, RestoreRejectsExpiryCounterOutOfRange) {
  SEdfPolicy policy;
  auto make_monitor = [&policy]() {
    auto monitor = std::make_unique<DynamicMonitor>(
        2, 10, BudgetVector::Uniform(1, 10), &policy,
        ExecutionMode::kPreemptive);
    // Every probe fails, so nothing is ever captured.
    monitor->set_probe_callback([](ResourceId, Chronon) { return false; });
    return monitor;
  };
  auto monitor = make_monitor();
  ProfileId client = monitor->RegisterProfile("client");
  // Fails when its first EI closes at chronon 1: one expiry, then dead.
  ASSERT_TRUE(monitor->Submit(client, TInterval({{0, 0, 1}, {1, 0, 5}})).ok());
  // Still live at chronon 3 with no closed window.
  ASSERT_TRUE(monitor->Submit(client, TInterval({{1, 0, 8}})).ok());
  // Needs one capture of two: still live at chronon 3 after one expiry.
  TInterval alternatives({{0, 0, 1}, {1, 0, 8}});
  alternatives.set_required(1);
  ASSERT_TRUE(monitor->Submit(client, alternatives).ok());
  const std::vector<TInterval> definitions = {
      TInterval({{0, 0, 1}, {1, 0, 5}}), TInterval({{1, 0, 8}}),
      alternatives};
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(monitor->Step().ok());
  const MonitorImage image = monitor->Capture();
  ASSERT_EQ(image.submissions[0].failed, 1);
  ASSERT_EQ(image.submissions[0].num_expired, 1);
  ASSERT_EQ(image.submissions[1].num_expired, 0);
  ASSERT_EQ(image.submissions[2].failed, 0);
  ASSERT_EQ(image.submissions[2].num_expired, 1);
  ASSERT_TRUE(make_monitor()->Restore(image, definitions).ok());
  // One definition per image submission, no fewer.
  EXPECT_EQ(make_monitor()
                ->Restore(image, {definitions[0], definitions[1]})
                .code(),
            StatusCode::kInvalidArgument);

  // (submission, num_expired): below zero, and one above the uncaptured
  // EIs whose window closed before chronon 3, for a dead and a live
  // submission; and, for a live one, below that count.
  for (const auto& [sub, num_expired] :
       {std::pair{0, -1}, std::pair{0, 2}, std::pair{1, -1},
        std::pair{1, 1}, std::pair{2, 0}}) {
    MonitorImage bad = image;
    bad.submissions[static_cast<std::size_t>(sub)].num_expired = num_expired;
    EXPECT_EQ(make_monitor()->Restore(bad, definitions).code(),
              StatusCode::kInvalidArgument)
        << "submission " << sub << " num_expired " << num_expired;
  }
}

class DynamicEquivalenceTest : public testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicEquivalenceTest,
                         testing::Range<uint64_t>(1, 16));

TEST_P(DynamicEquivalenceTest, UpfrontSubmissionMatchesOnlineExecutor) {
  Rng rng(GetParam() * 6151 + 3);
  RandomInstanceOptions options;
  options.num_resources = 5;
  options.epoch_length = 20;
  options.num_t_intervals = 14;
  options.max_rank = 3;
  options.max_width = 4;
  options.budget = static_cast<int>(rng.NextInt(1, 2));
  MonitoringProblem problem = MakeRandomInstance(options, &rng, 2);

  for (ExecutionMode mode :
       {ExecutionMode::kPreemptive, ExecutionMode::kNonPreemptive}) {
    MrsfPolicy policy;
    OnlineExecutor executor(&problem, &policy, mode);
    auto batch = executor.Run();
    ASSERT_TRUE(batch.ok());

    MrsfPolicy dyn_policy;
    DynamicMonitor monitor(problem.num_resources, problem.epoch.length,
                           problem.budget, &dyn_policy, mode);
    for (const auto& profile : problem.profiles) {
      ProfileId pid = monitor.RegisterProfile(profile.name());
      for (const auto& eta : profile.t_intervals()) {
        ASSERT_TRUE(monitor.Submit(pid, eta).ok());
      }
    }
    auto report = monitor.RunToEnd();
    ASSERT_TRUE(report.ok());

    // Identical schedules, probe for probe.
    ASSERT_EQ(monitor.schedule().TotalProbes(),
              batch->schedule.TotalProbes())
        << ExecutionModeToString(mode);
    for (Chronon t = 0; t < problem.epoch.length; ++t) {
      EXPECT_EQ(monitor.schedule().ProbesAt(t),
                batch->schedule.ProbesAt(t))
          << "mode " << ExecutionModeToString(mode) << " t=" << t;
    }
    EXPECT_EQ(report->captured_t_intervals,
              batch->completeness.captured_t_intervals);
  }
}

// Reserve() is a capacity hint: reserving too few, too many or zero
// slots, before or after part of the workload is registered, must not
// change one field of the run's report.
TEST(DynamicMonitorTest, ReserveCountsNeverChangeTheReport) {
  struct Hint {
    const char* name;
    // Counts as a fraction of the workload's (t-intervals, EIs); nullopt
    // runs without Reserve().
    std::optional<double> scale;
    // Submissions registered before Reserve() is called.
    std::size_t submitted_first = 0;
  };
  const Hint hints[] = {{"exact", 1.0},       {"under", 0.5},
                        {"over", 3.0},        {"zero", 0.0},
                        {"late", 1.0, 5},     {"late-under", 0.25, 5}};
  Rng rng(0x5EED5);
  RandomInstanceOptions opts;
  opts.num_resources = 6;
  opts.epoch_length = 24;
  opts.num_t_intervals = 40;
  opts.max_rank = 3;
  opts.max_width = 5;
  opts.budget = 2;
  opts.random_weights = true;
  opts.random_alternatives = true;
  for (int instance = 0; instance < 8; ++instance) {
    const MonitoringProblem problem =
        MakeRandomInstance(opts, &rng, /*t_intervals_per_profile=*/3);
    const double t_total = static_cast<double>(problem.TotalTIntervalCount());
    const double ei_total = static_cast<double>(problem.TotalEiCount());
    auto run = [&](const Hint& hint) {
      MrsfPolicy policy;
      DynamicMonitor monitor(problem.num_resources, problem.epoch.length,
                             problem.budget, &policy,
                             ExecutionMode::kPreemptive);
      std::size_t submitted = 0;
      auto reserve = [&] {
        if (!hint.scale.has_value()) return;
        monitor.Reserve(static_cast<std::size_t>(*hint.scale * t_total),
                        static_cast<std::size_t>(*hint.scale * ei_total));
      };
      for (const auto& profile : problem.profiles) {
        ProfileId pid = monitor.RegisterProfile(profile.name());
        for (const auto& eta : profile.t_intervals()) {
          if (submitted++ == hint.submitted_first) reserve();
          EXPECT_TRUE(monitor.Submit(pid, eta).ok());
        }
      }
      ProxyRunReport report;
      auto completeness = monitor.RunToEnd();
      EXPECT_TRUE(completeness.ok());
      report.run = monitor.RunResult();
      report.run.completeness = *completeness;
      EXPECT_TRUE(monitor.CheckInvariants().ok());
      return report;
    };
    const ProxyRunReport baseline = run(Hint{"none", std::nullopt});
    for (const Hint& hint : hints) {
      EXPECT_EQ(ReportDifference(baseline, run(hint)), "")
          << hint.name << " reserve, instance " << instance;
    }
  }
}

// A scripted churn scenario: each chronon's submits, cancels, edits and
// rare unregisters, drawn once per seed. Some ops target dead or unknown
// submissions on purpose; the monitor rejects those.
struct ScriptedOp {
  enum class Kind { kSubmit, kCancel, kEdit, kUnregister };
  Kind kind = Kind::kSubmit;
  int profile_index = 0;
  int submission_id = 0;
  TInterval t_interval;  // kSubmit / kEdit
};

constexpr int kScriptResources = 6;
constexpr Chronon kScriptEpoch = 24;
constexpr int kScriptProfiles = 4;

TInterval ScriptedTInterval(Rng* rng, Chronon earliest) {
  TInterval eta;
  int rank = static_cast<int>(rng->NextInt(1, 2));
  for (int i = 0; i < rank; ++i) {
    ExecutionInterval ei;
    ei.resource =
        static_cast<ResourceId>(rng->NextInt(0, kScriptResources - 1));
    ei.start = static_cast<Chronon>(
        rng->NextInt(earliest, std::max(earliest, kScriptEpoch - 2)));
    ei.finish = static_cast<Chronon>(rng->NextInt(
        ei.start, std::min<Chronon>(ei.start + 4, kScriptEpoch - 1)));
    eta.AddEi(ei);
  }
  eta.set_weight(0.5 + rng->NextDouble());
  if (eta.size() >= 2 && rng->NextBool(0.3)) {
    eta.set_required(eta.size() - 1);
  }
  return eta;
}

std::vector<std::vector<ScriptedOp>> MakeScript(uint64_t seed) {
  std::vector<std::vector<ScriptedOp>> script(kScriptEpoch);
  Rng ops(seed * 0x2545F4914F6CDD1DULL + 17);
  for (Chronon t = 0; t < kScriptEpoch; ++t) {
    auto& at = script[static_cast<std::size_t>(t)];
    if (ops.NextBool(t < kScriptEpoch / 2 ? 0.9 : 0.4)) {
      ScriptedOp op;
      op.kind = ScriptedOp::Kind::kSubmit;
      op.profile_index =
          static_cast<int>(ops.NextInt(0, kScriptProfiles - 1));
      op.t_interval = ScriptedTInterval(&ops, t);
      at.push_back(std::move(op));
    }
    if (ops.NextBool(0.35)) {
      ScriptedOp op;
      op.kind = ScriptedOp::Kind::kCancel;
      op.profile_index =
          static_cast<int>(ops.NextInt(0, kScriptProfiles - 1));
      op.submission_id = static_cast<int>(ops.NextInt(0, 6));
      at.push_back(std::move(op));
    }
    if (ops.NextBool(0.3)) {
      ScriptedOp op;
      op.kind = ScriptedOp::Kind::kEdit;
      op.profile_index =
          static_cast<int>(ops.NextInt(0, kScriptProfiles - 1));
      op.submission_id = static_cast<int>(ops.NextInt(0, 6));
      op.t_interval = ScriptedTInterval(&ops, t);
      at.push_back(std::move(op));
    }
    if (ops.NextBool(0.02)) {
      ScriptedOp op;
      op.kind = ScriptedOp::Kind::kUnregister;
      op.profile_index =
          static_cast<int>(ops.NextInt(0, kScriptProfiles - 1));
      at.push_back(std::move(op));
    }
  }
  return script;
}

void ApplyScriptedOp(DynamicMonitor* monitor, const ScriptedOp& op,
                     const std::vector<ProfileId>& profiles) {
  const ProfileId profile =
      profiles[static_cast<std::size_t>(op.profile_index)];
  switch (op.kind) {
    case ScriptedOp::Kind::kSubmit:
      (void)monitor->Submit(profile, op.t_interval);
      break;
    case ScriptedOp::Kind::kCancel:
      (void)monitor->Cancel(profile, op.submission_id);
      break;
    case ScriptedOp::Kind::kEdit:
      (void)monitor->Edit(profile, op.submission_id, op.t_interval);
      break;
    case ScriptedOp::Kind::kUnregister:
      (void)monitor->Unregister(profile);
      break;
  }
}

// Capture callbacks must fire in exactly the order StepResult::captured
// reports, under every standard policy and a churning workload.
TEST(DynamicMonitorTest, CaptureCallbackOrderMatchesStepResult) {
  std::vector<PolicySpec> specs = StandardPolicySpecs();
  for (uint64_t seed = 400; seed < 408; ++seed) {
    const PolicySpec& spec = specs[seed % specs.size()];
    PolicyOptions po;
    po.random_seed = seed ^ 0x5bf03635ULL;
    po.num_resources = kScriptResources;
    auto policy = MakePolicy(spec.policy, po);
    ASSERT_TRUE(policy.ok());
    DynamicMonitor monitor(kScriptResources, kScriptEpoch,
                           BudgetVector::Uniform(2, kScriptEpoch),
                           policy->get(), spec.mode);
    std::vector<std::pair<ProfileId, int>> fired;
    monitor.set_capture_callback(
        [&](ProfileId profile, int submission, Chronon) {
          fired.emplace_back(profile, submission);
        });
    std::vector<ProfileId> profiles;
    for (int p = 0; p < kScriptProfiles; ++p) {
      profiles.push_back(
          monitor.RegisterProfile("client-" + std::to_string(p)));
    }
    const std::vector<std::vector<ScriptedOp>> script = MakeScript(seed);
    for (Chronon t = 0; t < kScriptEpoch; ++t) {
      for (const ScriptedOp& op : script[static_cast<std::size_t>(t)]) {
        ApplyScriptedOp(&monitor, op, profiles);
      }
      fired.clear();
      auto step = monitor.Step();
      ASSERT_TRUE(step.ok());
      EXPECT_EQ(fired, step->captured)
          << spec.Label() << " seed=" << seed << " chronon " << t;
    }
  }
}

}  // namespace
}  // namespace pullmon
