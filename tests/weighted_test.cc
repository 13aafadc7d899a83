// Tests for the Section-6 "client utilities" extension: weighted
// t-intervals, weighted completeness, utility-aware policies, and the
// weighted offline solvers.

#include <gtest/gtest.h>

#include "core/online_executor.h"
#include "offline/exact_solver.h"
#include "offline/local_ratio.h"
#include "policies/mrsf.h"
#include "policies/s_edf.h"
#include "policies/weighted.h"
#include "util/random.h"

namespace pullmon {
namespace {

TInterval WeightedUnit(ResourceId r, Chronon t, double weight) {
  TInterval eta({ExecutionInterval(r, t, t)});
  eta.set_weight(weight);
  return eta;
}

TEST(WeightedTIntervalTest, DefaultsAndValidation) {
  TInterval eta({{0, 0, 1}});
  EXPECT_DOUBLE_EQ(eta.weight(), 1.0);
  EXPECT_TRUE(eta.RequiresAll());
  eta.set_weight(0.0);
  EXPECT_FALSE(eta.Validate(Epoch{5}).ok());
  eta.set_weight(-1.0);
  EXPECT_FALSE(eta.Validate(Epoch{5}).ok());
  eta.set_weight(2.5);
  EXPECT_TRUE(eta.Validate(Epoch{5}).ok());
}

TEST(WeightedCompletenessTest, WeightedGcCountsUtilities) {
  std::vector<Profile> profiles{
      Profile("a", {WeightedUnit(0, 1, 5.0), WeightedUnit(1, 1, 1.0)})};
  Schedule schedule(4);
  ASSERT_TRUE(schedule.AddProbe(0, 1).ok());
  CompletenessReport report = EvaluateCompleteness(profiles, schedule);
  EXPECT_EQ(report.captured_t_intervals, 1u);
  EXPECT_DOUBLE_EQ(report.total_weight, 6.0);
  EXPECT_DOUBLE_EQ(report.captured_weight, 5.0);
  EXPECT_NEAR(report.GainedCompleteness(), 0.5, 1e-12);
  EXPECT_NEAR(report.WeightedGainedCompleteness(), 5.0 / 6.0, 1e-12);
}

TEST(WeightedCompletenessTest, UnitWeightsMatchCounts) {
  std::vector<Profile> profiles{
      Profile("a", {TInterval({{0, 0, 1}}), TInterval({{1, 0, 1}})})};
  Schedule schedule(3);
  ASSERT_TRUE(schedule.AddProbe(0, 0).ok());
  CompletenessReport report = EvaluateCompleteness(profiles, schedule);
  EXPECT_DOUBLE_EQ(report.captured_weight,
                   static_cast<double>(report.captured_t_intervals));
  EXPECT_DOUBLE_EQ(report.total_weight,
                   static_cast<double>(report.total_t_intervals));
}

MonitoringProblem ConflictPair(double weight_a, double weight_b) {
  // Two unit EIs at the same chronon on different resources, C = 1:
  // exactly one can be captured; the solver must pick by weight.
  MonitoringProblem p;
  p.num_resources = 2;
  p.epoch.length = 3;
  p.budget = BudgetVector::Uniform(1, 3);
  p.profiles = {Profile("a", {WeightedUnit(0, 1, weight_a)}),
                Profile("b", {WeightedUnit(1, 1, weight_b)})};
  return p;
}

TEST(WeightedExactSolverTest, PicksTheHeavierTInterval) {
  MonitoringProblem p = ConflictPair(1.0, 10.0);
  ExactSolver solver(&p);
  auto solution = solver.Solve();
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(solution->captured, 1u);
  EXPECT_DOUBLE_EQ(solution->captured_weight, 10.0);
  EXPECT_TRUE(solution->schedule.HasProbe(1, 1));

  MonitoringProblem q = ConflictPair(10.0, 1.0);
  ExactSolver solver2(&q);
  auto solution2 = solver2.Solve();
  ASSERT_TRUE(solution2.ok());
  EXPECT_DOUBLE_EQ(solution2->captured_weight, 10.0);
  EXPECT_TRUE(solution2->schedule.HasProbe(0, 1));
}

TEST(WeightedLocalRatioTest, PrefersTheHeavierTInterval) {
  MonitoringProblem p = ConflictPair(1.0, 10.0);
  LocalRatioScheduler scheduler(&p);
  auto solution = scheduler.Solve();
  ASSERT_TRUE(solution.ok());
  EXPECT_DOUBLE_EQ(solution->captured_weight, 10.0);
}

TEST(UtilityPoliciesTest, UtilityMrsfPrefersHighWeight) {
  TInterval heavy_eta({ExecutionInterval(0, 0, 5)});
  heavy_eta.set_weight(4.0);
  TInterval light_eta({ExecutionInterval(1, 0, 5)});

  TIntervalRuntime heavy;
  heavy.profile_rank = 1;
  heavy.source = &heavy_eta;
  heavy.ei_captured = {0};
  heavy.edf = ScanEdfAggregate(heavy, 0);
  TIntervalRuntime light = heavy;
  light.source = &light_eta;
  light.edf = ScanEdfAggregate(light, 0);

  UtilityMrsfPolicy policy;
  EXPECT_LT(policy.Score(heavy_eta.eis()[0], heavy, 0, 0),
            policy.Score(light_eta.eis()[0], light, 0, 0));

  UtilityEdfPolicy edf;
  EXPECT_LT(edf.Score(heavy_eta.eis()[0], heavy, 0, 0),
            edf.Score(light_eta.eis()[0], light, 0, 0));
}

TEST(UtilityPoliciesTest, ExecutorCapturesHighUtilityUnderScarcity) {
  MonitoringProblem p = ConflictPair(1.0, 10.0);
  UtilityMrsfPolicy policy;
  OnlineExecutor executor(&p, &policy, ExecutionMode::kPreemptive);
  auto result = executor.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->completeness.captured_weight, 10.0);

  // Plain MRSF ties and falls back to arrival order: captures weight 1.
  MrsfPolicy mrsf;
  OnlineExecutor executor2(&p, &mrsf, ExecutionMode::kPreemptive);
  auto result2 = executor2.Run();
  ASSERT_TRUE(result2.ok());
  EXPECT_DOUBLE_EQ(result2->completeness.captured_weight, 1.0);
}

TEST(LrsfAblationTest, InvertedResidualOrderingIsWorseUnderPressure) {
  // Many rank-2 t-intervals competing with rank-1 ones: MRSF finishes
  // the near-complete work, LRSF chases the incomplete and loses. Use a
  // deterministic pressured instance.
  MonitoringProblem p;
  p.num_resources = 4;
  p.epoch.length = 40;
  p.budget = BudgetVector::Uniform(1, 40);
  Rng rng(99);
  for (int i = 0; i < 12; ++i) {
    Chronon s = static_cast<Chronon>(rng.NextInt(0, 30));
    Profile profile;
    if (i % 2 == 0) {
      profile.AddTInterval(TInterval(
          {ExecutionInterval(static_cast<ResourceId>(i % 4), s, s + 4)}));
    } else {
      profile.AddTInterval(TInterval(
          {ExecutionInterval(static_cast<ResourceId>(i % 4), s, s + 4),
           ExecutionInterval(static_cast<ResourceId>((i + 1) % 4), s + 1,
                             s + 6)}));
    }
    p.profiles.push_back(std::move(profile));
  }
  MrsfPolicy mrsf;
  LrsfPolicy lrsf;
  OnlineExecutor mrsf_exec(&p, &mrsf, ExecutionMode::kPreemptive);
  OnlineExecutor lrsf_exec(&p, &lrsf, ExecutionMode::kPreemptive);
  auto mrsf_result = mrsf_exec.Run();
  auto lrsf_result = lrsf_exec.Run();
  ASSERT_TRUE(mrsf_result.ok());
  ASSERT_TRUE(lrsf_result.ok());
  EXPECT_GE(mrsf_result->completeness.GainedCompleteness(),
            lrsf_result->completeness.GainedCompleteness());
}

}  // namespace
}  // namespace pullmon
