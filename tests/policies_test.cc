#include <gtest/gtest.h>

#include "policies/baselines.h"
#include "policies/m_edf.h"
#include "policies/mrsf.h"
#include "policies/policy_factory.h"
#include "policies/s_edf.h"

namespace pullmon {
namespace {

/// Builds the candidate t-interval of the paper's Example 1 (Figure 2):
/// four EIs, two captured, one active at T = 3, one not yet active.
struct Example1 {
  TInterval eta{{
      ExecutionInterval(0, 0, 2),   // captured
      ExecutionInterval(1, 1, 5),   // captured
      ExecutionInterval(2, 3, 6),   // active at T=3
      ExecutionInterval(0, 8, 11),  // future
  }};
  TIntervalRuntime runtime;

  Example1() {
    runtime.profile = 0;
    runtime.profile_rank = 4;
    runtime.source = &eta;
    runtime.ei_captured = {1, 1, 0, 0};
    runtime.num_captured = 2;
    runtime.edf = ScanEdfAggregate(runtime, 3);
  }
};

TEST(SEdfPolicyTest, ValueIsRemainingChronons) {
  Example1 ex;
  SEdfPolicy policy;
  // Active EI r2:[3,6] at T=3: 6 - 3 = 3 chronons remain.
  EXPECT_DOUBLE_EQ(policy.Score(ex.eta.eis()[2], ex.runtime, 2, 3), 3.0);
  // At T=6 (deadline): 0 remains.
  EXPECT_DOUBLE_EQ(policy.Score(ex.eta.eis()[2], ex.runtime, 2, 6), 0.0);
}

TEST(SEdfPolicyTest, InactiveEiEvaluatedAtTZero) {
  Example1 ex;
  // Not-yet-active EI r0:[8,11] "with T = 0": value 11.
  EXPECT_DOUBLE_EQ(SingleEdfValue(ex.eta.eis()[3], 3), 11.0);
}

TEST(MEdfPolicyTest, SumsUncapturedSiblings) {
  Example1 ex;
  MEdfPolicy policy;
  // Uncaptured: active r2:[3,6] -> 3, future r0:[8,11] -> 11. Total 14.
  EXPECT_DOUBLE_EQ(policy.Score(ex.eta.eis()[2], ex.runtime, 2, 3), 14.0);
  EXPECT_DOUBLE_EQ(MEdfPolicy::Value(ex.runtime, 3), 14.0);
}

TEST(MEdfPolicyTest, CapturedSiblingsExcluded) {
  Example1 ex;
  ex.runtime.ei_captured = {1, 1, 1, 0};
  ex.runtime.num_captured = 3;
  EXPECT_DOUBLE_EQ(MEdfPolicy::Value(ex.runtime, 3), 11.0);
}

TEST(MrsfPolicyTest, ValueIsRankMinusCaptured) {
  Example1 ex;
  MrsfPolicy policy;
  EXPECT_DOUBLE_EQ(policy.Score(ex.eta.eis()[2], ex.runtime, 2, 3), 2.0);
  EXPECT_DOUBLE_EQ(MrsfPolicy::Value(ex.runtime), 2.0);
}

TEST(MrsfPolicyTest, UsesProfileRankNotTIntervalSize) {
  // A 1-EI t-interval inside a rank-3 profile has residual 3, not 1 —
  // the formula of Section 4.2.2 uses rank(p).
  TInterval eta{{ExecutionInterval(0, 0, 4)}};
  TIntervalRuntime runtime;
  runtime.profile_rank = 3;
  runtime.source = &eta;
  runtime.ei_captured = {0};
  runtime.num_captured = 0;
  runtime.edf = ScanEdfAggregate(runtime, 0);
  MrsfPolicy policy;
  EXPECT_DOUBLE_EQ(policy.Score(eta.eis()[0], runtime, 0, 0), 3.0);
}

TEST(PolicyLevelsTest, ClassificationMatchesPaper) {
  EXPECT_EQ(SEdfPolicy().level(), PolicyLevel::kSingleEi);
  EXPECT_EQ(MrsfPolicy().level(), PolicyLevel::kRank);
  EXPECT_EQ(MEdfPolicy().level(), PolicyLevel::kMultiEi);
  EXPECT_EQ(RandomPolicy().level(), PolicyLevel::kBaseline);
  EXPECT_EQ(FcfsPolicy().level(), PolicyLevel::kBaseline);
}

TEST(PolicyNamesTest, AsPublished) {
  EXPECT_EQ(SEdfPolicy().name(), "S-EDF");
  EXPECT_EQ(MEdfPolicy().name(), "M-EDF");
  EXPECT_EQ(MrsfPolicy().name(), "MRSF");
}

TEST(RandomPolicyTest, ResetRestartsStream) {
  Example1 ex;
  RandomPolicy policy(7);
  std::vector<double> first;
  for (int i = 0; i < 5; ++i) {
    first.push_back(policy.Score(ex.eta.eis()[2], ex.runtime, 2, 3));
  }
  policy.Reset();
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(policy.Score(ex.eta.eis()[2], ex.runtime, 2, 3),
                     first[static_cast<std::size_t>(i)]);
  }
}

TEST(FcfsPolicyTest, PrefersEarlierStart) {
  Example1 ex;
  FcfsPolicy policy;
  ExecutionInterval early(0, 1, 9), late(1, 5, 9);
  EXPECT_LT(policy.Score(early, ex.runtime, 0, 6),
            policy.Score(late, ex.runtime, 0, 6));
}

TEST(RoundRobinPolicyTest, CursorRotates) {
  Example1 ex;
  RoundRobinPolicy policy(4);
  ExecutionInterval on_r2(2, 0, 9);
  // At now=2 the cursor sits on resource 2: distance 0.
  EXPECT_DOUBLE_EQ(policy.Score(on_r2, ex.runtime, 0, 2), 0.0);
  // At now=3 the cursor is on 3; distance to 2 is 3 (wraps).
  EXPECT_DOUBLE_EQ(policy.Score(on_r2, ex.runtime, 0, 3), 3.0);
}

TEST(PolicyFactoryTest, KnownNamesConstruct) {
  for (const std::string& name : KnownPolicyNames()) {
    PolicyOptions options;
    options.num_resources = 4;
    auto policy = MakePolicy(name, options);
    ASSERT_TRUE(policy.ok()) << name;
    EXPECT_FALSE((*policy)->name().empty());
  }
}

TEST(PolicyFactoryTest, SpellingVariants) {
  EXPECT_TRUE(MakePolicy("S-EDF").ok());
  EXPECT_TRUE(MakePolicy("sedf").ok());
  EXPECT_TRUE(MakePolicy("s_edf").ok());
  EXPECT_TRUE(MakePolicy("MRSF").ok());
}

TEST(PolicyFactoryTest, UnknownNameFails) {
  auto policy = MakePolicy("quantum-oracle");
  ASSERT_FALSE(policy.ok());
  EXPECT_EQ(policy.status().code(), StatusCode::kNotFound);
}

TEST(PolicyLevelToStringTest, AllNamed) {
  EXPECT_STREQ(PolicyLevelToString(PolicyLevel::kSingleEi), "single-EI");
  EXPECT_STREQ(PolicyLevelToString(PolicyLevel::kRank), "rank");
  EXPECT_STREQ(PolicyLevelToString(PolicyLevel::kMultiEi), "multi-EIs");
  EXPECT_STREQ(PolicyLevelToString(PolicyLevel::kBaseline), "baseline");
}

}  // namespace
}  // namespace pullmon
