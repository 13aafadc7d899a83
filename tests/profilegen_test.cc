#include <gtest/gtest.h>

#include <set>

#include "profilegen/auction_watch.h"
#include "profilegen/profile_generator.h"
#include "trace/poisson_generator.h"

namespace pullmon {
namespace {

UpdateTrace MakeTrace() {
  UpdateTrace trace(4, 30);
  for (Chronon t : {2, 8, 15}) EXPECT_TRUE(trace.AddEvent(0, t).ok());
  for (Chronon t : {3, 9, 16, 22}) EXPECT_TRUE(trace.AddEvent(1, t).ok());
  for (Chronon t : {5, 20}) EXPECT_TRUE(trace.AddEvent(2, t).ok());
  // Resource 3 stays silent.
  return trace;
}

TEST(AuctionWatchTest, CombinesIthUpdateRounds) {
  UpdateTrace trace = MakeTrace();
  EiDerivationOptions options;
  options.restriction = LengthRestriction::kWindow;
  options.window = 2;
  auto profile = MakeAuctionWatchProfile(trace, {0, 1}, options);
  ASSERT_TRUE(profile.ok());
  // min(3, 4) = 3 rounds.
  ASSERT_EQ(profile->size(), 3u);
  EXPECT_EQ(profile->rank(), 2u);
  // Round 0 pairs the first updates of r0 and r1.
  const TInterval& round0 = profile->t_intervals()[0];
  EXPECT_EQ(round0.eis()[0], ExecutionInterval(0, 2, 4));
  EXPECT_EQ(round0.eis()[1], ExecutionInterval(1, 3, 5));
}

TEST(AuctionWatchTest, RoundsLimitedByQuietestResource) {
  UpdateTrace trace = MakeTrace();
  EiDerivationOptions options;
  auto profile = MakeAuctionWatchProfile(trace, {0, 1, 2}, options);
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->size(), 2u);  // r2 has only 2 updates
  EXPECT_EQ(profile->rank(), 3u);
}

TEST(AuctionWatchTest, SilentResourceYieldsEmptyProfile) {
  UpdateTrace trace = MakeTrace();
  EiDerivationOptions options;
  auto profile = MakeAuctionWatchProfile(trace, {0, 3}, options);
  ASSERT_TRUE(profile.ok());
  EXPECT_TRUE(profile->empty());
}

TEST(AuctionWatchTest, RejectsBadResourceSets) {
  UpdateTrace trace = MakeTrace();
  EiDerivationOptions options;
  EXPECT_FALSE(MakeAuctionWatchProfile(trace, {}, options).ok());
  EXPECT_FALSE(MakeAuctionWatchProfile(trace, {0, 0}, options).ok());
  EXPECT_FALSE(MakeAuctionWatchProfile(trace, {9}, options).ok());
}

TEST(AuctionWatchTest, OverwriteRestrictionUsed) {
  UpdateTrace trace = MakeTrace();
  EiDerivationOptions options;
  options.restriction = LengthRestriction::kOverwrite;
  auto profile = MakeAuctionWatchProfile(trace, {0}, options);
  ASSERT_TRUE(profile.ok());
  ASSERT_EQ(profile->size(), 3u);
  EXPECT_EQ(profile->t_intervals()[0].eis()[0],
            ExecutionInterval(0, 2, 7));
}

TEST(ArbitrageTest, PairsOverlappingEis) {
  UpdateTrace trace(2, 30);
  ASSERT_TRUE(trace.AddEvent(0, 2).ok());
  ASSERT_TRUE(trace.AddEvent(0, 10).ok());
  ASSERT_TRUE(trace.AddEvent(1, 4).ok());
  ASSERT_TRUE(trace.AddEvent(1, 20).ok());
  EiDerivationOptions options;
  options.restriction = LengthRestriction::kWindow;
  options.window = 4;
  auto profile = MakeArbitrageProfile(trace, 0, 1, options);
  ASSERT_TRUE(profile.ok());
  // r0:[2,6] overlaps r1:[4,8]; r0:[10,14] does not overlap r1:[20,24].
  ASSERT_EQ(profile->size(), 1u);
  EXPECT_EQ(profile->rank(), 2u);
  EXPECT_TRUE(profile->t_intervals()[0].eis()[0].OverlapsInTime(
      profile->t_intervals()[0].eis()[1]));
}

TEST(ArbitrageTest, RejectsSameMarket) {
  UpdateTrace trace = MakeTrace();
  EiDerivationOptions options;
  EXPECT_FALSE(MakeArbitrageProfile(trace, 1, 1, options).ok());
  EXPECT_FALSE(MakeArbitrageProfile(trace, 0, 9, options).ok());
}

TEST(DrawDistinctResourcesTest, CountAndDistinctness) {
  Rng rng(5);
  auto resources = DrawDistinctResources(5, 20, 1.0, &rng);
  ASSERT_TRUE(resources.ok());
  EXPECT_EQ(resources->size(), 5u);
  std::set<ResourceId> unique(resources->begin(), resources->end());
  EXPECT_EQ(unique.size(), 5u);
  for (ResourceId r : *resources) {
    EXPECT_GE(r, 0);
    EXPECT_LT(r, 20);
  }
}

TEST(DrawDistinctResourcesTest, FullDrawUnderSteepSkew) {
  Rng rng(7);
  auto resources = DrawDistinctResources(10, 10, 3.0, &rng);
  ASSERT_TRUE(resources.ok());
  EXPECT_EQ(resources->size(), 10u);
}

TEST(DrawDistinctResourcesTest, AlphaSkewsTowardPopular) {
  Rng rng(9);
  int low_id_hits = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    auto resources = DrawDistinctResources(1, 100, 1.37, &rng);
    ASSERT_TRUE(resources.ok());
    if ((*resources)[0] < 10) ++low_id_hits;
  }
  // Under Zipf(1.37, 100) the top-10 ranks carry well over half the mass;
  // under uniform they would carry ~10%.
  EXPECT_GT(low_id_hits, trials / 2);
}

TEST(DrawDistinctResourcesTest, RejectsImpossibleDraws) {
  Rng rng(1);
  EXPECT_FALSE(DrawDistinctResources(5, 4, 0.0, &rng).ok());
  EXPECT_FALSE(DrawDistinctResources(0, 4, 0.0, &rng).ok());
}

TEST(DrawDistinctResourcesTest, SharedTableDrawsMatchThePublicDraw) {
  // GenerateProfiles draws every profile from one prebuilt popularity
  // table; that must consume the RNG exactly like building the table
  // per draw, so generated profiles stay bit-identical.
  for (double alpha : {0.0, 1.0, 1.37, 3.0}) {
    const ZipfDistribution popularity(alpha, 50);
    Rng per_draw(99);
    Rng shared(99);
    for (int i = 0; i < 200; ++i) {
      const int count = 1 + i % 7;
      auto expected = DrawDistinctResources(count, 50, alpha, &per_draw);
      auto actual = DrawDistinctResources(count, popularity, &shared);
      ASSERT_TRUE(expected.ok());
      ASSERT_TRUE(actual.ok());
      EXPECT_EQ(*actual, *expected) << "alpha " << alpha << " draw " << i;
    }
    EXPECT_EQ(shared.Next(), per_draw.Next()) << "alpha " << alpha;
  }
  Rng rng(1);
  EXPECT_FALSE(DrawDistinctResources(5, ZipfDistribution(0.0, 4), &rng).ok());
}

TEST(GenerateProfilesTest, ProducesRequestedCount) {
  Rng trace_rng(11);
  auto trace = GeneratePoissonTrace({20, 100, 10.0, 0.0}, &trace_rng);
  ASSERT_TRUE(trace.ok());
  ProfileGeneratorOptions options;
  options.num_profiles = 30;
  options.max_rank = 3;
  Rng rng(13);
  auto profiles = GenerateProfiles(*trace, options, &rng);
  ASSERT_TRUE(profiles.ok());
  EXPECT_EQ(profiles->size(), 30u);
  for (const auto& p : *profiles) {
    EXPECT_FALSE(p.empty());
    EXPECT_LE(p.rank(), 3u);
    EXPECT_GE(p.rank(), 1u);
  }
  EXPECT_LE(RankOf(*profiles), 3u);
}

TEST(GenerateProfilesTest, BetaSkewsTowardSimpleProfiles) {
  Rng trace_rng(17);
  auto trace = GeneratePoissonTrace({30, 200, 15.0, 0.0}, &trace_rng);
  ASSERT_TRUE(trace.ok());
  auto mean_rank = [&](double beta, uint64_t seed) {
    ProfileGeneratorOptions options;
    options.num_profiles = 200;
    options.max_rank = 4;
    options.beta = beta;
    Rng rng(seed);
    auto profiles = GenerateProfiles(*trace, options, &rng);
    EXPECT_TRUE(profiles.ok());
    double total = 0.0;
    for (const auto& p : *profiles) {
      total += static_cast<double>(p.rank());
    }
    return total / static_cast<double>(profiles->size());
  };
  EXPECT_LT(mean_rank(2.0, 19), mean_rank(0.0, 19));
}

TEST(GenerateProfilesTest, MaxTIntervalsCapApplies) {
  Rng trace_rng(23);
  auto trace = GeneratePoissonTrace({10, 300, 40.0, 0.0}, &trace_rng);
  ASSERT_TRUE(trace.ok());
  ProfileGeneratorOptions options;
  options.num_profiles = 10;
  options.max_rank = 2;
  options.max_t_intervals_per_profile = 5;
  Rng rng(29);
  auto profiles = GenerateProfiles(*trace, options, &rng);
  ASSERT_TRUE(profiles.ok());
  for (const auto& p : *profiles) {
    EXPECT_LE(p.size(), 5u);
  }
}

TEST(GenerateProfilesTest, RejectsBadOptions) {
  UpdateTrace trace = MakeTrace();
  Rng rng(1);
  ProfileGeneratorOptions options;
  options.num_profiles = 0;
  EXPECT_FALSE(GenerateProfiles(trace, options, &rng).ok());
  options.num_profiles = 5;
  options.max_rank = 0;
  EXPECT_FALSE(GenerateProfiles(trace, options, &rng).ok());
  options.max_rank = 99;
  EXPECT_FALSE(GenerateProfiles(trace, options, &rng).ok());
}

TEST(GenerateProfilesTest, NamesIncludeTemplateAndIndex) {
  Rng trace_rng(31);
  auto trace = GeneratePoissonTrace({10, 100, 10.0, 0.0}, &trace_rng);
  ASSERT_TRUE(trace.ok());
  ProfileGeneratorOptions options;
  options.num_profiles = 3;
  options.max_rank = 2;
  Rng rng(37);
  auto profiles = GenerateProfiles(*trace, options, &rng);
  ASSERT_TRUE(profiles.ok());
  EXPECT_NE((*profiles)[0].name().find("AuctionWatch"),
            std::string::npos);
}

}  // namespace
}  // namespace pullmon
