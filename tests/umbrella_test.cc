// Compile-and-use check of the umbrella header plus tests for the
// conditional-fetch feed economy and the parallel experiment runner.

#include "pullmon.h"

#include <gtest/gtest.h>

namespace pullmon {
namespace {

TEST(UmbrellaTest, VersionMacros) {
  EXPECT_GE(PULLMON_VERSION_MAJOR, 1);
  EXPECT_STREQ(PULLMON_VERSION_STRING, "1.0.0");
}

TEST(UmbrellaTest, TypesAreUsableTogether) {
  // Touch one symbol from each module group to prove the umbrella
  // header is self-contained.
  MonitoringProblem problem(2, 10,
                            {Profile("p", {TInterval({{0, 1, 3}})})}, 1);
  EXPECT_TRUE(problem.Validate().ok());
  MrsfPolicy policy;
  OnlineExecutor executor(&problem, &policy, ExecutionMode::kPreemptive);
  auto result = executor.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->completeness.GainedCompleteness(), 1.0);
  OverlapReport overlap = AnalyzeOverlap(problem.profiles, 2, 10);
  EXPECT_EQ(overlap.total_eis, 1u);
}

TEST(ConditionalFetchTest, UnchangedStateIsNotModified) {
  FeedServer server(0, "feed", 5);
  FeedItem item;
  item.guid = "g1";
  item.published = 1167609600;
  server.Publish(item);

  auto first = server.FetchConditionalView("");
  EXPECT_FALSE(first.not_modified);
  EXPECT_FALSE(first.body.empty());
  EXPECT_FALSE(first.etag.empty());
  std::string first_etag(first.etag);

  auto second = server.FetchConditionalView(first_etag);
  EXPECT_TRUE(second.not_modified);
  EXPECT_TRUE(second.body.empty());
  EXPECT_EQ(second.etag, first_etag);
  EXPECT_EQ(server.not_modified_count(), 1u);
}

TEST(ConditionalFetchTest, PublishInvalidatesValidator) {
  FeedServer server(0, "feed", 5);
  FeedItem item;
  item.guid = "g1";
  server.Publish(item);
  std::string first_etag(server.FetchConditionalView("").etag);
  item.guid = "g2";
  server.Publish(item);
  auto second = server.FetchConditionalView(first_etag);
  EXPECT_FALSE(second.not_modified);
  EXPECT_NE(second.etag, first_etag);
  EXPECT_FALSE(second.body.empty());
}

TEST(ConditionalFetchTest, StaleValidatorAlwaysGetsBody) {
  FeedServer server(0, "feed", 5);
  auto fetched = server.FetchConditionalView("\"bogus\"");
  EXPECT_FALSE(fetched.not_modified);
  EXPECT_FALSE(fetched.body.empty());
}

TEST(ConditionalFetchTest, ProxyReportsBandwidthEconomy) {
  // Two probes of the same resource while its feed is unchanged: the
  // second must be a 304 with no bytes.
  UpdateTrace trace(1, 10);
  ASSERT_TRUE(trace.AddEvent(0, 0).ok());
  FeedNetwork network(&trace, 4);
  MonitoringProblem problem;
  problem.num_resources = 1;
  problem.epoch.length = 10;
  problem.budget = BudgetVector::Uniform(1, 10);
  problem.profiles = {
      Profile("a", {TInterval({{0, 0, 1}}), TInterval({{0, 4, 5}})})};
  SEdfPolicy policy;
  MonitoringProxy proxy(&problem, &network, &policy,
                        ExecutionMode::kPreemptive);
  auto report = proxy.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->feeds_fetched, 2u);
  EXPECT_EQ(report->not_modified, 1u);  // no new items between probes
  EXPECT_EQ(report->run.t_intervals_completed, 2u);
}

TEST(ParallelRunnerTest, ThreadCountDoesNotChangeResults) {
  SimulationConfig config = BaselineConfig();
  config.num_resources = 30;
  config.epoch_length = 120;
  config.num_profiles = 20;
  config.lambda = 6.0;
  std::vector<PolicySpec> specs = {{"MRSF", ExecutionMode::kPreemptive},
                                   {"S-EDF", ExecutionMode::kPreemptive}};

  ExperimentRunner serial(6, 4242, /*threads=*/1);
  ExperimentRunner parallel(6, 4242, /*threads=*/4);
  auto a = serial.Run(config, specs);
  auto b = parallel.Run(config, specs);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    EXPECT_EQ(a->policies[s].gc.count(), b->policies[s].gc.count());
    EXPECT_NEAR(a->policies[s].gc.mean(), b->policies[s].gc.mean(),
                1e-12);
    EXPECT_NEAR(a->policies[s].gc.variance(),
                b->policies[s].gc.variance(), 1e-12);
    EXPECT_NEAR(a->policies[s].probes_used.mean(),
                b->policies[s].probes_used.mean(), 1e-9);
  }
  EXPECT_NEAR(a->t_intervals.mean(), b->t_intervals.mean(), 1e-9);
}

TEST(ParallelRunnerTest, MoreThreadsThanRepsIsFine) {
  SimulationConfig config = BaselineConfig();
  config.num_resources = 10;
  config.epoch_length = 50;
  config.num_profiles = 5;
  config.lambda = 4.0;
  ExperimentRunner runner(2, 7, /*threads=*/16);
  auto result = runner.Run(config, {{"MRSF", ExecutionMode::kPreemptive}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->policies[0].gc.count(), 2u);
}

}  // namespace
}  // namespace pullmon
