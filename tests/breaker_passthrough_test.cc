// Pass-through guarantee of the resource-health subsystem: a default
// (disabled) BreakerOptions with zero outage rates must leave the full
// ProxyRunReport exactly equal to a run of the same seed that never
// constructs the breaker path at all — for both executor backends. Any
// drift here means the subsystem is not free when off.

#include <gtest/gtest.h>

#include "core/resource_health.h"
#include "policies/mrsf.h"
#include "sim/config.h"
#include "sim/experiment.h"
#include "sim/proxy.h"

namespace pullmon {
namespace {

SimulationConfig SmallConfig() {
  SimulationConfig config = BaselineConfig();
  config.num_resources = 25;
  config.num_profiles = 35;
  config.epoch_length = 150;
  config.lambda = 8.0;
  config.budget = 2;
  return config;
}

void ExpectHealthTelemetryAllZero(const ProxyRunReport& report) {
  EXPECT_EQ(report.run.circuits_opened, 0u);
  EXPECT_EQ(report.run.circuits_reopened, 0u);
  EXPECT_EQ(report.run.probation_probes, 0u);
  EXPECT_EQ(report.run.probation_successes, 0u);
  EXPECT_EQ(report.run.probes_suppressed, 0u);
  EXPECT_EQ(report.run.budget_reclaimed, 0u);
  EXPECT_EQ(report.run.open_chronons_total, 0u);
  EXPECT_TRUE(report.run.open_chronons_by_resource.empty());
  EXPECT_EQ(report.outage_probes, 0u);
}

TEST(BreakerPassthroughTest, DisabledBreakerIsByteIdenticalBothBackends) {
  SimulationConfig config = SmallConfig();
  for (ExecutorBackend backend :
       {ExecutorBackend::kIndexed, ExecutorBackend::kReference}) {
    config.executor_backend = backend;
    UpdateTrace trace(0, 0);
    auto problem = BuildProblem(config, 808, &trace);
    ASSERT_TRUE(problem.ok());

    // Arm A: proxy constructed with no ProxyOptions customization at
    // all — the pre-breaker construction path.
    FeedNetwork plain_network(&trace, 8);
    MrsfPolicy plain_policy;
    ProxyOptions plain_options;
    plain_options.backend = backend;
    MonitoringProxy plain(&*problem, &plain_network, &plain_policy,
                          ExecutionMode::kPreemptive, plain_options);
    auto plain_report = plain.Run();
    ASSERT_TRUE(plain_report.ok());

    // Arm B: breaker options explicitly passed but left at the disabled
    // default, outage rates zero.
    ProxyOptions options;
    options.backend = backend;
    options.breaker = BreakerOptions{};
    options.faults = FaultOptions{};
    options.fault_seed = 4242;
    FeedNetwork network(&trace, 8);
    MrsfPolicy policy;
    MonitoringProxy proxy(&*problem, &network, &policy,
                          ExecutionMode::kPreemptive, options);
    auto report = proxy.Run();
    ASSERT_TRUE(report.ok());

    EXPECT_EQ(ReportDifference(*plain_report, *report), "");
    ExpectHealthTelemetryAllZero(*report);
    ExpectHealthTelemetryAllZero(*plain_report);
    EXPECT_EQ(plain.notifications().size(), proxy.notifications().size());
  }
}

TEST(BreakerPassthroughTest, DisabledBreakerWithFaultsIsPassThrough) {
  // The pass-through must also hold when the fault layer IS active:
  // the disabled breaker may not change a single probe or retry.
  SimulationConfig config = SmallConfig();
  config.faults.timeout_rate = 0.15;
  config.faults.server_error_rate = 0.1;
  config.retry.max_retries = 2;
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  for (ExecutorBackend backend :
       {ExecutorBackend::kIndexed, ExecutorBackend::kReference}) {
    config.executor_backend = backend;
    SimulationConfig with_breaker_struct = config;
    with_breaker_struct.breaker = BreakerOptions{};  // disabled default
    auto a = RunProxyOnce(config, spec, 99);
    auto b = RunProxyOnce(with_breaker_struct, spec, 99);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_GT(a->probes_failed, 0u);  // faults actually fired
    EXPECT_EQ(ReportDifference(*a, *b), "");
    ExpectHealthTelemetryAllZero(*b);
  }
}

TEST(BreakerPassthroughTest, ConfigValidateCoversFaultsRetryBreaker) {
  SimulationConfig config = SmallConfig();
  EXPECT_TRUE(config.Validate().ok());
  config.faults.outage_enter_rate = 1.5;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config = SmallConfig();
  config.faults.outage_exit_rate = -0.1;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config = SmallConfig();
  config.breaker.failure_threshold = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config = SmallConfig();
  config.breaker.ewma_alpha = 2.0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config = SmallConfig();
  config.retry.max_retries = -1;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(BreakerPassthroughTest, EnabledBreakerChangesNothingWithoutFaults) {
  // With no faults there are no failures, so even an ENABLED breaker
  // never trips: the schedule and GC stay identical, and only the
  // per-resource histogram (now sized) differs in representation.
  SimulationConfig config = SmallConfig();
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  auto off = RunProxyOnce(config, spec, 31);
  SimulationConfig on_config = config;
  on_config.breaker.enabled = true;
  auto on = RunProxyOnce(on_config, spec, 31);
  ASSERT_TRUE(off.ok());
  ASSERT_TRUE(on.ok());
  for (Chronon t = 0; t < config.epoch_length; ++t) {
    ASSERT_EQ(off->run.schedule.ProbesAt(t), on->run.schedule.ProbesAt(t))
        << "chronon " << t;
  }
  EXPECT_DOUBLE_EQ(off->run.completeness.GainedCompleteness(),
                   on->run.completeness.GainedCompleteness());
  EXPECT_EQ(on->circuits_opened, 0u);
  EXPECT_EQ(on->probes_suppressed, 0u);
  EXPECT_EQ(on->run.open_chronons_by_resource.size(),
            static_cast<std::size_t>(config.num_resources));
}

}  // namespace
}  // namespace pullmon
