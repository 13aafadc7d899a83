// Churn differential suite (ISSUE 6): the incremental candidate-index
// maintenance of DynamicMonitor (Cancel/Edit/Unregister via lazy
// Deactivate, no rebuild) must be decision-identical to the from-scratch
// rebuild oracle (MonitorIndexMode::kRebuild) under arbitrary
// interleavings of submit/cancel/edit/step — across all standard
// policies, both execution modes, and fault/retry/breaker
// configurations. ~200 seeded scenarios compare full per-step results,
// the schedule probe-for-probe, monitor stats, and completeness; a
// second layer compares entire ProxyRunReports through RunChurnOnce
// (which maps ExecutorBackend::kReference onto the rebuild oracle).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamic_monitor.h"
#include "policies/policy_factory.h"
#include "sim/config.h"
#include "sim/experiment.h"
#include "util/random.h"

namespace pullmon {
namespace {

struct FaultConfig {
  /// Probability (permille) a probe attempt fails.
  int fail_permille = 0;
  RetryPolicy retry;
  BreakerOptions breaker;
};

/// Everything observable about one churn run.
struct ChurnTrace {
  std::vector<StepResult> steps;
  std::vector<std::vector<ResourceId>> probes_by_chronon;
  ProbeStats probe_stats;
  ChurnStats churn_stats;
  CompletenessReport completeness;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t rejected_ops = 0;
};

/// Stateless probe-failure source: depends only on (seed, resource,
/// chronon, per-(r,t) attempt ordinal), so the failure stream is
/// identical whenever the probe sequences are — which is exactly what
/// the differential asserts.
bool ProbeFails(uint64_t seed, ResourceId r, Chronon t, int attempt,
                int fail_permille) {
  uint64_t state = seed ^ (static_cast<uint64_t>(r) * 0x9E3779B97F4A7C15ULL) ^
                   (static_cast<uint64_t>(t) << 24) ^
                   (static_cast<uint64_t>(attempt) << 48);
  return SplitMix64(&state) % 1000 <
         static_cast<uint64_t>(fail_permille);
}

constexpr int kResources = 6;
constexpr Chronon kEpoch = 24;
constexpr int kProfiles = 4;

TInterval RandomTInterval(Rng* rng, Chronon earliest) {
  TInterval eta;
  int rank = static_cast<int>(rng->NextInt(1, 2));
  for (int i = 0; i < rank; ++i) {
    ExecutionInterval ei;
    ei.resource = static_cast<ResourceId>(rng->NextInt(0, kResources - 1));
    ei.start = static_cast<Chronon>(
        rng->NextInt(earliest, std::max(earliest, kEpoch - 2)));
    ei.finish = static_cast<Chronon>(
        rng->NextInt(ei.start, std::min<Chronon>(ei.start + 4, kEpoch - 1)));
    eta.AddEi(ei);
  }
  eta.set_weight(0.5 + rng->NextDouble());
  if (eta.size() >= 2 && rng->NextBool(0.3)) {
    eta.set_required(eta.size() - 1);
  }
  return eta;
}

/// One full scenario: a seeded interleaving of churn ops and steps,
/// under the given maintenance mode. All random draws happen in a fixed
/// order regardless of op acceptance, so both modes replay the exact
/// same operation stream.
ChurnTrace RunScenario(uint64_t seed, const PolicySpec& spec,
                       const FaultConfig& faults, MonitorIndexMode mode) {
  PolicyOptions po;
  po.random_seed = seed ^ 0x5bf03635ULL;
  po.num_resources = kResources;
  auto policy = MakePolicy(spec.policy, po);
  PULLMON_CHECK(policy.ok());

  MonitorOptions options;
  options.retry = faults.retry;
  options.breaker = faults.breaker;
  options.maintenance = mode;
  DynamicMonitor monitor(kResources, kEpoch,
                         BudgetVector::Uniform(2, kEpoch), policy->get(),
                         spec.mode, options);

  ChurnTrace trace;
  std::vector<int> attempts_at(
      static_cast<std::size_t>(kResources * kEpoch), 0);
  monitor.set_probe_callback([&](ResourceId r, Chronon t) {
    int attempt =
        attempts_at[static_cast<std::size_t>(t) * kResources +
                    static_cast<std::size_t>(r)]++;
    return !ProbeFails(seed, r, t, attempt, faults.fail_permille);
  });

  std::vector<ProfileId> profiles;
  for (int p = 0; p < kProfiles; ++p) {
    profiles.push_back(
        monitor.RegisterProfile("client-" + std::to_string(p)));
  }
  std::vector<int> submissions(kProfiles, 0);

  Rng ops(seed * 0x2545F4914F6CDD1DULL + 17);
  for (Chronon t = 0; t < kEpoch; ++t) {
    // Submissions (front-loaded, tapering off).
    if (ops.NextBool(t < kEpoch / 2 ? 0.9 : 0.4)) {
      int p = static_cast<int>(ops.NextInt(0, kProfiles - 1));
      TInterval eta = RandomTInterval(&ops, t);
      if (monitor.Submit(profiles[static_cast<std::size_t>(p)], eta)
              .ok()) {
        ++submissions[static_cast<std::size_t>(p)];
      } else {
        ++trace.rejected_ops;
      }
    }
    // Cancels — sometimes aimed at dead/unknown submissions on purpose.
    if (ops.NextBool(0.35)) {
      int p = static_cast<int>(ops.NextInt(0, kProfiles - 1));
      int sub = static_cast<int>(ops.NextInt(0, 6));
      if (!monitor.Cancel(profiles[static_cast<std::size_t>(p)], sub)
               .ok()) {
        ++trace.rejected_ops;
      }
    }
    // Edits — replacement drawn fresh; retroactive starts impossible
    // here (RandomTInterval floors at t), dead targets are not.
    if (ops.NextBool(0.3)) {
      int p = static_cast<int>(ops.NextInt(0, kProfiles - 1));
      int sub = static_cast<int>(ops.NextInt(0, 6));
      TInterval replacement = RandomTInterval(&ops, t);
      if (monitor
              .Edit(profiles[static_cast<std::size_t>(p)], sub,
                    replacement)
              .ok()) {
        ++submissions[static_cast<std::size_t>(p)];
      } else {
        ++trace.rejected_ops;
      }
    }
    // Rare unregister (kills the profile for the rest of the epoch).
    if (ops.NextBool(0.02)) {
      int p = static_cast<int>(ops.NextInt(0, kProfiles - 1));
      if (!monitor.Unregister(profiles[static_cast<std::size_t>(p)])
               .ok()) {
        ++trace.rejected_ops;
      }
    }
    auto step = monitor.Step();
    PULLMON_CHECK(step.ok());
    trace.probes_by_chronon.push_back(step->probed);
    trace.steps.push_back(std::move(*step));
  }
  PULLMON_CHECK_OK(monitor.CheckInvariants());
  trace.probe_stats = monitor.probe_stats();
  trace.churn_stats = monitor.churn_stats();
  trace.completeness = monitor.Completeness();
  trace.completed = monitor.t_intervals_completed();
  trace.failed = monitor.t_intervals_failed();
  return trace;
}

void ExpectTracesIdentical(const ChurnTrace& a, const ChurnTrace& b,
                           const std::string& label) {
  ASSERT_EQ(a.steps.size(), b.steps.size()) << label;
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].probed, b.steps[i].probed)
        << label << " chronon " << i;
    EXPECT_EQ(a.steps[i].captured, b.steps[i].captured)
        << label << " chronon " << i;
    EXPECT_EQ(a.steps[i].failed, b.steps[i].failed)
        << label << " chronon " << i;
  }
  EXPECT_TRUE(a.probe_stats == b.probe_stats) << label << " [ProbeStats]";
  EXPECT_TRUE(a.churn_stats == b.churn_stats) << label << " [ChurnStats]";
  EXPECT_EQ(a.rejected_ops, b.rejected_ops) << label;
  EXPECT_EQ(a.completed, b.completed) << label;
  EXPECT_EQ(a.failed, b.failed) << label;
  EXPECT_EQ(a.completeness.captured_t_intervals,
            b.completeness.captured_t_intervals)
      << label;
  EXPECT_EQ(a.completeness.total_t_intervals,
            b.completeness.total_t_intervals)
      << label;
  EXPECT_DOUBLE_EQ(a.completeness.captured_weight,
                   b.completeness.captured_weight)
      << label;
}

// 200 seeded scenarios: policies x modes from StandardPolicySpecs(),
// fault configuration rotating by seed.
TEST(ChurnDifferentialTest, IncrementalMatchesRebuildOracle) {
  std::vector<PolicySpec> specs = StandardPolicySpecs();
  std::vector<FaultConfig> fault_configs(3);
  // [0]: clean network. [1]: failures + retries. [2]: failures +
  // retries + circuit breaker.
  fault_configs[1].fail_permille = 250;
  fault_configs[1].retry.max_retries = 2;
  fault_configs[1].retry.backoff_base = 0.1;
  fault_configs[2].fail_permille = 350;
  fault_configs[2].retry.max_retries = 2;
  fault_configs[2].retry.backoff_base = 0.1;
  fault_configs[2].breaker.enabled = true;
  fault_configs[2].breaker.failure_threshold = 2;
  fault_configs[2].breaker.cooldown_base = 2;

  for (uint64_t seed = 0; seed < 200; ++seed) {
    const PolicySpec& spec = specs[seed % specs.size()];
    const FaultConfig& faults = fault_configs[seed % 3];
    std::string label = spec.Label() + " seed=" + std::to_string(seed) +
                        " faults=" + std::to_string(seed % 3);
    ChurnTrace incremental = RunScenario(seed, spec, faults,
                                         MonitorIndexMode::kIncremental);
    ChurnTrace rebuild =
        RunScenario(seed, spec, faults, MonitorIndexMode::kRebuild);
    ExpectTracesIdentical(incremental, rebuild, label);
    if (HasFatalFailure()) return;
  }
}
// The end-to-end layer: RunChurnOnce drives the full feed substrate
// (fault plan, retries, breaker, parse cache); the backend switch flips
// the monitor between incremental maintenance and the rebuild oracle
// and every ProxyRunReport field must agree.
TEST(ChurnDifferentialTest, ChurnRunReportsMatchAcrossBackends) {
  SimulationConfig config = BaselineConfig();
  config.num_resources = 30;
  config.epoch_length = 80;
  config.num_profiles = 40;
  config.lambda = 8.0;
  config.budget = 2;
  config.churn.enabled = true;
  config.churn.ops_per_chronon = 1.5;
  config.faults.timeout_rate = 0.08;
  config.faults.server_error_rate = 0.05;
  config.faults.truncation_rate = 0.05;
  config.faults.outage_enter_rate = 0.02;
  config.retry.max_retries = 2;
  config.retry.backoff_base = 0.1;
  config.breaker.enabled = true;
  config.breaker.failure_threshold = 3;
  config.parse_cache = true;

  for (const PolicySpec& spec : StandardPolicySpecs()) {
    for (uint64_t seed : {7u, 131u}) {
      SimulationConfig indexed = config;
      indexed.executor_backend = ExecutorBackend::kIndexed;
      SimulationConfig reference = config;
      reference.executor_backend = ExecutorBackend::kReference;
      auto a = RunChurnOnce(indexed, spec, seed);
      auto b = RunChurnOnce(reference, spec, seed);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      EXPECT_EQ(ReportDifference(*a, *b), "")
          << spec.Label() << " seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace pullmon
