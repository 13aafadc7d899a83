// Differential property test of the two executor backends: the indexed
// production path (core/candidate_index.h) must produce the exact probe
// schedule and telemetry of the scan-based ReferenceExecutor oracle on
// every instance, under every policy, in both execution modes, with and
// without probe faults and same-chronon retries. ~200 randomized
// instances x 9 policies x 2 modes; any divergence is a scheduling bug,
// not a tolerance issue, so all comparisons are exact.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/online_executor.h"
#include "core/reference_executor.h"
#include "policies/policy_factory.h"
#include "sim/config.h"
#include "sim/experiment.h"
#include "sim/proxy.h"
#include "test_instances.h"
#include "util/logging.h"
#include "util/random.h"

namespace pullmon {
namespace {

/// Deterministic flaky probe callback: ~25% of attempts fail, but a
/// retry of the same (resource, chronon) may succeed because the
/// attempt ordinal enters the hash. Both backends issue identical
/// attempt sequences, so the stateful ordinal map stays in lockstep.
class FlakyProbes {
 public:
  explicit FlakyProbes(uint64_t seed) : seed_(seed) {}

  bool operator()(ResourceId r, Chronon t) {
    uint64_t attempt = attempts_[{r, t}]++;
    uint64_t key = seed_;
    key = key * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(r);
    key = key * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(t);
    key = key * 0x9E3779B97F4A7C15ULL + attempt;
    uint64_t state = key;
    return (SplitMix64(&state) & 3) != 0;
  }

 private:
  uint64_t seed_;
  std::map<std::pair<ResourceId, Chronon>, uint64_t> attempts_;
};

/// Correlated-outage probe callback: on top of FlakyProbes' i.i.d.
/// failures, each resource is dark for whole episodes of `episode_len`
/// chronons (every attempt inside one fails, retries included). The
/// episode pattern is a pure function of (seed, resource, episode), so
/// both backends observe the identical outage trajectory regardless of
/// probe order — the same property the FaultPlan outage streams have.
class OutageProbes {
 public:
  OutageProbes(uint64_t seed, Chronon episode_len)
      : flaky_(seed ^ 0xABCDEF12ULL), seed_(seed),
        episode_len_(episode_len) {}

  bool operator()(ResourceId r, Chronon t) {
    uint64_t key = seed_;
    key = key * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(r);
    key = key * 0x9E3779B97F4A7C15ULL +
          static_cast<uint64_t>(t / episode_len_);
    uint64_t state = key;
    // A quarter of all (resource, episode) cells are dark.
    if ((SplitMix64(&state) & 3) == 0) return false;
    return flaky_(r, t);
  }

 private:
  FlakyProbes flaky_;
  uint64_t seed_;
  Chronon episode_len_;
};

/// Breaker parameters varied by seed so the differential test sweeps
/// thresholds, cool-downs, and caps rather than pinning one shape.
BreakerOptions BreakerVariant(uint64_t seed) {
  BreakerOptions breaker;
  breaker.enabled = true;
  breaker.failure_threshold = 1 + static_cast<int>(seed % 3);
  breaker.cooldown_base = 1 + static_cast<Chronon>(seed % 4);
  breaker.cooldown_multiplier = (seed % 2 == 0) ? 2.0 : 1.5;
  breaker.max_cooldown = breaker.cooldown_base * 4;
  breaker.ewma_alpha = 0.2 + 0.1 * static_cast<double>(seed % 5);
  return breaker;
}

/// One executor run, as the `run` of an otherwise empty report so that
/// ReportDifference compares the two backends.
ProxyRunReport RunBackend(const MonitoringProblem& problem,
                          const std::string& policy_name, ExecutionMode mode,
                          ExecutorBackend backend, bool with_faults,
                          uint64_t fault_seed,
                          const BreakerOptions* breaker = nullptr,
                          Chronon outage_episode_len = 0) {
  PolicyOptions po;
  po.random_seed = 4242;
  po.num_resources = problem.num_resources;
  auto policy = MakePolicy(policy_name, po);
  EXPECT_TRUE(policy.ok()) << policy.status().ToString();

  OnlineExecutor executor(&problem, policy->get(), mode);
  executor.set_backend(backend);
  if (outage_episode_len > 0) {
    executor.set_probe_callback(
        OutageProbes(fault_seed, outage_episode_len));
  } else if (with_faults) {
    executor.set_probe_callback(FlakyProbes(fault_seed));
  }
  if (with_faults || outage_episode_len > 0) {
    RetryPolicy retry;
    retry.max_retries = 2;
    retry.backoff_base = 0.125;
    executor.set_retry_policy(retry);
  }
  if (breaker != nullptr) executor.set_breaker_options(*breaker);
  auto run = executor.Run();
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  ProxyRunReport report;
  if (run.ok()) report.run = std::move(*run);
  return report;
}

/// The physical proxy path on the scan-based ReferenceExecutor oracle:
/// RunProxyOnce's substrate and pull session (AttachTo, FinishReport)
/// under the reference executor instead of the run's monitor, pushing
/// each capture into `notifications` and each probe attempt into
/// `observer` when one is given.
ProxyRunReport RunReferenceProxy(
    const SimulationConfig& config, const PolicySpec& spec, uint64_t seed,
    std::vector<ProxyNotification>* notifications = nullptr,
    FeedPullSession::Observer observer = nullptr) {
  RunSubstrate substrate;
  PULLMON_CHECK_OK(BuildSubstrate(config, spec, seed, &substrate));
  ProxyRunReport report;
  FeedPullSession session(&*substrate.network,
                          substrate.problem.num_resources, substrate.proxy,
                          &report);
  ReferenceExecutor reference(&substrate.problem, substrate.policy.get(),
                              spec.mode);
  reference.set_retry_policy(substrate.proxy.retry);
  reference.set_breaker_options(substrate.proxy.breaker);
  session.AttachTo(&reference);
  session.set_observer(std::move(observer));
  reference.set_capture_callback(
      [&](ProfileId profile, std::size_t t_interval_index, Chronon now) {
        ++report.notifications_delivered;
        if (notifications == nullptr) return;
        notifications->push_back(ProxyNotification{
            profile, t_interval_index, now, session.current_items()});
      });
  auto run = reference.Run();
  PULLMON_CHECK_OK(run.status());
  session.FinishReport(std::move(*run));
  return report;
}

/// The four instance shapes the seeds cycle through: small/dense,
/// wider epoch with multi-t-interval profiles, higher rank and budget,
/// and a P^[1] instance with per-chronon budgets including zeros.
MonitoringProblem MakeVariantInstance(int variant, Rng* rng) {
  RandomInstanceOptions options;
  int t_intervals_per_profile = 1;
  switch (variant) {
    case 0:
      options.num_resources = 4;
      options.epoch_length = 8;
      options.num_t_intervals = 6;
      options.max_rank = 2;
      options.max_width = 3;
      options.budget = 1;
      break;
    case 1:
      options.num_resources = 8;
      options.epoch_length = 16;
      options.num_t_intervals = 12;
      options.max_rank = 3;
      options.max_width = 5;
      options.budget = 2;
      t_intervals_per_profile = 3;
      break;
    case 2:
      options.num_resources = 6;
      options.epoch_length = 12;
      options.num_t_intervals = 10;
      options.max_rank = 4;
      options.max_width = 4;
      options.budget = 3;
      break;
    default:
      options.num_resources = 5;
      options.epoch_length = 10;
      options.num_t_intervals = 8;
      options.max_rank = 2;
      options.unit_width = true;
      options.budget = 1;
      break;
  }
  MonitoringProblem problem =
      MakeRandomInstance(options, rng, t_intervals_per_profile);
  if (variant == 3) {
    // Non-uniform per-chronon budgets with starvation chronons.
    std::vector<int> budgets;
    for (Chronon t = 0; t < options.epoch_length; ++t) {
      budgets.push_back(static_cast<int>(t % 3));  // 0, 1, 2, 0, ...
    }
    problem.budget = BudgetVector::FromVector(std::move(budgets));
  }
  return problem;
}

TEST(ExecutorDifferentialTest, IndexedMatchesReferenceEverywhere) {
  const std::vector<std::string> policies = KnownPolicyNames();
  ASSERT_FALSE(policies.empty());
  const ExecutionMode modes[] = {ExecutionMode::kPreemptive,
                                 ExecutionMode::kNonPreemptive};

  int instances = 0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    for (int variant = 0; variant < 4; ++variant) {
      Rng rng(seed * 1000 + static_cast<uint64_t>(variant));
      MonitoringProblem problem = MakeVariantInstance(variant, &rng);
      if (problem.profiles.empty()) continue;
      ++instances;
      // Fault injection on a quarter of the instances keeps the test
      // fast while covering the retry path in both backends.
      bool with_faults = seed % 4 == 0;
      for (const std::string& policy : policies) {
        for (ExecutionMode mode : modes) {
          std::string label =
              "seed=" + std::to_string(seed) +
              " variant=" + std::to_string(variant) +
              " policy=" + policy +
              " mode=" + std::string(ExecutionModeToString(mode)) +
              (with_faults ? " faults" : "");
          ProxyRunReport indexed =
              RunBackend(problem, policy, mode,
                         ExecutorBackend::kIndexed, with_faults, seed);
          ProxyRunReport reference =
              RunBackend(problem, policy, mode,
                         ExecutorBackend::kReference, with_faults, seed);
          EXPECT_EQ(ReportDifference(indexed, reference), "") << label;
          if (::testing::Test::HasFailure()) {
            FAIL() << "stopping at first divergence: " << label;
          }
        }
      }
    }
  }
  EXPECT_GE(instances, 190);
}

// The new code paths: correlated outage episodes with the circuit
// breaker enabled. Suppression changes which candidates are scored at
// all, so this is the configuration most likely to expose a divergence
// between the candidate index's lazy compaction and the reference
// scan — every policy (including the health: wrappers), both modes,
// breaker parameters swept by seed.
TEST(ExecutorDifferentialTest, IndexedMatchesReferenceWithBreakers) {
  const std::vector<std::string> policies = KnownPolicyNames();
  ASSERT_FALSE(policies.empty());
  const ExecutionMode modes[] = {ExecutionMode::kPreemptive,
                                 ExecutionMode::kNonPreemptive};

  int instances = 0;
  std::size_t total_opened = 0;
  std::size_t total_suppressed = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    for (int variant = 0; variant < 4; ++variant) {
      Rng rng(seed * 2000 + static_cast<uint64_t>(variant));
      MonitoringProblem problem = MakeVariantInstance(variant, &rng);
      if (problem.profiles.empty()) continue;
      ++instances;
      BreakerOptions breaker = BreakerVariant(seed);
      // Dark episodes of 2-4 chronons — long enough for a threshold-1
      // breaker to trip and serve its cool-down inside the tiny epochs.
      Chronon episode_len = 2 + static_cast<Chronon>(seed % 3);
      for (const std::string& policy : policies) {
        for (ExecutionMode mode : modes) {
          std::string label =
              "breaker seed=" + std::to_string(seed) +
              " variant=" + std::to_string(variant) +
              " policy=" + policy +
              " mode=" + std::string(ExecutionModeToString(mode));
          ProxyRunReport indexed = RunBackend(
              problem, policy, mode, ExecutorBackend::kIndexed,
              /*with_faults=*/true, seed, &breaker, episode_len);
          ProxyRunReport reference = RunBackend(
              problem, policy, mode, ExecutorBackend::kReference,
              /*with_faults=*/true, seed, &breaker, episode_len);
          EXPECT_EQ(ReportDifference(indexed, reference), "") << label;
          total_opened += indexed.run.circuits_opened;
          total_suppressed += indexed.run.probes_suppressed;
          if (::testing::Test::HasFailure()) {
            FAIL() << "stopping at first divergence: " << label;
          }
        }
      }
    }
  }
  EXPECT_GE(instances, 75);
  // The sweep must actually exercise the breaker: a decision-identity
  // pass in which no circuit ever opened would be vacuous.
  EXPECT_GT(total_opened, 0u);
  EXPECT_GT(total_suppressed, 0u);
}

// The full physical path — FeedNetwork, FaultPlan, RetryPolicy, proxy
// notifications — must also be backend-independent: the indexed
// monitor, the kRebuild monitor (--executor=reference) and the
// ReferenceExecutor wired to the same pull session may only differ in
// scheduling cost, never in a probe or a byte fetched.
TEST(ExecutorDifferentialTest, ProxyPathMatchesThroughFaultLayer) {
  SimulationConfig config = BaselineConfig();
  config.num_resources = 20;
  config.epoch_length = 60;
  config.num_profiles = 30;
  config.lambda = 6.0;
  config.budget = 2;
  config.faults.timeout_rate = 0.1;
  config.faults.server_error_rate = 0.05;
  config.faults.corruption_rate = 0.1;
  config.faults.etag_storm_rate = 0.02;
  config.retry.max_retries = 2;
  config.retry.backoff_base = 0.1;

  for (const PolicySpec& spec : StandardPolicySpecs()) {
    for (uint64_t seed : {7u, 21u, 99u}) {
      SimulationConfig indexed_config = config;
      indexed_config.executor_backend = ExecutorBackend::kIndexed;
      SimulationConfig reference_config = config;
      reference_config.executor_backend = ExecutorBackend::kReference;

      auto indexed = RunProxyOnce(indexed_config, spec, seed);
      auto reference = RunProxyOnce(reference_config, spec, seed);
      ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();

      std::string label = spec.Label() + " seed=" + std::to_string(seed);
      EXPECT_EQ(ReportDifference(*indexed, *reference), "") << label;
      EXPECT_EQ(ReportDifference(*indexed,
                                 RunReferenceProxy(config, spec, seed)),
                "")
          << label << " reference executor";
    }
  }
}

// At budget 2 a failed probe's second same-chronon retry never fits in
// the chronon's budget. At budget 4 the full chain (a probe and both
// retries) runs, and all three arms must still agree on every attempt.
TEST(ExecutorDifferentialTest, ProxyPathMatchesThroughFullRetryChains) {
  SimulationConfig config = BaselineConfig();
  config.num_resources = 20;
  config.epoch_length = 60;
  config.num_profiles = 30;
  config.lambda = 6.0;
  config.budget = 4;
  config.faults.timeout_rate = 0.3;
  config.faults.server_error_rate = 0.1;
  config.faults.corruption_rate = 0.05;
  config.retry.max_retries = 2;
  config.retry.backoff_base = 0.1;

  int longest_chain = 0;
  for (const PolicySpec& spec : StandardPolicySpecs()) {
    for (uint64_t seed : {5u, 33u, 81u}) {
      SimulationConfig indexed_config = config;
      indexed_config.executor_backend = ExecutorBackend::kIndexed;
      SimulationConfig reference_config = config;
      reference_config.executor_backend = ExecutorBackend::kReference;

      auto indexed = RunProxyOnce(indexed_config, spec, seed);
      auto reference = RunProxyOnce(reference_config, spec, seed);
      ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();

      std::map<std::pair<ResourceId, Chronon>, int> attempts;
      const ProxyRunReport oracle = RunReferenceProxy(
          config, spec, seed, nullptr, [&](const PullAttempt& attempt) {
            const int n = ++attempts[{attempt.resource, attempt.chronon}];
            longest_chain = std::max(longest_chain, n);
          });

      std::string label = spec.Label() + " seed=" + std::to_string(seed);
      EXPECT_EQ(ReportDifference(*indexed, *reference), "") << label;
      EXPECT_EQ(ReportDifference(*indexed, oracle), "")
          << label << " reference executor";
    }
  }
  // Vacuous otherwise: some probe must have used both of its retries.
  EXPECT_EQ(longest_chain, 1 + config.retry.max_retries);
}

// Same physical-path identity with the Gilbert-Elliott outage process
// and the circuit breaker live: the health telemetry itself must also
// agree between all three, byte for byte.
TEST(ExecutorDifferentialTest, ProxyPathMatchesWithOutagesAndBreaker) {
  SimulationConfig config = BaselineConfig();
  config.num_resources = 20;
  config.epoch_length = 80;
  config.num_profiles = 30;
  config.lambda = 6.0;
  config.budget = 2;
  config.faults.timeout_rate = 0.05;
  config.faults.outage_enter_rate = 0.02;
  config.faults.outage_exit_rate = 0.1;
  config.retry.max_retries = 2;
  config.retry.backoff_base = 0.1;
  config.breaker.enabled = true;
  config.breaker.failure_threshold = 2;
  config.breaker.cooldown_base = 3;
  config.breaker.max_cooldown = 12;

  for (const PolicySpec& spec :
       {PolicySpec{"MRSF", ExecutionMode::kPreemptive},
        PolicySpec{"health:mrsf", ExecutionMode::kPreemptive},
        PolicySpec{"S-EDF", ExecutionMode::kNonPreemptive}}) {
    for (uint64_t seed : {11u, 42u, 77u}) {
      SimulationConfig indexed_config = config;
      indexed_config.executor_backend = ExecutorBackend::kIndexed;
      SimulationConfig reference_config = config;
      reference_config.executor_backend = ExecutorBackend::kReference;

      auto indexed = RunProxyOnce(indexed_config, spec, seed);
      auto reference = RunProxyOnce(reference_config, spec, seed);
      ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();

      std::string label = spec.Label() + " seed=" + std::to_string(seed);
      EXPECT_EQ(ReportDifference(*indexed, *reference), "") << label;
      EXPECT_EQ(ReportDifference(*indexed,
                                 RunReferenceProxy(config, spec, seed)),
                "")
          << label << " reference executor";
    }
  }
}

// Notification payloads, not just counters: with every fault class,
// retries and the breaker live (and once more with the parse cache),
// the items pushed with each captured t-interval must be identical on
// the indexed and reference backends and on the ReferenceExecutor
// wiring, element by element in delivery order.
TEST(ExecutorDifferentialTest, ProxyNotificationPayloadsMatch) {
  SimulationConfig config = BaselineConfig();
  config.num_resources = 25;
  config.num_profiles = 35;
  config.epoch_length = 150;
  config.lambda = 8.0;
  config.budget = 2;
  config.faults.timeout_rate = 0.1;
  config.faults.server_error_rate = 0.05;
  config.faults.truncation_rate = 0.05;
  config.faults.corruption_rate = 0.05;
  config.faults.etag_storm_rate = 0.1;
  config.faults.outage_enter_rate = 0.02;
  config.faults.outage_exit_rate = 0.3;
  config.retry.max_retries = 2;
  config.breaker.enabled = true;
  config.breaker.failure_threshold = 3;
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  const uint64_t seed = 4242;

  auto notifications = [&](const SimulationConfig& run_config) {
    RunSubstrate substrate;
    PULLMON_CHECK_OK(BuildSubstrate(run_config, spec, seed, &substrate));
    MonitoringProxy proxy(&substrate.problem, &*substrate.network,
                          substrate.policy.get(), spec.mode,
                          substrate.proxy);
    PULLMON_CHECK(proxy.Run().ok());
    return proxy.notifications();
  };

  for (bool parse_cache : {false, true}) {
    config.parse_cache = parse_cache;
    config.executor_backend = ExecutorBackend::kIndexed;
    std::vector<ProxyNotification> indexed = notifications(config);
    config.executor_backend = ExecutorBackend::kReference;
    std::vector<ProxyNotification> rebuild = notifications(config);
    std::vector<ProxyNotification> oracle;
    RunReferenceProxy(config, spec, seed, &oracle);
    for (const auto& [arm, reference] :
         {std::pair{"reference", &rebuild},
          std::pair{"reference executor", &oracle}}) {
      std::string label =
          std::string(parse_cache ? "parse cache" : "no cache") + " " + arm;
      ASSERT_GT(indexed.size(), 0u) << label;
      ASSERT_EQ(indexed.size(), reference->size()) << label;
      for (std::size_t i = 0; i < indexed.size(); ++i) {
        const ProxyNotification& a = indexed[i];
        const ProxyNotification& b = (*reference)[i];
        std::string at = label + " notification " + std::to_string(i);
        EXPECT_EQ(a.profile, b.profile) << at;
        EXPECT_EQ(a.t_interval_index, b.t_interval_index) << at;
        EXPECT_EQ(a.chronon, b.chronon) << at;
        ASSERT_EQ(a.items.size(), b.items.size()) << at;
        for (std::size_t j = 0; j < a.items.size(); ++j) {
          const FeedItem& x = a.items[j];
          const FeedItem& y = b.items[j];
          std::string item = at + " item " + std::to_string(j);
          EXPECT_EQ(x.guid, y.guid) << item;
          EXPECT_EQ(x.title, y.title) << item;
          EXPECT_EQ(x.link, y.link) << item;
          EXPECT_EQ(x.description, y.description) << item;
          EXPECT_EQ(x.published, y.published) << item;
        }
      }
    }
  }
}

}  // namespace
}  // namespace pullmon
