// Sharded-engine differential suite of the parallel backend (DESIGN.md
// section 16): DynamicMonitor sharded across threads must be
// decision-identical to the serial (one-shard, one-thread) monitor
// under arbitrary interleavings of submit/cancel/edit/unregister/step,
// faults, retries, and the circuit breaker — at every thread count, and
// with shard telemetry that is bit-identical across thread counts.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamic_monitor.h"
#include "policies/policy_factory.h"
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

/// Everything observable about one run.
struct RunTrace {
  std::vector<StepResult> steps;
  ProbeStats probe_stats;
  ChurnStats churn_stats;
  HealthStats health;
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
  return SplitMix64(&state) % 1000 < static_cast<uint64_t>(fail_permille);
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

/// One churn operation of the scripted scenario stream.
struct ScriptedOp {
  enum class Kind { kSubmit, kCancel, kEdit, kUnregister };
  Kind kind = Kind::kSubmit;
  int profile_index = 0;
  int submission_id = 0;
  TInterval t_interval;  // kSubmit / kEdit
};

/// The per-chronon operation script: ops happen before the chronon's
/// Step(). Drawn once per seed so every executor replays the exact same
/// stream.
std::vector<std::vector<ScriptedOp>> MakeScript(uint64_t seed) {
  std::vector<std::vector<ScriptedOp>> script(kEpoch);
  Rng ops(seed * 0x2545F4914F6CDD1DULL + 17);
  for (Chronon t = 0; t < kEpoch; ++t) {
    // Submissions (front-loaded, tapering off).
    if (ops.NextBool(t < kEpoch / 2 ? 0.9 : 0.4)) {
      ScriptedOp op;
      op.kind = ScriptedOp::Kind::kSubmit;
      op.profile_index = static_cast<int>(ops.NextInt(0, kProfiles - 1));
      op.t_interval = RandomTInterval(&ops, t);
      script[static_cast<std::size_t>(t)].push_back(std::move(op));
    }
    // Cancels — sometimes aimed at dead/unknown submissions on purpose.
    if (ops.NextBool(0.35)) {
      ScriptedOp op;
      op.kind = ScriptedOp::Kind::kCancel;
      op.profile_index = static_cast<int>(ops.NextInt(0, kProfiles - 1));
      op.submission_id = static_cast<int>(ops.NextInt(0, 6));
      script[static_cast<std::size_t>(t)].push_back(std::move(op));
    }
    // Edits — replacement drawn fresh; dead targets possible.
    if (ops.NextBool(0.3)) {
      ScriptedOp op;
      op.kind = ScriptedOp::Kind::kEdit;
      op.profile_index = static_cast<int>(ops.NextInt(0, kProfiles - 1));
      op.submission_id = static_cast<int>(ops.NextInt(0, 6));
      op.t_interval = RandomTInterval(&ops, t);
      script[static_cast<std::size_t>(t)].push_back(std::move(op));
    }
    // Rare unregister (kills the profile for the rest of the epoch).
    if (ops.NextBool(0.02)) {
      ScriptedOp op;
      op.kind = ScriptedOp::Kind::kUnregister;
      op.profile_index = static_cast<int>(ops.NextInt(0, kProfiles - 1));
      script[static_cast<std::size_t>(t)].push_back(std::move(op));
    }
  }
  return script;
}

/// Applies one scripted op directly to `monitor`.
void ApplyDirect(DynamicMonitor* monitor, const ScriptedOp& op,
                 const std::vector<ProfileId>& profiles,
                 RunTrace* trace) {
  ProfileId profile =
      profiles[static_cast<std::size_t>(op.profile_index)];
  switch (op.kind) {
    case ScriptedOp::Kind::kSubmit:
      if (!monitor->Submit(profile, op.t_interval).ok()) {
        ++trace->rejected_ops;
      }
      break;
    case ScriptedOp::Kind::kCancel:
      if (!monitor->Cancel(profile, op.submission_id).ok()) {
        ++trace->rejected_ops;
      }
      break;
    case ScriptedOp::Kind::kEdit:
      if (!monitor->Edit(profile, op.submission_id, op.t_interval).ok()) {
        ++trace->rejected_ops;
      }
      break;
    case ScriptedOp::Kind::kUnregister:
      if (!monitor->Unregister(profile).ok()) {
        ++trace->rejected_ops;
      }
      break;
  }
}

/// Runs one scripted scenario on an already-constructed monitor.
RunTrace RunScenario(DynamicMonitor* monitor, uint64_t seed,
                     const FaultConfig& faults) {
  RunTrace trace;
  std::vector<int> attempts_at(
      static_cast<std::size_t>(kResources * kEpoch), 0);
  monitor->set_probe_callback([&](ResourceId r, Chronon t) {
    int attempt = attempts_at[static_cast<std::size_t>(t) * kResources +
                              static_cast<std::size_t>(r)]++;
    return !ProbeFails(seed, r, t, attempt, faults.fail_permille);
  });

  std::vector<ProfileId> profiles;
  for (int p = 0; p < kProfiles; ++p) {
    profiles.push_back(
        monitor->RegisterProfile("client-" + std::to_string(p)));
  }

  std::vector<std::vector<ScriptedOp>> script = MakeScript(seed);
  for (Chronon t = 0; t < kEpoch; ++t) {
    for (const ScriptedOp& op : script[static_cast<std::size_t>(t)]) {
      ApplyDirect(monitor, op, profiles, &trace);
    }
    auto step = monitor->Step();
    PULLMON_CHECK(step.ok());
    trace.steps.push_back(std::move(*step));
    PULLMON_CHECK_OK(monitor->CheckInvariants());
  }
  trace.probe_stats = monitor->probe_stats();
  trace.churn_stats = monitor->churn_stats();
  trace.health = monitor->health().stats();
  trace.completeness = monitor->Completeness();
  trace.completed = monitor->t_intervals_completed();
  trace.failed = monitor->t_intervals_failed();
  return trace;
}

RunTrace RunSerial(uint64_t seed, const PolicySpec& spec,
                   const FaultConfig& faults) {
  PolicyOptions po;
  po.random_seed = seed ^ 0x5bf03635ULL;
  po.num_resources = kResources;
  auto policy = MakePolicy(spec.policy, po);
  PULLMON_CHECK(policy.ok());
  MonitorOptions options;
  options.retry = faults.retry;
  options.breaker = faults.breaker;
  DynamicMonitor monitor(kResources, kEpoch,
                         BudgetVector::Uniform(2, kEpoch), policy->get(),
                         spec.mode, options);
  return RunScenario(&monitor, seed, faults);
}

struct ParallelRun {
  RunTrace trace;
  ShardRunStats shard_stats;
};

ParallelRun RunParallel(uint64_t seed, const PolicySpec& spec,
                        const FaultConfig& faults, int threads, int shards) {
  PolicyOptions po;
  po.random_seed = seed ^ 0x5bf03635ULL;
  po.num_resources = kResources;
  auto policy = MakePolicy(spec.policy, po);
  PULLMON_CHECK(policy.ok());
  MonitorOptions options;
  options.retry = faults.retry;
  options.breaker = faults.breaker;
  options.threads = threads;
  options.shards = shards;
  DynamicMonitor executor(kResources, kEpoch,
                          BudgetVector::Uniform(2, kEpoch), policy->get(),
                          spec.mode, options);
  ParallelRun run;
  run.trace = RunScenario(&executor, seed, faults);
  run.shard_stats = executor.shard_stats();
  return run;
}

void ExpectTracesIdentical(const RunTrace& a, const RunTrace& b,
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
  EXPECT_TRUE(a.health == b.health) << label;
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

// The core differential: for seeded churn scenarios across all standard
// policies and fault configurations, the sharded monitor at 1/2/4/8
// threads matches the serial monitor step-for-step, and its shard
// telemetry is bit-identical across thread counts.
TEST(ShardedMonitorTest, MatchesSerialAcrossThreadCounts) {
  std::vector<PolicySpec> specs = StandardPolicySpecs();
  std::vector<FaultConfig> fault_configs(3);
  fault_configs[1].fail_permille = 250;
  fault_configs[1].retry.max_retries = 2;
  fault_configs[1].retry.backoff_base = 0.1;
  fault_configs[2].fail_permille = 350;
  fault_configs[2].retry.max_retries = 2;
  fault_configs[2].retry.backoff_base = 0.1;
  fault_configs[2].breaker.enabled = true;
  fault_configs[2].breaker.failure_threshold = 2;
  fault_configs[2].breaker.cooldown_base = 2;

  const int kThreadCounts[] = {1, 2, 4, 8};
  for (uint64_t seed = 0; seed < 48; ++seed) {
    const PolicySpec& spec = specs[seed % specs.size()];
    const FaultConfig& faults = fault_configs[seed % 3];
    std::string label = spec.Label() + " seed=" + std::to_string(seed) +
                        " faults=" + std::to_string(seed % 3);
    RunTrace serial = RunSerial(seed, spec, faults);

    ShardRunStats reference_shards;
    bool have_reference = false;
    for (int threads : kThreadCounts) {
      ParallelRun run =
          RunParallel(seed, spec, faults, threads,
                      MonitorOptions::kParallelShards);
      ExpectTracesIdentical(serial, run.trace,
                            label + " threads=" + std::to_string(threads));
      if (!have_reference) {
        reference_shards = run.shard_stats;
        have_reference = true;
      } else {
        EXPECT_TRUE(reference_shards == run.shard_stats)
            << label << " shard stats diverged at threads=" << threads;
      }
    }
  }
}

// The shard count partitions state but must never change decisions:
// degenerate (1) and non-default (5) shard counts still match serial.
TEST(ShardedMonitorTest, ShardCountDoesNotChangeDecisions) {
  std::vector<PolicySpec> specs = StandardPolicySpecs();
  FaultConfig faults;
  faults.fail_permille = 300;
  faults.retry.max_retries = 2;
  faults.retry.backoff_base = 0.1;
  faults.breaker.enabled = true;
  faults.breaker.failure_threshold = 2;
  faults.breaker.cooldown_base = 2;

  for (uint64_t seed = 100; seed < 112; ++seed) {
    const PolicySpec& spec = specs[seed % specs.size()];
    std::string label = spec.Label() + " seed=" + std::to_string(seed);
    RunTrace serial = RunSerial(seed, spec, faults);
    for (int shards : {1, 5}) {
      ParallelRun run = RunParallel(seed, spec, faults, /*threads=*/3,
                                    shards);
      ExpectTracesIdentical(serial, run.trace,
                            label + " shards=" + std::to_string(shards));
      EXPECT_EQ(run.shard_stats.shard_count, shards) << label;
    }
  }
}

// Capture callbacks must fire in exactly the order StepResult::captured
// reports.
TEST(ShardedMonitorTest, CaptureCallbackOrderMatchesStepResult) {
  std::vector<PolicySpec> specs = StandardPolicySpecs();
  FaultConfig faults;
  for (uint64_t seed = 400; seed < 408; ++seed) {
    const PolicySpec& spec = specs[seed % specs.size()];
    PolicyOptions po;
    po.random_seed = seed ^ 0x5bf03635ULL;
    po.num_resources = kResources;
    auto policy = MakePolicy(spec.policy, po);
    PULLMON_CHECK(policy.ok());
    MonitorOptions options;
    options.threads = 2;
    options.shards = MonitorOptions::kParallelShards;
    DynamicMonitor executor(kResources, kEpoch,
                            BudgetVector::Uniform(2, kEpoch),
                            policy->get(), spec.mode, options);
    std::vector<std::pair<ProfileId, int>> fired;
    executor.set_capture_callback(
        [&](ProfileId profile, int submission, Chronon) {
          fired.emplace_back(profile, submission);
        });
    std::vector<ProfileId> profiles;
    for (int p = 0; p < kProfiles; ++p) {
      profiles.push_back(
          executor.RegisterProfile("client-" + std::to_string(p)));
    }
    RunTrace trace;
    std::vector<std::vector<ScriptedOp>> script = MakeScript(seed);
    for (Chronon t = 0; t < kEpoch; ++t) {
      for (const ScriptedOp& op : script[static_cast<std::size_t>(t)]) {
        ApplyDirect(&executor, op, profiles, &trace);
      }
      fired.clear();
      auto step = executor.Step();
      PULLMON_CHECK(step.ok());
      EXPECT_EQ(fired, step->captured)
          << spec.Label() << " seed=" << seed << " chronon " << t;
    }
  }
}

TEST(ShardedMonitorTest, CancelOfMaxRankSubmissionLowersRank) {
  // Mirror of DynamicMonitorTest.CancelOfMaxRankSubmissionLowersRank
  // on a sharded monitor (the differential suite enforces equality; this
  // pins the intended behavior directly).
  PolicyOptions po;
  auto policy = MakePolicy("mrsf", po);
  ASSERT_TRUE(policy.ok());
  MonitorOptions options;
  options.shards = MonitorOptions::kParallelShards;
  options.threads = 2;
  DynamicMonitor executor(6, 12, BudgetVector::Uniform(1, 12),
                          policy->get(), ExecutionMode::kPreemptive,
                          options);
  ProfileId heavy = executor.RegisterProfile("heavy");
  ProfileId light = executor.RegisterProfile("light");
  ASSERT_TRUE(executor.Submit(heavy, TInterval({{0, 0, 9}})).ok());
  auto bulky = executor.Submit(
      heavy, TInterval({{1, 6, 8}, {2, 6, 8}, {3, 6, 8}}));
  ASSERT_TRUE(bulky.ok());
  ASSERT_TRUE(
      executor.Submit(light, TInterval({{4, 0, 9}, {5, 0, 9}})).ok());
  ASSERT_TRUE(executor.Cancel(heavy, *bulky).ok());
  auto step = executor.Step();
  ASSERT_TRUE(step.ok());
  // rank(heavy) dropped back to 1 < light's residual 2.
  EXPECT_EQ(step->probed, (std::vector<ResourceId>{0}));
}

}  // namespace
}  // namespace pullmon
