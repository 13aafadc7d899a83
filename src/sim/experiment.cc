#include "sim/experiment.h"

#include <algorithm>
#include <thread>

#include "policies/policy_factory.h"
#include "profilegen/profile_generator.h"
#include "trace/poisson_generator.h"
#include "util/string_util.h"

namespace pullmon {

std::string PolicySpec::Label() const {
  return StringFormat("%s(%s)", policy.c_str(),
                      ExecutionModeToString(mode));
}

std::vector<PolicySpec> StandardPolicySpecs() {
  return {
      {"S-EDF", ExecutionMode::kNonPreemptive},
      {"S-EDF", ExecutionMode::kPreemptive},
      {"M-EDF", ExecutionMode::kPreemptive},
      {"MRSF", ExecutionMode::kPreemptive},
  };
}

AuctionTraceOptions AuctionOptionsFor(const SimulationConfig& config) {
  AuctionTraceOptions options = config.auction;
  options.num_auctions = config.num_resources;
  options.epoch_length = config.epoch_length;
  return options;
}

namespace {

PoissonTraceOptions PoissonOptionsFor(const SimulationConfig& config) {
  return {.num_resources = config.num_resources,
          .epoch_length = config.epoch_length,
          .lambda = config.lambda};
}

FeedWorkloadOptions FeedWorkloadOptionsFor(const SimulationConfig& config) {
  FeedWorkloadOptions options = config.feed_workload;
  options.num_feeds = config.num_resources;
  options.epoch_length = config.epoch_length;
  return options;
}

/// GenerateUpdateTrace's paged twin: the store-direct generators mirror
/// the UpdateTrace ones draw for draw, so for one seed both backends
/// hold the same events.
Result<TraceStore> GenerateTraceStore(const SimulationConfig& config,
                                      Rng* rng) {
  switch (config.dataset) {
    case DatasetKind::kPoisson:
      return GeneratePoissonTraceStore(PoissonOptionsFor(config), rng,
                                       config.trace_store);
    case DatasetKind::kAuction: {
      PULLMON_ASSIGN_OR_RETURN(
          AuctionTrace auctions,
          GenerateAuctionTrace(AuctionOptionsFor(config), rng));
      return auctions.ToTraceStore(config.trace_store);
    }
    case DatasetKind::kFeedWorkload:
      return GenerateFeedWorkloadStore(FeedWorkloadOptionsFor(config), rng,
                                       config.trace_store);
  }
  return Status::InvalidArgument("unknown dataset");
}

/// Generates the update trace into whichever representation the config
/// selects and derives the profiles from it; both branches consume
/// `rng` identically.
Result<std::vector<Profile>> GenerateTraceAndProfiles(
    const SimulationConfig& config, Rng* rng,
    const ProfileGeneratorOptions& pg, UpdateTrace* trace_out,
    std::optional<TraceStore>* store_out) {
  if (config.trace_backend == TraceBackend::kPaged) {
    PULLMON_ASSIGN_OR_RETURN(TraceStore store,
                             GenerateTraceStore(config, rng));
    PULLMON_ASSIGN_OR_RETURN(std::vector<Profile> profiles,
                             GenerateProfiles(store, pg, rng));
    if (store_out != nullptr) store_out->emplace(std::move(store));
    return profiles;
  }
  PULLMON_ASSIGN_OR_RETURN(UpdateTrace trace,
                           GenerateUpdateTrace(config, rng));
  PULLMON_ASSIGN_OR_RETURN(std::vector<Profile> profiles,
                           GenerateProfiles(trace, pg, rng));
  if (trace_out != nullptr) *trace_out = std::move(trace);
  return profiles;
}

}  // namespace

Result<UpdateTrace> GenerateUpdateTrace(const SimulationConfig& config,
                                        Rng* rng) {
  switch (config.dataset) {
    case DatasetKind::kPoisson:
      return GeneratePoissonTrace(PoissonOptionsFor(config), rng);
    case DatasetKind::kAuction: {
      PULLMON_ASSIGN_OR_RETURN(
          AuctionTrace auctions,
          GenerateAuctionTrace(AuctionOptionsFor(config), rng));
      return auctions.ToUpdateTrace();
    }
    case DatasetKind::kFeedWorkload:
      return GenerateFeedWorkload(FeedWorkloadOptionsFor(config), rng);
  }
  return Status::InvalidArgument("unknown dataset");
}

Result<MonitoringProblem> BuildProblem(
    const SimulationConfig& config, uint64_t seed, UpdateTrace* trace_out,
    std::optional<TraceStore>* store_out) {
  Rng rng(seed);

  ProfileGeneratorOptions pg;
  pg.num_profiles = config.num_profiles;
  pg.max_rank = config.max_rank;
  pg.alpha = config.alpha;
  pg.beta = config.beta;
  pg.ei_options.restriction = config.restriction;
  pg.ei_options.window = config.window;
  pg.max_t_intervals_per_profile = config.max_t_intervals_per_profile;
  PULLMON_ASSIGN_OR_RETURN(
      std::vector<Profile> profiles,
      GenerateTraceAndProfiles(config, &rng, pg, trace_out, store_out));

  MonitoringProblem problem;
  problem.num_resources = config.num_resources;
  problem.epoch.length = config.epoch_length;
  problem.profiles = std::move(profiles);
  problem.budget = BudgetVector::Uniform(config.budget,
                                         config.epoch_length);
  return problem;
}

MonitorOptions MonitorOptionsFor(const SimulationConfig& config) {
  MonitorOptions options;
  options.retry = config.retry;
  options.breaker = config.breaker;
  switch (config.executor_backend) {
    case ExecutorBackend::kIndexed:
      break;
    case ExecutorBackend::kReference:
      // The reference backend runs the from-scratch rebuild oracle, so
      // backend differential tests cover churn too.
      options.maintenance = MonitorIndexMode::kRebuild;
      break;
  }
  return options;
}

Status BuildSubstrate(const SimulationConfig& config, const PolicySpec& spec,
                      uint64_t seed, RunSubstrate* out) {
  ProxyOptions& options = out->proxy;
  options.faults = config.faults;
  options.fault_seed = config.fault_seed ^ (seed * 0x9E3779B97F4A7C15ULL);
  options.retry = config.retry;
  options.breaker = config.breaker;
  options.backend = config.executor_backend;
  options.parse_cache = config.parse_cache;
  options.trace_backend = config.trace_backend;
  PULLMON_RETURN_NOT_OK(options.Validate());
  if (config.feed_buffer_capacity < 1) {
    return Status::InvalidArgument("buffer-capacity must be >= 1 items");
  }
  PULLMON_ASSIGN_OR_RETURN(out->problem,
                           BuildProblem(config, seed, &out->trace,
                                        &out->store));
  const auto buffer_capacity =
      static_cast<std::size_t>(config.feed_buffer_capacity);
  if (out->store.has_value()) {
    out->network.emplace(&*out->store, buffer_capacity);
  } else {
    out->network.emplace(&out->trace, buffer_capacity);
  }
  PolicyOptions po;
  po.random_seed = seed ^ 0x5bf03635ULL;
  po.num_resources = out->problem.num_resources;
  PULLMON_ASSIGN_OR_RETURN(out->policy, MakePolicy(spec.policy, po));
  return Status::OK();
}

Result<ProxyRunReport> RunProxyOnce(const SimulationConfig& config,
                                    const PolicySpec& spec, uint64_t seed) {
  if (config.knowledge == KnowledgeModel::kEstimated) {
    return RunAdaptiveOnce(config, spec, seed);
  }
  RunSubstrate substrate;
  PULLMON_RETURN_NOT_OK(BuildSubstrate(config, spec, seed, &substrate));
  MonitoringProxy proxy(&substrate.problem, &*substrate.network,
                        substrate.policy.get(), spec.mode, substrate.proxy);
  return proxy.Run();
}

Status ExperimentRunner::RunRepetition(
    const SimulationConfig& config, const std::vector<PolicySpec>& specs,
    bool include_offline, const LocalRatioOptions& offline_options,
    int rep, RepetitionRecord* out) {
  uint64_t seed = base_seed_ + static_cast<uint64_t>(rep) * 7919;
  PULLMON_ASSIGN_OR_RETURN(MonitoringProblem problem,
                           BuildProblem(config, seed));
  out->t_intervals = static_cast<double>(problem.TotalTIntervalCount());
  out->eis = static_cast<double>(problem.TotalEiCount());
  out->policies.resize(specs.size());

  for (std::size_t s = 0; s < specs.size(); ++s) {
    PolicyOptions po;
    po.random_seed = seed ^ 0x5bf03635ULL;
    po.num_resources = problem.num_resources;
    PULLMON_ASSIGN_OR_RETURN(std::unique_ptr<Policy> policy,
                             MakePolicy(specs[s].policy, po));
    OnlineExecutor executor(&problem, policy.get(), specs[s].mode);
    executor.set_backend(config.executor_backend);
    executor.set_breaker_options(config.breaker);
    PULLMON_ASSIGN_OR_RETURN(OnlineRunResult run, executor.Run());
    out->policies[s].gc = run.completeness.GainedCompleteness();
    out->policies[s].runtime_seconds = run.elapsed_seconds;
    out->policies[s].probes_used = static_cast<double>(run.probes_used);
  }

  if (include_offline) {
    LocalRatioScheduler scheduler(&problem, offline_options);
    PULLMON_ASSIGN_OR_RETURN(OfflineSolution offline, scheduler.Solve());
    out->offline_gc = offline.gained_completeness;
    out->offline_runtime_seconds = offline.elapsed_seconds;
    out->offline_guaranteed_factor = scheduler.GuaranteedFactor();
  }
  return Status::OK();
}

Result<ComparisonResult> ExperimentRunner::Run(
    const SimulationConfig& config, const std::vector<PolicySpec>& specs,
    bool include_offline, const LocalRatioOptions& offline_options) {
  // Every repetition computes a plain record into its own slot;
  // aggregation then folds the records in repetition order on one
  // thread. The fold — not just the per-repetition values — is
  // therefore independent of the thread count, which makes the
  // header's thread-invariance promise hold bitwise (floating-point
  // accumulation order never varies).
  std::vector<RepetitionRecord> records(
      static_cast<std::size_t>(repetitions_ < 0 ? 0 : repetitions_));
  int threads = std::min(threads_, repetitions_);
  if (threads <= 1) {
    for (int rep = 0; rep < repetitions_; ++rep) {
      PULLMON_RETURN_NOT_OK(
          RunRepetition(config, specs, include_offline, offline_options,
                        rep, &records[static_cast<std::size_t>(rep)]));
    }
  } else {
    std::vector<Status> failures(static_cast<std::size_t>(threads));
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        for (int rep = w; rep < repetitions_; rep += threads) {
          Status st = RunRepetition(
              config, specs, include_offline, offline_options, rep,
              &records[static_cast<std::size_t>(rep)]);
          if (!st.ok()) {
            failures[static_cast<std::size_t>(w)] = st;
            return;
          }
        }
      });
    }
    for (auto& worker : workers) worker.join();
    for (const auto& failure : failures) {
      if (!failure.ok()) return failure;
    }
  }

  ComparisonResult result;
  result.policies.resize(specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    result.policies[s].spec = specs[s];
  }
  if (include_offline) result.offline = OfflineOutcome{};
  for (const RepetitionRecord& record : records) {
    result.t_intervals.Add(record.t_intervals);
    result.eis.Add(record.eis);
    for (std::size_t s = 0; s < specs.size(); ++s) {
      result.policies[s].gc.Add(record.policies[s].gc);
      result.policies[s].runtime_seconds.Add(
          record.policies[s].runtime_seconds);
      result.policies[s].probes_used.Add(record.policies[s].probes_used);
    }
    if (include_offline) {
      result.offline->gc.Add(record.offline_gc);
      result.offline->runtime_seconds.Add(record.offline_runtime_seconds);
      result.offline->guaranteed_factor = record.offline_guaranteed_factor;
    }
  }
  return result;
}

}  // namespace pullmon
