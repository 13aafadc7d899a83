#include "workloads.h"

#include <algorithm>
#include <cmath>

#include "recovery/durable_runner.h"
#include "recovery/stable_storage.h"

namespace perfbench {

using pullmon::ExecutionMode;
using pullmon::SimulationConfig;

namespace {

/// The reference instance: Poisson lambda=20, n=2000, m=3000, k=3,
/// W=20, K=2000, C=20.
SimulationConfig ReferenceInstance() {
  SimulationConfig c = pullmon::BaselineConfig();
  c.dataset = pullmon::DatasetKind::kPoisson;
  c.lambda = 20.0;
  c.num_resources = 2000;
  c.num_profiles = 3000;
  c.max_rank = 3;
  c.window = 20;
  c.epoch_length = 2000;
  c.budget = 20;
  return c;
}

}  // namespace

std::vector<Workload> AllWorkloads() {
  const pullmon::PolicySpec medf{"m-edf", ExecutionMode::kPreemptive};
  std::vector<Workload> all;

  Workload clean;
  clean.name = "proxy_clean";
  clean.config = ReferenceInstance();
  clean.spec = medf;
  clean.entry = Entry::kProxy;
  all.push_back(clean);

  Workload dense;
  dense.name = "sched_dense";
  dense.config = pullmon::BaselineConfig();
  dense.config.lambda = 40.0;
  dense.config.num_resources = 500;
  dense.config.num_profiles = 5000;
  dense.config.max_rank = 5;
  dense.config.epoch_length = 2000;
  dense.config.budget = 4;
  dense.config.feed_buffer_capacity = 1;
  dense.spec = medf;
  dense.entry = Entry::kProxy;
  all.push_back(dense);

  Workload churn;
  churn.name = "churn_durable";
  churn.config = ReferenceInstance();
  churn.config.churn.enabled = true;
  churn.config.churn.ops_per_chronon = 8.0;
  churn.config.churn.zipf_theta = 0.5;
  churn.config.faults.timeout_rate = 0.03;
  churn.config.faults.server_error_rate = 0.02;
  churn.config.faults.truncation_rate = 0.01;
  churn.config.faults.corruption_rate = 0.01;
  churn.config.faults.etag_storm_rate = 0.01;
  churn.config.faults.outage_enter_rate = 0.001;
  churn.config.retry.max_retries = 2;
  churn.config.breaker.enabled = true;
  churn.config.parse_cache = true;
  churn.spec = medf;
  churn.entry = Entry::kDurable;
  churn.checkpoint_every = 100;
  all.push_back(churn);

  Workload adaptive;
  adaptive.name = "adaptive";
  adaptive.config = pullmon::BaselineConfig();
  adaptive.config.dataset = pullmon::DatasetKind::kFeedWorkload;
  adaptive.config.num_resources = 1000;
  adaptive.config.num_profiles = 2000;
  adaptive.config.epoch_length = 2000;
  adaptive.config.budget = 10;
  // At the generator's default skew of 1.37 a few heavy feeds carry most
  // t-intervals, and GC and memory then spread by 10-14% across seeds.
  adaptive.config.feed_workload.popularity_alpha = 0.5;
  adaptive.config.knowledge = pullmon::KnowledgeModel::kEstimated;
  // One thread: at four, run wall time swung threefold between runs on a
  // shared host whenever a vCPU was descheduled. The traced run measures
  // the multi-thread leg (core.mt_speedup).
  adaptive.config.executor_backend = pullmon::ExecutorBackend::kParallel;
  adaptive.config.threads = 1;
  adaptive.spec = medf;
  adaptive.entry = Entry::kAdaptive;
  all.push_back(adaptive);
  return all;
}

std::size_t BufferCapacity(const SimulationConfig& config) {
  return static_cast<std::size_t>(std::max(1, config.feed_buffer_capacity));
}

Result<std::unique_ptr<Setup>> RunSetup(const Workload& w, uint64_t seed) {
  auto setup = std::make_unique<Setup>();
  const auto start = Clock::now();
  PULLMON_ASSIGN_OR_RETURN(setup->problem,
                           pullmon::BuildProblem(w.config, seed,
                                                 &setup->trace));
  setup->network.emplace(&setup->trace, BufferCapacity(w.config));
  if (w.config.churn.enabled) {
    // Same seed mixing as the churn entry points.
    setup->churn = pullmon::GenerateChurnWorkload(
        w.config.churn, static_cast<int>(setup->problem.profiles.size()),
        setup->problem.epoch.length,
        w.config.churn.seed ^ (seed * 0x9E3779B97F4A7C15ULL));
  }
  setup->seconds = SecondsSince(start);
  return setup;
}

Result<ProxyRunReport> RunEntry(const Workload& w, uint64_t seed,
                                pullmon::StableStorage* storage) {
  if (w.entry != Entry::kDurable) {
    return pullmon::RunProxyOnce(w.config, w.spec, seed);
  }
  pullmon::MemoryStorage memory;
  pullmon::DurableOptions options;
  options.storage = storage != nullptr ? storage : &memory;
  options.checkpoint_every = w.checkpoint_every;
  return pullmon::RunDurableOnce(w.config, w.spec, seed, options);
}

Fingerprint FingerprintOf(const ProxyRunReport& r) {
  const pullmon::OnlineRunResult& run = r.run;
  return {
      {"gc_captured", run.completeness.captured_t_intervals},
      {"gc_total", run.completeness.total_t_intervals},
      {"probes_used", run.probes_used},
      {"scheduled_probes", run.schedule.TotalProbes()},
      {"t_intervals_completed", run.t_intervals_completed},
      {"t_intervals_failed", run.t_intervals_failed},
      {"t_intervals_lost_to_faults", run.t_intervals_lost_to_faults},
      {"candidates_scored", run.candidates_scored},
      {"max_concurrent_candidates", run.max_concurrent_candidates},
      {"probes_failed", r.probes_failed},
      {"retries_issued", r.retries_issued},
      {"retry_probes_spent", r.retry_probes_spent},
      {"feeds_fetched", r.feeds_fetched},
      {"not_modified", r.not_modified},
      {"feed_bytes", r.feed_bytes},
      {"items_parsed", r.items_parsed},
      {"parse_failures", r.parse_failures},
      {"notifications_delivered", r.notifications_delivered},
      {"timeouts", r.timeouts},
      {"server_errors", r.server_errors},
      {"corrupt_bodies", r.corrupt_bodies},
      {"etag_invalidations", r.etag_invalidations},
      {"outage_probes", r.outage_probes},
      {"circuits_opened", r.circuits_opened},
      {"circuits_reopened", r.circuits_reopened},
      {"probation_probes", r.probation_probes},
      {"probes_suppressed", r.probes_suppressed},
      {"budget_reclaimed", r.budget_reclaimed},
      {"open_chronons_total", r.open_chronons_total},
      {"parse_cache_hits", r.parse_cache_hits},
      {"parse_cache_misses", r.parse_cache_misses},
      {"parse_cache_invalidations", r.parse_cache_invalidations},
      {"parse_cache_bytes_saved", r.parse_cache_bytes_saved},
      {"churn_submitted", r.churn_submitted},
      {"churn_cancelled", r.churn_cancelled},
      {"churn_edited", r.churn_edited},
      {"churn_unregistered_profiles", r.churn_unregistered_profiles},
      {"churn_rejected_ops", r.churn_rejected_ops},
      {"orphaned_probes", r.orphaned_probes},
      {"estimation_probes_observed", r.estimation_probes_observed},
      {"estimation_update_events", r.estimation_update_events},
      {"estimation_not_modified", r.estimation_not_modified},
      {"estimation_duplicate_events", r.estimation_duplicate_events},
      {"estimation_periodic_resources", r.estimation_periodic_resources},
      {"estimation_forecast_refreshes", r.estimation_forecast_refreshes},
      {"estimation_predicted_t_intervals",
       r.estimation_predicted_t_intervals},
      {"estimation_predicted_eis", r.estimation_predicted_eis},
      {"estimation_explore_probes", r.estimation_explore_probes},
      {"recovery_snapshots_written", r.recovery_snapshots_written},
      {"recovery_wal_records_logged", r.recovery_wal_records_logged},
      {"shard_count", r.shard_count},
      {"shard_merge_entries", r.shard_merge_entries},
  };
}

std::string CompareFingerprints(const Fingerprint& a, const Fingerprint& b,
                                const std::string& skip_prefix) {
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    const std::string& name = a[i].first;
    if (!skip_prefix.empty() && name.rfind(skip_prefix, 0) == 0) continue;
    if (a[i].second != b[i].second) {
      return name + " " + std::to_string(a[i].second) + " vs " +
             std::to_string(b[i].second);
    }
  }
  return a.size() == b.size() ? "" : "fingerprint length";
}

double GcOf(const ProxyRunReport& report) {
  return report.run.completeness.GainedCompleteness();
}

void GateLog::Check(const std::string& what, const std::string& mismatch) {
  ++attempted;
  if (mismatch.empty()) return;
  ++failed;
  errors.push_back(what + ": " + mismatch);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace perfbench
