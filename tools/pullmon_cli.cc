// pullmon command-line tool: run monitoring experiments, sweep
// parameters, and generate datasets without writing C++.
//
//   pullmon_cli run --policy=mrsf --mode=p --profiles=500 --budget=2
//   pullmon_cli sweep --param=budget --values=1,2,3,4 --policy=mrsf
//   pullmon_cli gen-trace --dataset=auction --out=trace.csv
//   pullmon_cli gen-feeds --outdir=/tmp/feeds --resources=20
//   pullmon_cli policies

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <utility>

#include "core/overlap_analysis.h"
#include "feeds/ebay_feed.h"
#include "offline/local_ratio.h"
#include "policies/policy_factory.h"
#include "recovery/durable_runner.h"
#include "recovery/stable_storage.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "trace/trace_io.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace pullmon {
namespace {

void AddConfigFlags(FlagParser* flags) {
  flags->AddString("dataset", "poisson",
                   "poisson | auction | feeds");
  flags->AddInt64("resources", 400, "n: number of monitored resources");
  flags->AddInt64("chronons", 1000, "K: epoch length");
  flags->AddInt64("profiles", 500, "m: number of client profiles");
  flags->AddInt64("rank", 3, "k: maximal profile complexity");
  flags->AddDouble("lambda", 20.0, "updates per resource (poisson)");
  flags->AddDouble("alpha", 0.0, "inter-user resource popularity skew");
  flags->AddDouble("beta", 0.0, "intra-user simplicity preference");
  flags->AddBool("overwrite", false,
                 "use the overwrite restriction instead of window(W)");
  flags->AddInt64("window", 20, "W: staleness window in chronons");
  flags->AddInt64("budget", 1, "C: probes per chronon");
  flags->AddInt64("reps", 10, "experiment repetitions");
  flags->AddInt64("seed", 1234, "base random seed");
  // Fault-injection layer (proxy runs only; see --proxy under `run`).
  flags->AddDouble("fault-timeout", 0.0, "probe timeout probability");
  flags->AddDouble("fault-server-error", 0.0,
                   "transient server error probability");
  flags->AddDouble("fault-truncate", 0.0,
                   "truncated feed body probability");
  flags->AddDouble("fault-corrupt", 0.0,
                   "corrupted feed body probability");
  flags->AddDouble("fault-etag-storm", 0.0,
                   "ETag invalidation storm start probability");
  flags->AddDouble("fault-latency", 0.0,
                   "mean simulated response latency (chronons)");
  flags->AddInt64("fault-seed", 0x5EED, "fault layer random seed");
  flags->AddInt64("retries", 0,
                  "probe retries per failure (spend budget C)");
  flags->AddDouble("retry-backoff", 0.125,
                   "initial retry backoff (chronons, doubles per try)");
  flags->AddDouble("outage-enter", 0.0,
                   "per-chronon probability a resource goes dark "
                   "(Gilbert-Elliott outage chain)");
  flags->AddDouble("outage-exit", 0.25,
                   "per-chronon probability a dark resource recovers");
  flags->AddBool("breaker", false,
                 "enable the per-resource circuit breaker");
  flags->AddInt64("breaker-threshold", 3,
                  "consecutive probe failures that open a circuit");
  flags->AddInt64("breaker-cooldown", 4,
                  "initial open-circuit cool-down (chronons)");
  flags->AddDouble("breaker-multiplier", 2.0,
                   "cool-down growth per probation failure");
  flags->AddInt64("breaker-max-cooldown", 64,
                  "exponential cool-down cap (chronons)");
  flags->AddDouble("breaker-alpha", 0.2,
                   "EWMA smoothing of per-resource failure rates");
  flags->AddInt64("buffer-capacity", 8,
                  "feed server buffer size (proxy runs)");
  flags->AddBool("parse-cache", false,
                 "ETag/content-keyed parse cache on the proxy's probe "
                 "path (proxy runs)");
  flags->AddString("executor", "indexed",
                   "scheduling backend: indexed (incremental candidate "
                   "index) | reference (scan-based oracle) | parallel "
                   "(sharded multi-threaded scheduling)");
  flags->AddInt64("threads", 1,
                  "worker threads of the parallel backend's sharded "
                  "activation and scoring; probes run serially (results "
                  "are bit-identical at every thread count)");
  flags->AddBool("trace-store", false,
                 "generate and replay the trace through the paged "
                 "compressed trace store instead of in memory "
                 "(decision-identical; adds trace_* telemetry)");
  flags->AddInt64("trace-page-size", 256,
                  "target encoded payload bytes per trace page");
  flags->AddInt64("trace-cache-pages", 64,
                  "decoded pages the trace store's LRU cache keeps "
                  "resident");
  flags->AddString("knowledge", "oracle",
                   "update-knowledge model of `run --proxy`: oracle "
                   "(FPN(1) EIs from the full trace) | estimated "
                   "(closed-loop EIs predicted from the proxy's own "
                   "probe diffs)");
  flags->AddDouble("estimator-half-life", 32.0,
                   "half-life (chronons) of the estimator's decaying "
                   "per-resource rate tracker (--knowledge=estimated)");
  flags->AddDouble("explore-eps", 0.05,
                   "fraction of chronons that divert one budget unit "
                   "into an explore probe of the coldest resource "
                   "(--knowledge=estimated)");
  flags->AddInt64("forecast-horizon", 50,
                  "chronons between predicted-EI regenerations "
                  "(--knowledge=estimated)");
  // Profile churn (churn runs only; see --churn under `run`).
  flags->AddDouble("churn-rate", 0.0,
                   "mean churn operations per chronon");
  flags->AddDouble("churn-cancel", 0.60,
                   "fraction of churn ops that cancel a submission");
  flags->AddDouble("churn-edit", 0.35,
                   "fraction of churn ops that edit a submission");
  flags->AddDouble("churn-unregister", 0.05,
                   "fraction of churn ops that unregister a client");
  flags->AddDouble("churn-theta", 1.37,
                   "Zipf skew of per-client churn activity");
  flags->AddInt64("churn-seed", 0xC4A2, "churn stream random seed");
  // Durability layer (run only; see --checkpoint-dir under `run`).
  flags->AddString("checkpoint-dir", "",
                   "directory for proxy snapshots + write-ahead logs; "
                   "runs the durable monitoring service (src/recovery/)");
  flags->AddInt64("checkpoint-every", 0,
                  "snapshot every N chronon boundaries (0 = initial "
                  "snapshot plus WAL-size-triggered only)");
  flags->AddString("crash-at", "",
                   "<chronon>[:offset] — crash-injection harness: kill "
                   "the run at the first durable write at or after the "
                   "chronon, after `offset` further bytes");
  flags->AddBool("recover", false,
                 "resume from the newest valid checkpoint in "
                 "--checkpoint-dir instead of starting fresh");
}

Status ApplyCrashAtFlag(const std::string& value,
                        SimulationConfig* config) {
  if (value.empty()) return Status::OK();
  std::vector<std::string> parts = Split(value, ':');
  if (parts.empty() || parts.size() > 2) {
    return Status::InvalidArgument(
        "--crash-at expects <chronon>[:offset]");
  }
  PULLMON_ASSIGN_OR_RETURN(std::int64_t chronon, ParseInt64(parts[0]));
  if (chronon < 0) {
    return Status::InvalidArgument("--crash-at chronon must be >= 0");
  }
  config->crash_at_chronon = static_cast<Chronon>(chronon);
  if (parts.size() == 2) {
    PULLMON_ASSIGN_OR_RETURN(std::int64_t offset, ParseInt64(parts[1]));
    if (offset < 0) {
      return Status::InvalidArgument("--crash-at offset must be >= 0");
    }
    config->crash_at_offset = static_cast<std::size_t>(offset);
  }
  return Status::OK();
}

Result<KnowledgeModel> KnowledgeFromFlags(const FlagParser& flags) {
  std::string name = ToLower(flags.GetString("knowledge"));
  if (name == "oracle") return KnowledgeModel::kOracle;
  if (name == "estimated") return KnowledgeModel::kEstimated;
  return Status::InvalidArgument(
      "unknown --knowledge model '" + name +
      "' (expected: oracle | estimated)");
}

Result<ExecutorBackend> BackendFromFlags(const FlagParser& flags) {
  std::string name = ToLower(flags.GetString("executor"));
  if (name == "indexed") return ExecutorBackend::kIndexed;
  if (name == "reference") return ExecutorBackend::kReference;
  if (name == "parallel") return ExecutorBackend::kParallel;
  return Status::InvalidArgument(
      "unknown --executor backend '" + name +
      "' (expected: indexed | reference | parallel)");
}

Result<DatasetKind> DatasetFromFlags(const FlagParser& flags) {
  std::string name = ToLower(flags.GetString("dataset"));
  if (name == "poisson") return DatasetKind::kPoisson;
  if (name == "auction") return DatasetKind::kAuction;
  if (name == "feeds" || name == "feed-workload") {
    return DatasetKind::kFeedWorkload;
  }
  return Status::InvalidArgument(
      "unknown --dataset '" + name + "' (expected: poisson | auction | "
      "feeds)");
}

/// The 64-bit integer flag `name` as an int, or InvalidArgument naming
/// the flag when the value does not fit (a bare narrowing cast would run
/// --buffer-capacity=4294967297 as 1).
Result<int> IntFlag(const FlagParser& flags, const std::string& name) {
  const int64_t value = flags.GetInt64(name);
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument(StringFormat(
        "--%s=%lld is out of range (must fit in 32 bits)", name.c_str(),
        static_cast<long long>(value)));
  }
  return static_cast<int>(value);
}

/// The run configuration the flags describe. Unknown dataset, executor
/// and knowledge names, and integer values that overflow their field,
/// are rejected here, for every command.
Result<SimulationConfig> ConfigFromFlags(const FlagParser& flags) {
  SimulationConfig config = BaselineConfig();
  PULLMON_ASSIGN_OR_RETURN(config.dataset, DatasetFromFlags(flags));
  PULLMON_ASSIGN_OR_RETURN(config.num_resources, IntFlag(flags, "resources"));
  PULLMON_ASSIGN_OR_RETURN(config.epoch_length, IntFlag(flags, "chronons"));
  PULLMON_ASSIGN_OR_RETURN(config.num_profiles, IntFlag(flags, "profiles"));
  PULLMON_ASSIGN_OR_RETURN(config.max_rank, IntFlag(flags, "rank"));
  config.lambda = flags.GetDouble("lambda");
  config.alpha = flags.GetDouble("alpha");
  config.beta = flags.GetDouble("beta");
  config.restriction = flags.GetBool("overwrite")
                           ? LengthRestriction::kOverwrite
                           : LengthRestriction::kWindow;
  PULLMON_ASSIGN_OR_RETURN(config.window, IntFlag(flags, "window"));
  PULLMON_ASSIGN_OR_RETURN(config.budget, IntFlag(flags, "budget"));
  config.faults.timeout_rate = flags.GetDouble("fault-timeout");
  config.faults.server_error_rate = flags.GetDouble("fault-server-error");
  config.faults.truncation_rate = flags.GetDouble("fault-truncate");
  config.faults.corruption_rate = flags.GetDouble("fault-corrupt");
  config.faults.etag_storm_rate = flags.GetDouble("fault-etag-storm");
  config.faults.latency_mean = flags.GetDouble("fault-latency");
  config.faults.outage_enter_rate = flags.GetDouble("outage-enter");
  config.faults.outage_exit_rate = flags.GetDouble("outage-exit");
  config.fault_seed = static_cast<uint64_t>(flags.GetInt64("fault-seed"));
  PULLMON_ASSIGN_OR_RETURN(config.retry.max_retries, IntFlag(flags, "retries"));
  config.retry.backoff_base = flags.GetDouble("retry-backoff");
  config.breaker.enabled = flags.GetBool("breaker");
  PULLMON_ASSIGN_OR_RETURN(config.breaker.failure_threshold,
                           IntFlag(flags, "breaker-threshold"));
  PULLMON_ASSIGN_OR_RETURN(config.breaker.cooldown_base,
                           IntFlag(flags, "breaker-cooldown"));
  config.breaker.cooldown_multiplier = flags.GetDouble("breaker-multiplier");
  PULLMON_ASSIGN_OR_RETURN(config.breaker.max_cooldown,
                           IntFlag(flags, "breaker-max-cooldown"));
  config.breaker.ewma_alpha = flags.GetDouble("breaker-alpha");
  PULLMON_ASSIGN_OR_RETURN(config.feed_buffer_capacity,
                           IntFlag(flags, "buffer-capacity"));
  config.parse_cache = flags.GetBool("parse-cache");
  config.trace_backend = flags.GetBool("trace-store")
                             ? TraceBackend::kPaged
                             : TraceBackend::kInMemory;
  // Clamp negatives to 0 before widening to size_t so -1 lands in
  // TraceStoreOptions::Validate's rejection range instead of SIZE_MAX.
  config.trace_store.page_size = static_cast<std::size_t>(
      std::max<std::int64_t>(0, flags.GetInt64("trace-page-size")));
  config.trace_store.cache_pages = static_cast<std::size_t>(
      std::max<std::int64_t>(0, flags.GetInt64("trace-cache-pages")));
  config.churn.ops_per_chronon = flags.GetDouble("churn-rate");
  config.churn.cancel_fraction = flags.GetDouble("churn-cancel");
  config.churn.edit_fraction = flags.GetDouble("churn-edit");
  config.churn.unregister_fraction = flags.GetDouble("churn-unregister");
  config.churn.zipf_theta = flags.GetDouble("churn-theta");
  config.churn.seed = static_cast<uint64_t>(flags.GetInt64("churn-seed"));
  config.checkpoint_dir = flags.GetString("checkpoint-dir");
  PULLMON_ASSIGN_OR_RETURN(config.checkpoint_every,
                           IntFlag(flags, "checkpoint-every"));
  config.recover = flags.GetBool("recover");
  // --crash-at needs parse-error reporting, so CommandRun applies it
  // separately via ApplyCrashAtFlag before validating.
  PULLMON_ASSIGN_OR_RETURN(config.executor_backend, BackendFromFlags(flags));
  PULLMON_ASSIGN_OR_RETURN(config.threads, IntFlag(flags, "threads"));
  PULLMON_ASSIGN_OR_RETURN(config.knowledge, KnowledgeFromFlags(flags));
  config.estimator_half_life = flags.GetDouble("estimator-half-life");
  config.explore_eps = flags.GetDouble("explore-eps");
  PULLMON_ASSIGN_OR_RETURN(config.forecast_horizon,
                           IntFlag(flags, "forecast-horizon"));
  return config;
}

Result<std::vector<PolicySpec>> SpecsFromFlags(const FlagParser& flags) {
  std::vector<PolicySpec> specs;
  for (const std::string& name : Split(flags.GetString("policy"), ',')) {
    if (Trim(name).empty()) continue;
    // Validate early for a friendly error.
    PolicyOptions po;
    po.num_resources = 1;
    PULLMON_ASSIGN_OR_RETURN(auto policy,
                             MakePolicy(std::string(Trim(name)), po));
    (void)policy;
    PolicySpec spec;
    spec.policy = std::string(Trim(name));
    std::string mode = ToLower(flags.GetString("mode"));
    if (mode == "p") {
      spec.mode = ExecutionMode::kPreemptive;
      specs.push_back(spec);
    } else if (mode == "np") {
      spec.mode = ExecutionMode::kNonPreemptive;
      specs.push_back(spec);
    } else if (mode == "both") {
      spec.mode = ExecutionMode::kNonPreemptive;
      specs.push_back(spec);
      spec.mode = ExecutionMode::kPreemptive;
      specs.push_back(spec);
    } else {
      return Status::InvalidArgument("--mode must be p, np or both");
    }
  }
  if (specs.empty()) {
    return Status::InvalidArgument("no policies given (--policy=...)");
  }
  return specs;
}

Status PrintOutcomes(const ComparisonResult& result,
                     const std::string& csv_path) {
  TablePrinter table({"policy", "GC", "GC ci95", "runtime(ms)", "probes"});
  for (const auto& outcome : result.policies) {
    table.AddRow({outcome.spec.Label(),
                  TablePrinter::FormatDouble(outcome.gc.mean(), 4),
                  TablePrinter::FormatDouble(outcome.gc.ci95_halfwidth(), 4),
                  TablePrinter::FormatDouble(
                      outcome.runtime_seconds.mean() * 1e3, 2),
                  TablePrinter::FormatDouble(outcome.probes_used.mean(),
                                             0)});
  }
  if (result.offline.has_value()) {
    table.AddRow({"offline-LR",
                  TablePrinter::FormatDouble(result.offline->gc.mean(), 4),
                  TablePrinter::FormatDouble(
                      result.offline->gc.ci95_halfwidth(), 4),
                  TablePrinter::FormatDouble(
                      result.offline->runtime_seconds.mean() * 1e3, 2),
                  ""});
  }
  table.Print(std::cout);
  std::cout << "Instances: " << result.t_intervals.mean()
            << " t-intervals / " << result.eis.mean()
            << " EIs on average\n";

  if (!csv_path.empty()) {
    PULLMON_ASSIGN_OR_RETURN(CsvWriter writer, CsvWriter::Open(csv_path));
    writer.WriteRow({"policy", "gc_mean", "gc_ci95", "runtime_ms",
                     "probes"});
    for (const auto& outcome : result.policies) {
      writer.WriteRow(
          {outcome.spec.Label(),
           TablePrinter::FormatDouble(outcome.gc.mean(), 6),
           TablePrinter::FormatDouble(outcome.gc.ci95_halfwidth(), 6),
           TablePrinter::FormatDouble(
               outcome.runtime_seconds.mean() * 1e3, 4),
           TablePrinter::FormatDouble(outcome.probes_used.mean(), 1)});
    }
    writer.Flush();
    std::cout << "Wrote " << csv_path << "\n";
  }
  return Status::OK();
}

/// The physical (proxy) run path: full pull-parse-push over simulated
/// feed servers, with the fault layer and retry budget active. One row
/// per policy, aggregated over repetitions.
int RunProxyExperiment(const SimulationConfig& config,
                       const std::vector<PolicySpec>& specs, int reps,
                       uint64_t base_seed, const std::string& csv_path) {
  TablePrinter table({"policy", "GC", "GC lost to faults", "probes",
                      "failed", "retries", "corrupt", "opened",
                      "suppressed", "cache hits", "notifications"});
  std::vector<std::vector<std::string>> csv_rows;
  RunningStats trace_pages, trace_bytes, trace_in_memory, trace_hits,
      trace_misses;
  for (const PolicySpec& spec : specs) {
    RunningStats gc, gc_lost, probes, failed, retries, corrupt, delivered;
    RunningStats opened, suppressed, cache_hits;
    for (int rep = 0; rep < reps; ++rep) {
      uint64_t seed = base_seed + static_cast<uint64_t>(rep) * 7919;
      auto report = RunProxyOnce(config, spec, seed);
      if (!report.ok()) {
        std::cerr << "proxy run failed: " << report.status().ToString()
                  << "\n";
        return 1;
      }
      gc.Add(report->run.completeness.GainedCompleteness());
      gc_lost.Add(report->gc_lost_to_faults);
      probes.Add(static_cast<double>(report->run.probes_used));
      failed.Add(static_cast<double>(report->probes_failed));
      retries.Add(static_cast<double>(report->retries_issued));
      corrupt.Add(static_cast<double>(report->corrupt_bodies));
      opened.Add(static_cast<double>(report->circuits_opened));
      suppressed.Add(static_cast<double>(report->probes_suppressed));
      cache_hits.Add(static_cast<double>(report->parse_cache_hits));
      delivered.Add(
          static_cast<double>(report->notifications_delivered));
      if (config.trace_backend == TraceBackend::kPaged) {
        trace_pages.Add(static_cast<double>(report->trace_pages_written));
        trace_bytes.Add(static_cast<double>(report->trace_bytes_stored));
        trace_in_memory.Add(
            static_cast<double>(report->trace_in_memory_bytes));
        trace_hits.Add(static_cast<double>(report->trace_cache_hits));
        trace_misses.Add(
            static_cast<double>(report->trace_cache_misses));
      }
    }
    table.AddRow({spec.Label(), TablePrinter::FormatDouble(gc.mean(), 4),
                  TablePrinter::FormatDouble(gc_lost.mean(), 4),
                  TablePrinter::FormatDouble(probes.mean(), 0),
                  TablePrinter::FormatDouble(failed.mean(), 1),
                  TablePrinter::FormatDouble(retries.mean(), 1),
                  TablePrinter::FormatDouble(corrupt.mean(), 1),
                  TablePrinter::FormatDouble(opened.mean(), 1),
                  TablePrinter::FormatDouble(suppressed.mean(), 1),
                  TablePrinter::FormatDouble(cache_hits.mean(), 1),
                  TablePrinter::FormatDouble(delivered.mean(), 0)});
    csv_rows.push_back(
        {spec.Label(), TablePrinter::FormatDouble(gc.mean(), 6),
         TablePrinter::FormatDouble(gc_lost.mean(), 6),
         TablePrinter::FormatDouble(probes.mean(), 1),
         TablePrinter::FormatDouble(failed.mean(), 1),
         TablePrinter::FormatDouble(retries.mean(), 1),
         TablePrinter::FormatDouble(corrupt.mean(), 1),
         TablePrinter::FormatDouble(opened.mean(), 1),
         TablePrinter::FormatDouble(suppressed.mean(), 1),
         TablePrinter::FormatDouble(cache_hits.mean(), 1),
         TablePrinter::FormatDouble(delivered.mean(), 1)});
  }
  table.Print(std::cout);
  if (config.trace_backend == TraceBackend::kPaged) {
    double lookups = trace_hits.mean() + trace_misses.mean();
    std::cout << "Trace store: " << trace_pages.mean() << " pages, "
              << trace_bytes.mean() << " B stored vs "
              << trace_in_memory.mean() << " B in-memory ("
              << TablePrinter::FormatDouble(
                     trace_bytes.mean() > 0.0
                         ? trace_in_memory.mean() / trace_bytes.mean()
                         : 0.0,
                     2)
              << "x), cache hit rate "
              << TablePrinter::FormatDouble(
                     lookups > 0.0 ? trace_hits.mean() / lookups : 0.0, 3)
              << "\n";
  }
  if (!csv_path.empty()) {
    auto writer = CsvWriter::Open(csv_path);
    if (!writer.ok()) {
      std::cerr << writer.status().ToString() << "\n";
      return 1;
    }
    writer->WriteRow({"policy", "gc_mean", "gc_lost_to_faults", "probes",
                      "probes_failed", "retries", "corrupt_bodies",
                      "circuits_opened", "probes_suppressed",
                      "parse_cache_hits", "notifications"});
    for (const auto& row : csv_rows) writer->WriteRow(row);
    writer->Flush();
    std::cout << "Wrote " << csv_path << "\n";
  }
  return 0;
}

/// The churn run path: DynamicMonitor with mid-epoch submissions plus
/// the generated cancel/edit/unregister stream, pulled through the same
/// feed substrate as --proxy. One row per policy.
int RunChurnExperiment(const SimulationConfig& config,
                       const std::vector<PolicySpec>& specs, int reps,
                       uint64_t base_seed, const std::string& csv_path) {
  TablePrinter table({"policy", "GC", "probes", "submitted", "cancelled",
                      "edited", "unregistered", "rejected", "orphaned",
                      "notifications"});
  std::vector<std::vector<std::string>> csv_rows;
  for (const PolicySpec& spec : specs) {
    RunningStats gc, probes, submitted, cancelled, edited, unregistered;
    RunningStats rejected, orphaned, delivered;
    for (int rep = 0; rep < reps; ++rep) {
      uint64_t seed = base_seed + static_cast<uint64_t>(rep) * 7919;
      auto report = RunChurnOnce(config, spec, seed);
      if (!report.ok()) {
        std::cerr << "churn run failed: " << report.status().ToString()
                  << "\n";
        return 1;
      }
      gc.Add(report->run.completeness.GainedCompleteness());
      probes.Add(static_cast<double>(report->run.probes_used));
      submitted.Add(static_cast<double>(report->churn_submitted));
      cancelled.Add(static_cast<double>(report->churn_cancelled));
      edited.Add(static_cast<double>(report->churn_edited));
      unregistered.Add(
          static_cast<double>(report->churn_unregistered_profiles));
      rejected.Add(static_cast<double>(report->churn_rejected_ops));
      orphaned.Add(static_cast<double>(report->orphaned_probes));
      delivered.Add(
          static_cast<double>(report->notifications_delivered));
    }
    table.AddRow({spec.Label(), TablePrinter::FormatDouble(gc.mean(), 4),
                  TablePrinter::FormatDouble(probes.mean(), 0),
                  TablePrinter::FormatDouble(submitted.mean(), 0),
                  TablePrinter::FormatDouble(cancelled.mean(), 1),
                  TablePrinter::FormatDouble(edited.mean(), 1),
                  TablePrinter::FormatDouble(unregistered.mean(), 1),
                  TablePrinter::FormatDouble(rejected.mean(), 1),
                  TablePrinter::FormatDouble(orphaned.mean(), 1),
                  TablePrinter::FormatDouble(delivered.mean(), 0)});
    csv_rows.push_back(
        {spec.Label(), TablePrinter::FormatDouble(gc.mean(), 6),
         TablePrinter::FormatDouble(probes.mean(), 1),
         TablePrinter::FormatDouble(submitted.mean(), 1),
         TablePrinter::FormatDouble(cancelled.mean(), 1),
         TablePrinter::FormatDouble(edited.mean(), 1),
         TablePrinter::FormatDouble(unregistered.mean(), 1),
         TablePrinter::FormatDouble(rejected.mean(), 1),
         TablePrinter::FormatDouble(orphaned.mean(), 1),
         TablePrinter::FormatDouble(delivered.mean(), 1)});
  }
  table.Print(std::cout);
  if (!csv_path.empty()) {
    auto writer = CsvWriter::Open(csv_path);
    if (!writer.ok()) {
      std::cerr << writer.status().ToString() << "\n";
      return 1;
    }
    writer->WriteRow({"policy", "gc_mean", "probes", "churn_submitted",
                      "churn_cancelled", "churn_edited",
                      "churn_unregistered", "churn_rejected",
                      "orphaned_probes", "notifications"});
    for (const auto& row : csv_rows) writer->WriteRow(row);
    writer->Flush();
    std::cout << "Wrote " << csv_path << "\n";
  }
  return 0;
}

/// The durable run path (--checkpoint-dir): one monitoring-service run
/// through RunDurableOnce with snapshots + WAL in a DirectoryStorage,
/// optionally crash-injected (--crash-at) or resumed (--recover).
int RunDurableExperiment(const SimulationConfig& config,
                         const std::vector<PolicySpec>& specs,
                         uint64_t seed) {
  if (specs.size() != 1) {
    std::cerr << "durable runs (--checkpoint-dir) take exactly one "
                 "--policy / --mode combination\n";
    return 2;
  }
  DirectoryStorage storage(config.checkpoint_dir);
  if (Status st = storage.Prepare(); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  DurableOptions options;
  options.storage = &storage;
  options.checkpoint_every = config.checkpoint_every;
  options.recover = config.recover;
  options.crash.chronon = config.crash_at_chronon;
  options.crash.write_offset = config.crash_at_offset;
  auto report = RunDurableOnce(config, specs[0], seed, options);
  if (!report.ok()) {
    if (report.status().code() == StatusCode::kAborted) {
      std::cout << "crash injected at chronon " << config.crash_at_chronon
                << " (+" << config.crash_at_offset
                << " B of durable writes); checkpoint state left in "
                << config.checkpoint_dir
                << "\nrerun with --recover to resume the epoch\n";
      return 3;
    }
    std::cerr << "durable run failed: " << report.status().ToString()
              << "\n";
    return 1;
  }
  if (config.recover) {
    std::cout << "recovered: " << report->recovery_snapshots_loaded
              << " snapshot loaded, " << report->recovery_snapshots_rejected
              << " rejected, " << report->recovery_wal_records_replayed
              << " WAL records replayed, "
              << report->recovery_torn_tail_truncated
              << " torn-tail bytes truncated\n";
  }
  TablePrinter table({"policy", "GC", "probes", "notifications",
                      "snapshots", "wal records"});
  table.AddRow(
      {specs[0].Label(),
       TablePrinter::FormatDouble(
           report->run.completeness.GainedCompleteness(), 4),
       StringFormat("%zu", report->run.probes_used),
       StringFormat("%zu", report->notifications_delivered),
       StringFormat("%zu", report->recovery_snapshots_written),
       StringFormat("%zu", report->recovery_wal_records_logged)});
  table.Print(std::cout);
  std::cout << "Durable state in " << config.checkpoint_dir
            << " (single repetition, seed " << seed << ")\n";
  return 0;
}

int CommandRun(const std::vector<std::string>& args) {
  FlagParser flags("pullmon_cli run",
                   "run one monitoring experiment and print/emit results");
  AddConfigFlags(&flags);
  flags.AddString("policy", "s-edf,m-edf,mrsf", "comma-separated policies");
  flags.AddString("mode", "p", "execution mode: p | np | both");
  flags.AddBool("offline", false, "also run the offline Local-Ratio");
  flags.AddBool("proxy", false,
                "run the physical proxy path (feed servers, parsing, "
                "fault layer) instead of the logical executor");
  flags.AddBool("churn", false,
                "run the churn-capable monitoring service "
                "(DynamicMonitor with mid-epoch submit/cancel/edit/"
                "unregister per the --churn-* knobs)");
  flags.AddString("csv", "", "write results to this CSV file");
  Status st = flags.Parse(args);
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.Usage();
    return 0;
  }

  auto specs = SpecsFromFlags(flags);
  if (!specs.ok()) {
    std::cerr << specs.status().ToString() << "\n";
    return 2;
  }
  auto parsed = ConfigFromFlags(flags);
  if (!parsed.ok()) {
    std::cerr << parsed.status().ToString() << "\n";
    return 2;
  }
  auto reps = IntFlag(flags, "reps");
  if (!reps.ok()) {
    std::cerr << reps.status().ToString() << "\n";
    return 2;
  }
  SimulationConfig config = std::move(*parsed);
  config.churn.enabled = flags.GetBool("churn");
  if (Status st = ApplyCrashAtFlag(flags.GetString("crash-at"), &config);
      !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 2;
  }
  // Reject out-of-range --fault-*/--outage-*/--breaker-*/--churn-*
  // values (and checkpoint/crash flag combinations) up front with the
  // InvalidArgument the option structs produce, instead of failing (or
  // silently misbehaving) mid-run.
  if (Status valid = config.Validate(); !valid.ok()) {
    std::cerr << valid.ToString() << "\n";
    return 2;
  }
  if (config.churn.enabled && flags.GetBool("proxy")) {
    std::cerr << "--churn and --proxy are mutually exclusive run paths\n";
    return 2;
  }
  if (!config.checkpoint_dir.empty()) {
    if (flags.GetBool("proxy")) {
      std::cerr << "--checkpoint-dir runs the durable monitoring "
                   "service (the churn-capable run path); it is "
                   "incompatible with --proxy\n";
      return 2;
    }
    return RunDurableExperiment(
        config, *specs, static_cast<uint64_t>(flags.GetInt64("seed")));
  }
  if (config.churn.enabled) {
    return RunChurnExperiment(config, *specs, *reps,
                              static_cast<uint64_t>(flags.GetInt64("seed")),
                              flags.GetString("csv"));
  }
  if (config.churn.ops_per_chronon > 0.0) {
    std::cerr << "--churn-* flags only affect --churn runs\n";
    return 2;
  }
  if (flags.GetBool("proxy")) {
    return RunProxyExperiment(config, *specs, *reps,
                              static_cast<uint64_t>(flags.GetInt64("seed")),
                              flags.GetString("csv"));
  }
  if (!config.faults.AllZero() || config.retry.max_retries > 0) {
    std::cerr << "fault/retry flags only affect --proxy runs; the "
                 "logical executor assumes a reliable network\n";
    return 2;
  }
  if (config.parse_cache) {
    std::cerr << "--parse-cache only affects --proxy runs; the logical "
                 "executor never parses feed bodies\n";
    return 2;
  }
  if (config.trace_backend != TraceBackend::kInMemory) {
    std::cerr << "--trace-store only affects --proxy runs; the logical "
                 "executor replays the in-memory trace directly\n";
    return 2;
  }
  if (config.knowledge != KnowledgeModel::kOracle) {
    std::cerr << "--knowledge=estimated only affects --proxy runs; the "
                 "logical executor consumes oracle EIs by "
                 "construction\n";
    return 2;
  }
  ExperimentRunner runner(*reps,
                          static_cast<uint64_t>(flags.GetInt64("seed")));
  // The CLI exposes the strong Local-Ratio variant: probe-sharing-aware
  // conflicts plus greedy augmentation. The faithful [2] reduction (used
  // by the Figure 4/5 harnesses) is only a sensible baseline on P^[1]
  // instances; on wide-window instances it is hopelessly conservative.
  LocalRatioOptions offline_options;
  offline_options.sharing_aware_conflicts = true;
  offline_options.greedy_augmentation = true;
  auto result = runner.Run(config, *specs, flags.GetBool("offline"),
                           offline_options);
  if (!result.ok()) {
    std::cerr << "experiment failed: " << result.status().ToString()
              << "\n";
    return 1;
  }
  st = PrintOutcomes(*result, flags.GetString("csv"));
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  return 0;
}

int CommandSweep(const std::vector<std::string>& args) {
  FlagParser flags("pullmon_cli sweep",
                   "run an experiment per value of one swept parameter");
  AddConfigFlags(&flags);
  flags.AddString("policy", "s-edf,mrsf", "comma-separated policies");
  flags.AddString("mode", "p", "execution mode: p | np | both");
  flags.AddString("param", "budget",
                  "one of: budget, profiles, lambda, rank, alpha, beta, "
                  "window");
  flags.AddString("values", "1,2,3", "comma-separated sweep values");
  flags.AddString("csv", "", "write the sweep as CSV to this file");
  flags.AddBool("markdown", false, "also print a Markdown table");
  Status st = flags.Parse(args);
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.Usage();
    return 0;
  }
  auto specs = SpecsFromFlags(flags);
  if (!specs.ok()) {
    std::cerr << specs.status().ToString() << "\n";
    return 2;
  }
  auto parsed = ConfigFromFlags(flags);
  if (!parsed.ok()) {
    std::cerr << parsed.status().ToString() << "\n";
    return 2;
  }
  auto reps = IntFlag(flags, "reps");
  if (!reps.ok()) {
    std::cerr << reps.status().ToString() << "\n";
    return 2;
  }
  const SimulationConfig base = std::move(*parsed);
  if (Status valid = base.Validate(); !valid.ok()) {
    std::cerr << valid.ToString() << "\n";
    return 2;
  }
  if (!base.faults.AllZero() || base.retry.max_retries > 0) {
    std::cerr << "fault/retry flags only affect `run --proxy`; sweeps "
                 "use the logical executor\n";
    return 2;
  }
  if (flags.GetBool("parse-cache")) {
    std::cerr << "--parse-cache only affects `run --proxy`; sweeps use "
                 "the logical executor\n";
    return 2;
  }
  if (flags.GetBool("trace-store")) {
    std::cerr << "--trace-store only affects `run --proxy`; sweeps use "
                 "the logical executor\n";
    return 2;
  }
  if (base.knowledge != KnowledgeModel::kOracle) {
    std::cerr << "--knowledge only affects `run --proxy`; sweeps use "
                 "the logical executor\n";
    return 2;
  }
  if (!flags.GetString("checkpoint-dir").empty() ||
      flags.GetInt64("checkpoint-every") != 0 ||
      !flags.GetString("crash-at").empty() || flags.GetBool("recover")) {
    std::cerr << "--checkpoint-dir/--checkpoint-every/--crash-at/"
                 "--recover only affect `run`; sweeps are volatile\n";
    return 2;
  }
  if (flags.GetDouble("churn-rate") > 0.0) {
    std::cerr << "--churn-* flags only affect `run --churn`; sweeps use "
                 "the logical executor\n";
    return 2;
  }
  std::string param = ToLower(flags.GetString("param"));
  SweepReport report(param);

  for (const std::string& raw : Split(flags.GetString("values"), ',')) {
    std::string value(Trim(raw));
    if (value.empty()) continue;
    SimulationConfig config = base;
    auto as_double = ParseDouble(value);
    if (!as_double.ok()) {
      std::cerr << "bad sweep value: " << value << "\n";
      return 2;
    }
    double v = *as_double;
    if (param == "budget") {
      config.budget = static_cast<int>(v);
    } else if (param == "profiles") {
      config.num_profiles = static_cast<int>(v);
    } else if (param == "lambda") {
      config.lambda = v;
    } else if (param == "rank") {
      config.max_rank = static_cast<int>(v);
    } else if (param == "alpha") {
      config.alpha = v;
    } else if (param == "beta") {
      config.beta = v;
    } else if (param == "window") {
      config.window = static_cast<Chronon>(v);
    } else {
      std::cerr << "unknown sweep parameter: " << param << "\n";
      return 2;
    }
    ExperimentRunner runner(*reps,
                            static_cast<uint64_t>(flags.GetInt64("seed")));
    auto result = runner.Run(config, *specs);
    if (!result.ok()) {
      std::cerr << "experiment failed: " << result.status().ToString()
                << "\n";
      return 1;
    }
    Status add = report.Add(value, *result);
    if (!add.ok()) {
      std::cerr << add.ToString() << "\n";
      return 1;
    }
  }
  std::cout << report.ToTable();
  if (flags.GetBool("markdown")) {
    std::cout << "\n" << report.ToMarkdown();
  }
  if (!flags.GetString("csv").empty()) {
    Status wrote = report.WriteCsvFile(flags.GetString("csv"));
    if (!wrote.ok()) {
      std::cerr << wrote.ToString() << "\n";
      return 1;
    }
    std::cout << "Wrote " << flags.GetString("csv") << "\n";
  }
  return 0;
}

int CommandGenTrace(const std::vector<std::string>& args) {
  FlagParser flags("pullmon_cli gen-trace",
                   "generate an update trace and write it as CSV");
  AddConfigFlags(&flags);
  flags.AddString("out", "trace.csv", "output path");
  Status st = flags.Parse(args);
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.Usage();
    return 0;
  }
  auto parsed = ConfigFromFlags(flags);
  if (!parsed.ok()) {
    std::cerr << parsed.status().ToString() << "\n";
    return 2;
  }
  SimulationConfig config = std::move(*parsed);
  Rng rng(static_cast<uint64_t>(flags.GetInt64("seed")));
  if (config.dataset == DatasetKind::kAuction) {
    // An auction trace is written with its listings, not only its
    // update events.
    auto trace = GenerateAuctionTrace(AuctionOptionsFor(config), &rng);
    if (!trace.ok()) {
      std::cerr << trace.status().ToString() << "\n";
      return 1;
    }
    st = WriteAuctionTraceFile(*trace, flags.GetString("out"));
  } else {
    auto trace = GenerateUpdateTrace(config, &rng);
    if (!trace.ok()) {
      std::cerr << trace.status().ToString() << "\n";
      return 1;
    }
    st = WriteUpdateTraceFile(*trace, flags.GetString("out"));
  }
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  std::cout << "Wrote " << flags.GetString("out") << "\n";
  return 0;
}

int CommandGenFeeds(const std::vector<std::string>& args) {
  FlagParser flags("pullmon_cli gen-feeds",
                   "simulate auctions and write one RSS file per listing");
  AddConfigFlags(&flags);
  flags.AddString("outdir", "feeds", "output directory");
  flags.AddBool("atom", false, "write Atom 1.0 instead of RSS 2.0");
  Status st = flags.Parse(args);
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.Usage();
    return 0;
  }
  auto parsed = ConfigFromFlags(flags);
  if (!parsed.ok()) {
    std::cerr << parsed.status().ToString() << "\n";
    return 2;
  }
  SimulationConfig config = std::move(*parsed);
  if (flags.WasSet("dataset") && config.dataset != DatasetKind::kAuction) {
    std::cerr << "gen-feeds writes auction listings; --dataset="
              << flags.GetString("dataset") << " is not supported\n";
    return 2;
  }
  Rng rng(static_cast<uint64_t>(flags.GetInt64("seed")));
  auto trace = GenerateAuctionTrace(AuctionOptionsFor(config), &rng);
  if (!trace.ok()) {
    std::cerr << trace.status().ToString() << "\n";
    return 1;
  }
  FeedFormat format =
      flags.GetBool("atom") ? FeedFormat::kAtom1 : FeedFormat::kRss2;
  std::vector<std::string> feeds = AuctionTraceToFeeds(*trace, format);
  std::filesystem::path dir(flags.GetString("outdir"));
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::cerr << "cannot create " << dir << ": " << ec.message() << "\n";
    return 1;
  }
  const char* extension = flags.GetBool("atom") ? ".atom" : ".rss";
  for (std::size_t i = 0; i < feeds.size(); ++i) {
    std::filesystem::path path =
        dir / ("auction-" + std::to_string(i) + extension);
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write " << path << "\n";
      return 1;
    }
    out << feeds[i];
  }
  std::cout << "Wrote " << feeds.size() << " feed documents to " << dir
            << "\n";
  return 0;
}

int CommandAnalyze(const std::vector<std::string>& args) {
  FlagParser flags("pullmon_cli analyze",
                   "generate an instance and report its overlap/sharing "
                   "structure");
  AddConfigFlags(&flags);
  Status st = flags.Parse(args);
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.Usage();
    return 0;
  }
  auto parsed = ConfigFromFlags(flags);
  if (!parsed.ok()) {
    std::cerr << parsed.status().ToString() << "\n";
    return 2;
  }
  SimulationConfig config = std::move(*parsed);
  auto problem =
      BuildProblem(config, static_cast<uint64_t>(flags.GetInt64("seed")));
  if (!problem.ok()) {
    std::cerr << problem.status().ToString() << "\n";
    return 1;
  }
  OverlapReport report = AnalyzeOverlap(
      problem->profiles, problem->num_resources, problem->epoch.length);
  TablePrinter table({"metric", "value"});
  table.AddRow({"profiles",
                StringFormat("%zu", problem->profiles.size())});
  table.AddRow({"t-intervals",
                StringFormat("%zu", problem->TotalTIntervalCount())});
  table.AddRow({"execution intervals",
                StringFormat("%zu", report.total_eis)});
  table.AddRow({"resources touched",
                StringFormat("%zu", report.resources_touched)});
  table.AddRow({"intra-resource overlapping pairs",
                StringFormat("%zu",
                             report.intra_resource_overlapping_pairs)});
  table.AddRow({"min probes (no budget)",
                StringFormat("%zu", report.min_probes_ignoring_budget)});
  table.AddRow({"sharing potential",
                TablePrinter::FormatDouble(report.sharing_potential, 3)});
  table.AddRow({"peak concurrent resources",
                StringFormat("%zu", report.peak_concurrent_resources)});
  table.AddRow({"mean concurrent resources",
                TablePrinter::FormatDouble(
                    report.mean_concurrent_resources, 2)});
  table.AddRow({"budget per chronon",
                StringFormat("%d", config.budget)});
  table.Print(std::cout);
  std::cout << "Sharing potential is the probe work intra-resource "
               "overlap can save; peak\nconcurrency vs the budget bounds "
               "how contended the schedule will be.\n";
  return 0;
}

int CommandPolicies() {
  TablePrinter table({"name", "level"});
  for (const std::string& name : KnownPolicyNames()) {
    PolicyOptions po;
    po.num_resources = 1;
    auto policy = MakePolicy(name, po);
    if (policy.ok()) {
      table.AddRow({name, PolicyLevelToString((*policy)->level())});
    }
  }
  table.Print(std::cout);
  return 0;
}

void PrintTopLevelUsage() {
  std::cout << "pullmon_cli — pull-based monitoring of volatile data "
               "sources (ICDE'08 reproduction)\n\n"
               "Commands:\n"
               "  run        run one experiment           (run --help)\n"
               "  sweep      sweep one parameter          (sweep --help)\n"
               "  gen-trace  write a synthetic trace CSV  (gen-trace --help)\n"
               "  gen-feeds  write simulated RSS feeds    (gen-feeds --help)\n"
               "  analyze    report instance overlap stats (analyze --help)\n"
               "  policies   list available policies\n";
}

}  // namespace
}  // namespace pullmon

int main(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);
  std::string command = argc > 1 ? argv[1] : "";
  if (command == "run") return pullmon::CommandRun(args);
  if (command == "sweep") return pullmon::CommandSweep(args);
  if (command == "gen-trace") return pullmon::CommandGenTrace(args);
  if (command == "gen-feeds") return pullmon::CommandGenFeeds(args);
  if (command == "analyze") return pullmon::CommandAnalyze(args);
  if (command == "policies") return pullmon::CommandPolicies();
  pullmon::PrintTopLevelUsage();
  return command.empty() || command == "help" || command == "--help" ? 0
                                                                     : 2;
}
