// pullmon command-line tool: run monitoring experiments, sweep
// parameters, and generate datasets without writing C++.
//
//   pullmon_cli run --policy=mrsf --mode=p --profiles=500 --budget=2
//   pullmon_cli sweep --param=budget --values=1,2,3,4 --policy=mrsf
//   pullmon_cli gen-trace --dataset=auction --out=trace.csv
//   pullmon_cli gen-feeds --outdir=/tmp/feeds --resources=20
//   pullmon_cli policies
//
// Three declarations carry the commands: the knob table (Knobs) binds
// each shared flag to its SimulationConfig field, one column list per
// run kind names each printed counter, and CheckRunPath says which
// knobs each run path reads.

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <span>
#include <type_traits>
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

/// Prints `status` and returns `exit_code`.
int Fail(const Status& status, int exit_code) {
  std::cerr << status.ToString() << "\n";
  return exit_code;
}

// --- Knobs: the flags every command shares ---

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

/// The field a chain of member pointers reaches inside `config`.
template <typename Config, typename... Path>
auto& FieldOf(Config& config, Path... path) {
  return (config .* ... .* path);
}

/// One flag every command registers. Each row but --reps and --seed is
/// bound to a SimulationConfig field: registration reads the flag's
/// default from BaselineConfig(), and ParseCommandLine writes the parsed
/// value back through the same binding.
struct Knob {
  const char* name;
  /// Registers the flag, its default read from the given config.
  std::function<void(FlagParser*, const SimulationConfig&)> add = {};
  /// Writes the parsed flag into the config; empty for --reps and --seed.
  std::function<Status(const FlagParser&, SimulationConfig*)> apply = {};
};

/// A flag of its field's type: an int (which must fit 32 bits), double,
/// bool, string, or a 64-bit seed given as a signed value. Size fields
/// take Size instead.
template <typename... Path>
Knob Bound(const char* name, const char* help, Path... path) {
  using T = std::remove_cvref_t<decltype(FieldOf(
      std::declval<SimulationConfig&>(), path...))>;
  Knob knob{.name = name};
  knob.add = [=](FlagParser* flags, const SimulationConfig& baseline) {
    const T& value = FieldOf(baseline, path...);
    if constexpr (std::is_same_v<T, double>) {
      flags->AddDouble(name, value, help);
    } else if constexpr (std::is_same_v<T, bool>) {
      flags->AddBool(name, value, help);
    } else if constexpr (std::is_same_v<T, std::string>) {
      flags->AddString(name, value, help);
    } else {
      flags->AddInt64(name, static_cast<int64_t>(value), help);
    }
  };
  knob.apply = [=](const FlagParser& flags,
                   SimulationConfig* config) -> Status {
    T& field = FieldOf(*config, path...);
    if constexpr (std::is_same_v<T, double>) {
      field = flags.GetDouble(name);
    } else if constexpr (std::is_same_v<T, bool>) {
      field = flags.GetBool(name);
    } else if constexpr (std::is_same_v<T, std::string>) {
      field = flags.GetString(name);
    } else if constexpr (std::is_same_v<T, int>) {
      PULLMON_ASSIGN_OR_RETURN(field, IntFlag(flags, name));
    } else {
      static_assert(std::is_same_v<T, uint64_t>);
      field = static_cast<uint64_t>(flags.GetInt64(name));
    }
    return Status::OK();
  };
  return knob;
}

/// A size field. Negatives clamp to 0 before widening to size_t, so -1
/// lands in the field's own range check instead of becoming SIZE_MAX.
template <typename... Path>
Knob Size(const char* name, const char* help, Path... path) {
  Knob knob{.name = name};
  knob.add = [=](FlagParser* flags, const SimulationConfig& baseline) {
    flags->AddInt64(name, static_cast<int64_t>(FieldOf(baseline, path...)),
                    help);
  };
  knob.apply = [=](const FlagParser& flags, SimulationConfig* config) {
    FieldOf(*config, path...) = static_cast<std::size_t>(
        std::max<int64_t>(0, flags.GetInt64(name)));
    return Status::OK();
  };
  return knob;
}

/// A bool flag choosing between two values of an enum field.
template <typename E, typename... Path>
Knob Switch(const char* name, const char* help, E on, E off,
            Path... path) {
  Knob knob{.name = name};
  knob.add = [=](FlagParser* flags, const SimulationConfig& baseline) {
    flags->AddBool(name, FieldOf(baseline, path...) == on, help);
  };
  knob.apply = [=](const FlagParser& flags, SimulationConfig* config) {
    FieldOf(*config, path...) = flags.GetBool(name) ? on : off;
    return Status::OK();
  };
  return knob;
}

/// A string flag naming one value of an enum field, case-insensitively;
/// the first name of a value is the one its default prints. `noun`
/// reads in the rejection of an unknown name.
template <typename E, typename... Path>
Knob Enum(const char* name, const char* noun, const char* help,
          std::vector<std::pair<std::string, E>> names, Path... path) {
  Knob knob{.name = name};
  knob.add = [=](FlagParser* flags, const SimulationConfig& baseline) {
    auto it = std::find_if(names.begin(), names.end(), [&](const auto& n) {
      return n.second == FieldOf(baseline, path...);
    });
    flags->AddString(name, it->first, help);
  };
  knob.apply = [=](const FlagParser& flags, SimulationConfig* config) {
    const std::string value = ToLower(flags.GetString(name));
    std::vector<std::string> expected;
    for (const auto& [text, enumerator] : names) {
      if (text == value) {
        FieldOf(*config, path...) = enumerator;
        return Status::OK();
      }
      expected.push_back(text);
    }
    return Status::InvalidArgument(
        StringFormat("unknown --%s%s '%s' (expected: %s)", name, noun,
                     value.c_str(), Join(expected, " | ").c_str()));
  };
  return knob;
}

/// A shared flag bound to no config field.
Knob Unbound(const char* name, int64_t default_value, const char* help) {
  return {.name = name,
          .add = [=](FlagParser* flags, const SimulationConfig&) {
            flags->AddInt64(name, default_value, help);
          }};
}

/// --crash-at=<chronon>[:offset] sets two fields from one string; the
/// default "" leaves the crash plan disarmed.
Knob CrashAt(const char* help) {
  Knob knob{.name = "crash-at"};
  knob.add = [=](FlagParser* flags, const SimulationConfig&) {
    flags->AddString("crash-at", "", help);
  };
  knob.apply = [](const FlagParser& flags,
                  SimulationConfig* config) -> Status {
    const std::string value = flags.GetString("crash-at");
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
  };
  return knob;
}

const std::vector<Knob>& Knobs() {
  using C = SimulationConfig;
  using F = FaultOptions;
  using B = BreakerOptions;
  static const std::vector<Knob> knobs = {
      Enum<DatasetKind>("dataset", "", "poisson | auction | feeds",
                        {{"poisson", DatasetKind::kPoisson},
                         {"auction", DatasetKind::kAuction},
                         {"feeds", DatasetKind::kFeedWorkload},
                         {"feed-workload", DatasetKind::kFeedWorkload}},
                        &C::dataset),
      Bound("resources", "n: number of monitored resources",
            &C::num_resources),
      Bound("chronons", "K: epoch length", &C::epoch_length),
      Bound("profiles", "m: number of client profiles", &C::num_profiles),
      Bound("rank", "k: maximal profile complexity", &C::max_rank),
      Bound("lambda", "updates per resource (poisson)", &C::lambda),
      Bound("alpha", "inter-user resource popularity skew", &C::alpha),
      Bound("beta", "intra-user simplicity preference", &C::beta),
      Switch("overwrite",
             "use the overwrite restriction instead of window(W)",
             LengthRestriction::kOverwrite, LengthRestriction::kWindow,
             &C::restriction),
      Bound("window", "W: staleness window in chronons", &C::window),
      Bound("budget", "C: probes per chronon", &C::budget),
      Unbound("reps", 10, "experiment repetitions"),
      Unbound("seed", 1234, "base random seed"),
      // Fault-injection layer (proxy runs only; see --proxy under `run`).
      Bound("fault-timeout", "probe timeout probability", &C::faults,
            &F::timeout_rate),
      Bound("fault-server-error", "transient server error probability",
            &C::faults, &F::server_error_rate),
      Bound("fault-truncate", "truncated feed body probability", &C::faults,
            &F::truncation_rate),
      Bound("fault-corrupt", "corrupted feed body probability", &C::faults,
            &F::corruption_rate),
      Bound("fault-etag-storm", "ETag invalidation storm start probability",
            &C::faults, &F::etag_storm_rate),
      Bound("fault-latency", "mean simulated response latency (chronons)",
            &C::faults, &F::latency_mean),
      Bound("fault-seed", "fault layer random seed", &C::fault_seed),
      Bound("retries", "probe retries per failure (spend budget C)",
            &C::retry, &RetryPolicy::max_retries),
      Bound("retry-backoff",
            "initial retry backoff (chronons, doubles per try)", &C::retry,
            &RetryPolicy::backoff_base),
      Bound("outage-enter",
            "per-chronon probability a resource goes dark (Gilbert-Elliott "
            "outage chain)",
            &C::faults, &F::outage_enter_rate),
      Bound("outage-exit", "per-chronon probability a dark resource recovers",
            &C::faults, &F::outage_exit_rate),
      Bound("breaker", "enable the per-resource circuit breaker", &C::breaker,
            &B::enabled),
      Bound("breaker-threshold",
            "consecutive probe failures that open a circuit", &C::breaker,
            &B::failure_threshold),
      Bound("breaker-cooldown", "initial open-circuit cool-down (chronons)",
            &C::breaker, &B::cooldown_base),
      Bound("breaker-multiplier", "cool-down growth per probation failure",
            &C::breaker, &B::cooldown_multiplier),
      Bound("breaker-max-cooldown", "exponential cool-down cap (chronons)",
            &C::breaker, &B::max_cooldown),
      Bound("breaker-alpha", "EWMA smoothing of per-resource failure rates",
            &C::breaker, &B::ewma_alpha),
      Bound("buffer-capacity", "feed server buffer size (proxy runs)",
            &C::feed_buffer_capacity),
      Bound("parse-cache",
            "ETag/content-keyed parse cache on the proxy's probe path (proxy "
            "runs)",
            &C::parse_cache),
      Enum<ExecutorBackend>(
          "executor", " backend",
          "scheduling backend: indexed (incremental candidate index) | "
          "reference (scan-based oracle)",
          {{"indexed", ExecutorBackend::kIndexed},
           {"reference", ExecutorBackend::kReference}},
          &C::executor_backend),
      Switch("trace-store",
             "generate and replay the trace through the paged compressed "
             "trace store instead of in memory (decision-identical; adds "
             "trace_* telemetry)",
             TraceBackend::kPaged, TraceBackend::kInMemory, &C::trace_backend),
      Size("trace-page-size", "target encoded payload bytes per trace page",
           &C::trace_store, &TraceStoreOptions::page_size),
      Size("trace-cache-pages",
           "decoded pages the trace store's LRU cache keeps resident",
           &C::trace_store, &TraceStoreOptions::cache_pages),
      Enum<KnowledgeModel>(
          "knowledge", " model",
          "update-knowledge model of `run --proxy`: oracle (FPN(1) EIs from "
          "the full trace) | estimated (closed-loop EIs predicted from the "
          "proxy's own probe diffs)",
          {{"oracle", KnowledgeModel::kOracle},
           {"estimated", KnowledgeModel::kEstimated}},
          &C::knowledge),
      Bound("estimator-half-life",
            "half-life (chronons) of the estimator's decaying per-resource "
            "rate tracker (--knowledge=estimated)",
            &C::estimator_half_life),
      Bound("explore-eps",
            "fraction of chronons that divert one budget unit into an explore "
            "probe of the coldest resource (--knowledge=estimated)",
            &C::explore_eps),
      Bound("forecast-horizon",
            "chronons between predicted-EI regenerations "
            "(--knowledge=estimated)",
            &C::forecast_horizon),
      // Profile churn (churn runs only; see --churn under `run`).
      Bound("churn-rate", "mean churn operations per chronon", &C::churn,
            &ChurnOptions::ops_per_chronon),
      Bound("churn-cancel", "fraction of churn ops that cancel a submission",
            &C::churn, &ChurnOptions::cancel_fraction),
      Bound("churn-edit", "fraction of churn ops that edit a submission",
            &C::churn, &ChurnOptions::edit_fraction),
      Bound("churn-unregister",
            "fraction of churn ops that unregister a client", &C::churn,
            &ChurnOptions::unregister_fraction),
      Bound("churn-theta", "Zipf skew of per-client churn activity", &C::churn,
            &ChurnOptions::zipf_theta),
      Bound("churn-seed", "churn stream random seed", &C::churn,
            &ChurnOptions::seed),
      // Durability layer (run only; see --checkpoint-dir under `run`).
      Bound("checkpoint-dir",
            "directory for proxy snapshots + write-ahead logs; runs the "
            "durable monitoring service (src/recovery/)",
            &C::checkpoint_dir),
      Bound("checkpoint-every",
            "snapshot every N chronon boundaries (0 = initial snapshot plus "
            "WAL-size-triggered only)",
            &C::checkpoint_every),
      CrashAt("<chronon>[:offset] — crash-injection harness: kill the run "
              "at the first durable write at or after the chronon, after "
              "`offset` further bytes"),
      Bound("recover",
            "resume from the newest valid checkpoint in --checkpoint-dir "
            "instead of starting fresh",
            &C::recover),
  };
  return knobs;
}

void AddKnobs(FlagParser* flags) {
  const SimulationConfig baseline = BaselineConfig();
  for (const Knob& knob : Knobs()) knob.add(flags, baseline);
}

/// Parses a command line whose flags are registered and writes every
/// knob into `config`: nullopt to go on, else the exit code to stop with
/// (0 after printing --help, 2 after printing why the command line is
/// bad). Unknown enum names, integers that overflow their field and a
/// malformed --crash-at are rejected here, for every command.
std::optional<int> ParseCommandLine(FlagParser& flags,
                                    const std::vector<std::string>& args,
                                    SimulationConfig* config) {
  if (Status st = flags.Parse(args); !st.ok()) return Fail(st, 2);
  if (flags.help_requested()) {
    std::cout << flags.Usage();
    return 0;
  }
  *config = BaselineConfig();
  for (const Knob& knob : Knobs()) {
    if (!knob.apply) continue;
    if (Status st = knob.apply(flags, config); !st.ok()) return Fail(st, 2);
  }
  return std::nullopt;
}

// --- Run paths ---

/// The run paths of `run` and `sweep`.
enum class RunPath { kLogical, kSweep, kProxy, kChurn, kDurable };

/// Validates `config`, then rejects every knob and run flag `path`
/// would ignore, so no flag is accepted and then silently dropped. This
/// is the one place that says which run path reads which knob; a knob
/// at its default passes on every path.
Status CheckRunPath(const SimulationConfig& config, const FlagParser& flags,
                    RunPath path) {
  // Out-of-range values fail here, not mid-run.
  PULLMON_RETURN_NOT_OK(config.Validate());
  auto bit = [](RunPath p) { return 1u << static_cast<unsigned>(p); };
  const unsigned monitor = bit(RunPath::kChurn) | bit(RunPath::kDurable);
  const unsigned physical = bit(RunPath::kProxy) | monitor;
  const struct {
    const char* knobs;
    bool set;
    unsigned read_by;
  } rules[] = {
      {"--offline", flags.WasSet("offline") && flags.GetBool("offline"),
       bit(RunPath::kLogical)},
      // A durable run is one repetition.
      {"--reps", flags.WasSet("reps"),
       bit(RunPath::kLogical) | bit(RunPath::kSweep) | bit(RunPath::kProxy) |
           bit(RunPath::kChurn)},
      {"--churn", config.churn.enabled, monitor},
      {"--churn-*", config.churn.ops_per_chronon > 0.0, monitor},
      {"--fault-*/--outage-*/--retries",
       !config.faults.AllZero() || config.retry.max_retries > 0, physical},
      {"--parse-cache", config.parse_cache, physical},
      {"--trace-store", config.trace_backend != TraceBackend::kInMemory,
       physical},
      {"--knowledge=estimated", config.knowledge != KnowledgeModel::kOracle,
       bit(RunPath::kProxy)},
      {"--checkpoint-dir/--checkpoint-every/--crash-at/--recover",
       !config.checkpoint_dir.empty() || config.checkpoint_every != 0 ||
           config.crash_at_chronon >= 0 || config.recover,
       bit(RunPath::kDurable)},
  };
  static constexpr const char* kPathNames[] = {
      "the logical executor (`run`)", "`sweep` (the logical executor)",
      "`run --proxy`", "`run --churn`",
      "durable runs (`run --checkpoint-dir`)"};
  for (const auto& rule : rules) {
    if (rule.set && (rule.read_by & bit(path)) == 0) {
      return Status::InvalidArgument(
          StringFormat("%s has no effect on %s", rule.knobs,
                       kPathNames[static_cast<int>(path)]));
    }
  }
  return Status::OK();
}

/// What `run` and `sweep` hand their run path.
struct RunRequest {
  SimulationConfig config;
  std::vector<PolicySpec> specs;
  int reps = 0;
  uint64_t seed = 0;
  std::string csv_path;
};

Result<std::vector<PolicySpec>> SpecsFromFlags(const FlagParser& flags) {
  const std::string mode = ToLower(flags.GetString("mode"));
  std::vector<ExecutionMode> modes;
  if (mode == "p") {
    modes = {ExecutionMode::kPreemptive};
  } else if (mode == "np") {
    modes = {ExecutionMode::kNonPreemptive};
  } else if (mode == "both") {
    modes = {ExecutionMode::kNonPreemptive, ExecutionMode::kPreemptive};
  } else {
    return Status::InvalidArgument("--mode must be p, np or both");
  }
  std::vector<PolicySpec> specs;
  for (const std::string& raw : Split(flags.GetString("policy"), ',')) {
    const std::string name(Trim(raw));
    if (name.empty()) continue;
    // Validate early for a friendly error.
    PolicyOptions po;
    po.num_resources = 1;
    PULLMON_RETURN_NOT_OK(MakePolicy(name, po).status());
    for (ExecutionMode m : modes) specs.push_back({name, m});
  }
  if (specs.empty()) {
    return Status::InvalidArgument("no policies given (--policy=...)");
  }
  return specs;
}

/// Fills the policies, repetitions, seed and CSV path of `request`.
/// Fewer than one repetition is rejected: it would print a table of
/// zeros.
Status ReadRunRequest(const FlagParser& flags, RunRequest* request) {
  PULLMON_ASSIGN_OR_RETURN(request->specs, SpecsFromFlags(flags));
  PULLMON_ASSIGN_OR_RETURN(request->reps, IntFlag(flags, "reps"));
  if (request->reps < 1) {
    return Status::InvalidArgument(
        StringFormat("--reps must be >= 1, got %d", request->reps));
  }
  request->seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  request->csv_path = flags.GetString("csv");
  return Status::OK();
}

// --- Columns: the counters each run kind prints ---

/// One printed counter: its table and CSV headers, the decimals each
/// shows, and how it is read from a row's source (one run's report, or
/// one policy's aggregated outcome).
template <typename Source>
struct Column {
  const char* header;
  const char* csv_header;
  int table_decimals;
  int csv_decimals;
  double (*read)(const Source&);
};

/// One table or CSV row: the policy label and one value per column (a
/// row may stop before the last columns).
struct Row {
  std::string label;
  std::vector<double> values;
};

template <typename Columns, typename Source>
Row ReadRow(std::string label, const Columns& columns,
            const Source& source) {
  Row row{std::move(label), {}};
  for (const auto& column : columns) {
    row.values.push_back(column.read(source));
  }
  return row;
}

template <typename Columns>
std::vector<std::string> HeaderCells(const Columns& columns, bool csv) {
  std::vector<std::string> cells = {"policy"};
  for (const auto& column : columns) {
    cells.push_back(csv ? column.csv_header : column.header);
  }
  return cells;
}

template <typename Columns>
std::vector<std::string> RowCells(const Columns& columns, const Row& row,
                                  bool csv) {
  std::vector<std::string> cells = {row.label};
  for (std::size_t i = 0; i < row.values.size(); ++i) {
    cells.push_back(TablePrinter::FormatDouble(
        row.values[i],
        csv ? columns[i].csv_decimals : columns[i].table_decimals));
  }
  return cells;
}

template <typename Columns>
void PrintTable(const Columns& columns, std::span<const Row> rows) {
  TablePrinter table(HeaderCells(columns, /*csv=*/false));
  for (const Row& row : rows) table.AddRow(RowCells(columns, row, false));
  table.Print(std::cout);
}

/// Writes `rows` to the CSV file `path`; nothing when `path` is empty.
template <typename Columns>
Status WriteCsv(const std::string& path, const Columns& columns,
                std::span<const Row> rows) {
  if (path.empty()) return Status::OK();
  PULLMON_ASSIGN_OR_RETURN(CsvWriter writer, CsvWriter::Open(path));
  writer.WriteRow(HeaderCells(columns, /*csv=*/true));
  for (const Row& row : rows) writer.WriteRow(RowCells(columns, row, true));
  writer.Flush();
  std::cout << "Wrote " << path << "\n";
  return Status::OK();
}

using Report = ProxyRunReport;

double Gc(const Report& r) { return r.run.completeness.GainedCompleteness(); }
double Probes(const Report& r) { return r.run.probes_used; }
/// A counter field of the report.
template <auto field>
double Count(const Report& r) {
  return static_cast<double>(r.*field);
}

constexpr std::array<Column<PolicyOutcome>, 4> kLogicalColumns = {{
    {"GC", "gc_mean", 4, 6, [](const PolicyOutcome& o) { return o.gc.mean(); }},
    {"GC ci95", "gc_ci95", 4, 6,
     [](const PolicyOutcome& o) { return o.gc.ci95_halfwidth(); }},
    {"runtime(ms)", "runtime_ms", 2, 4,
     [](const PolicyOutcome& o) { return o.runtime_seconds.mean() * 1e3; }},
    {"probes", "probes", 0, 1,
     [](const PolicyOutcome& o) { return o.probes_used.mean(); }},
}};

constexpr std::array<Column<Report>, 10> kProxyColumns = {{
    {"GC", "gc_mean", 4, 6, Gc},
    {"GC lost to faults", "gc_lost_to_faults", 4, 6,
     Count<&Report::gc_lost_to_faults>},
    {"probes", "probes", 0, 1, Probes},
    {"failed", "probes_failed", 1, 1, Count<&Report::probes_failed>},
    {"retries", "retries", 1, 1, Count<&Report::retries_issued>},
    {"corrupt", "corrupt_bodies", 1, 1, Count<&Report::corrupt_bodies>},
    {"opened", "circuits_opened", 1, 1, Count<&Report::circuits_opened>},
    {"suppressed", "probes_suppressed", 1, 1,
     Count<&Report::probes_suppressed>},
    {"cache hits", "parse_cache_hits", 1, 1, Count<&Report::parse_cache_hits>},
    {"notifications", "notifications", 0, 1,
     Count<&Report::notifications_delivered>},
}};

constexpr std::array<Column<Report>, 9> kChurnColumns = {{
    {"GC", "gc_mean", 4, 6, Gc},
    {"probes", "probes", 0, 1, Probes},
    {"submitted", "churn_submitted", 0, 1, Count<&Report::churn_submitted>},
    {"cancelled", "churn_cancelled", 1, 1, Count<&Report::churn_cancelled>},
    {"edited", "churn_edited", 1, 1, Count<&Report::churn_edited>},
    {"unregistered", "churn_unregistered", 1, 1,
     Count<&Report::churn_unregistered_profiles>},
    {"rejected", "churn_rejected", 1, 1, Count<&Report::churn_rejected_ops>},
    {"orphaned", "orphaned_probes", 1, 1, Count<&Report::orphaned_probes>},
    {"notifications", "notifications", 0, 1,
     Count<&Report::notifications_delivered>},
}};

/// A durable run is one repetition: its row holds that run's counts.
constexpr std::array<Column<Report>, 5> kDurableColumns = {{
    {"GC", "gc", 4, 6, Gc},
    {"probes", "probes", 0, 0, Probes},
    {"notifications", "notifications", 0, 0,
     Count<&Report::notifications_delivered>},
    {"snapshots", "snapshots_written", 0, 0,
     Count<&Report::recovery_snapshots_written>},
    {"wal records", "wal_records_logged", 0, 0,
     Count<&Report::recovery_wal_records_logged>},
}};

/// The logical run path: ExperimentRunner over generated instances,
/// optionally with the offline Local-Ratio.
int RunLogical(const RunRequest& request, bool offline) {
  ExperimentRunner runner(request.reps, request.seed);
  // The CLI exposes the strong Local-Ratio variant: probe-sharing-aware
  // conflicts plus greedy augmentation. The faithful [2] reduction (used
  // by the Figure 4/5 harnesses) is only a sensible baseline on P^[1]
  // instances; on wide-window instances it is hopelessly conservative.
  LocalRatioOptions offline_options;
  offline_options.sharing_aware_conflicts = true;
  offline_options.greedy_augmentation = true;
  auto result =
      runner.Run(request.config, request.specs, offline, offline_options);
  if (!result.ok()) {
    std::cerr << "experiment failed: " << result.status().ToString()
              << "\n";
    return 1;
  }
  std::vector<Row> rows;
  for (const PolicyOutcome& outcome : result->policies) {
    rows.push_back(ReadRow(outcome.spec.Label(), kLogicalColumns, outcome));
  }
  const std::size_t policy_rows = rows.size();
  if (result->offline.has_value()) {
    // Local-Ratio counts no probes: its table row stops before that
    // column, and the CSV has no offline row.
    const PolicyOutcome offline_outcome{{}, result->offline->gc,
                                        result->offline->runtime_seconds,
                                        {}};
    rows.push_back(ReadRow("offline-LR", kLogicalColumns, offline_outcome));
    rows.back().values.pop_back();
  }
  PrintTable(kLogicalColumns, rows);
  std::cout << "Instances: " << result->t_intervals.mean()
            << " t-intervals / " << result->eis.mean()
            << " EIs on average\n";
  Status wrote = WriteCsv(request.csv_path, kLogicalColumns,
                          std::span<const Row>(rows).first(policy_rows));
  return wrote.ok() ? 0 : Fail(wrote, 1);
}

/// Means of the paged trace store's counters over every run.
struct TraceStoreSummary {
  RunningStats pages, bytes, in_memory, hits, misses;

  void Add(const Report& r) {
    pages.Add(static_cast<double>(r.trace_pages_written));
    bytes.Add(static_cast<double>(r.trace_bytes_stored));
    in_memory.Add(static_cast<double>(r.trace_in_memory_bytes));
    hits.Add(static_cast<double>(r.trace_cache_hits));
    misses.Add(static_cast<double>(r.trace_cache_misses));
  }

  void Print() const {
    const double lookups = hits.mean() + misses.mean();
    std::cout << "Trace store: " << pages.mean() << " pages, "
              << bytes.mean() << " B stored vs " << in_memory.mean()
              << " B in-memory ("
              << TablePrinter::FormatDouble(
                     bytes.mean() > 0.0 ? in_memory.mean() / bytes.mean()
                                        : 0.0,
                     2)
              << "x), cache hit rate "
              << TablePrinter::FormatDouble(
                     lookups > 0.0 ? hits.mean() / lookups : 0.0, 3)
              << "\n";
  }
};

using RunOnceFn = Result<Report> (*)(const SimulationConfig&,
                                     const PolicySpec&, uint64_t);

/// A run path `run` repeats per policy (--proxy, --churn): one row per
/// policy, each column the mean over the repetitions. A paged trace
/// store's summary line follows the table.
int RunRepeated(const RunRequest& request, const char* kind,
                RunOnceFn run_once, std::span<const Column<Report>> columns) {
  const bool summarize = request.config.trace_backend == TraceBackend::kPaged;
  TraceStoreSummary trace_store;
  std::vector<Row> rows;
  for (const PolicySpec& spec : request.specs) {
    std::vector<RunningStats> stats(columns.size());
    for (int rep = 0; rep < request.reps; ++rep) {
      auto report = run_once(request.config, spec,
                             request.seed + static_cast<uint64_t>(rep) * 7919);
      if (!report.ok()) {
        std::cerr << kind << " run failed: "
                  << report.status().ToString() << "\n";
        return 1;
      }
      for (std::size_t i = 0; i < stats.size(); ++i) {
        stats[i].Add(columns[i].read(*report));
      }
      if (summarize) trace_store.Add(*report);
    }
    Row row{spec.Label(), {}};
    for (const RunningStats& s : stats) row.values.push_back(s.mean());
    rows.push_back(std::move(row));
  }
  PrintTable(columns, rows);
  if (summarize) trace_store.Print();
  Status wrote = WriteCsv(request.csv_path, columns, rows);
  return wrote.ok() ? 0 : Fail(wrote, 1);
}

/// The durable run path (--checkpoint-dir): one monitoring-service run
/// through RunDurableOnce with snapshots + WAL in a DirectoryStorage,
/// optionally crash-injected (--crash-at) or resumed (--recover).
int RunDurable(const RunRequest& request) {
  const SimulationConfig& config = request.config;
  if (request.specs.size() != 1) {
    std::cerr << "durable runs (--checkpoint-dir) take exactly one "
                 "--policy / --mode combination\n";
    return 2;
  }
  DirectoryStorage storage(config.checkpoint_dir);
  if (Status st = storage.Prepare(); !st.ok()) return Fail(st, 1);
  DurableOptions options;
  options.storage = &storage;
  options.checkpoint_every = config.checkpoint_every;
  options.recover = config.recover;
  options.crash.chronon = config.crash_at_chronon;
  options.crash.write_offset = config.crash_at_offset;
  auto report =
      RunDurableOnce(config, request.specs[0], request.seed, options);
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
  const Row row =
      ReadRow(request.specs[0].Label(), kDurableColumns, *report);
  PrintTable(kDurableColumns, std::span<const Row>(&row, 1));
  std::cout << "Durable state in " << config.checkpoint_dir
            << " (single repetition, seed " << request.seed << ")\n";
  Status wrote =
      WriteCsv(request.csv_path, kDurableColumns, std::span<const Row>(&row, 1));
  return wrote.ok() ? 0 : Fail(wrote, 1);
}

// --- Commands ---

int CommandRun(const std::vector<std::string>& args) {
  FlagParser flags("pullmon_cli run",
                   "run one monitoring experiment and print/emit results");
  AddKnobs(&flags);
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
  RunRequest request;
  SimulationConfig& config = request.config;
  if (auto code = ParseCommandLine(flags, args, &config)) return *code;
  if (Status st = ReadRunRequest(flags, &request); !st.ok()) {
    return Fail(st, 2);
  }
  config.churn.enabled = flags.GetBool("churn");
  const RunPath path = flags.GetBool("proxy")           ? RunPath::kProxy
                       : !config.checkpoint_dir.empty() ? RunPath::kDurable
                       : config.churn.enabled           ? RunPath::kChurn
                                                        : RunPath::kLogical;
  if (Status st = CheckRunPath(config, flags, path); !st.ok()) {
    return Fail(st, 2);
  }
  if (path == RunPath::kProxy) {
    // The physical path: full pull-parse-push over simulated feed
    // servers, with the fault layer and retry budget active.
    return RunRepeated(request, "proxy", RunProxyOnce, kProxyColumns);
  }
  if (path == RunPath::kChurn) {
    // DynamicMonitor with mid-epoch submissions plus the generated
    // cancel/edit/unregister stream, pulled through the same feed
    // substrate as --proxy.
    return RunRepeated(request, "churn", RunChurnOnce, kChurnColumns);
  }
  if (path == RunPath::kDurable) return RunDurable(request);
  return RunLogical(request, flags.GetBool("offline"));
}

int CommandSweep(const std::vector<std::string>& args) {
  // The knobs `--param` can vary; each is set through its knob row.
  const std::vector<std::string> sweepable = {
      "budget", "profiles", "lambda", "rank", "alpha", "beta", "window"};
  FlagParser flags("pullmon_cli sweep",
                   "run an experiment per value of one swept parameter");
  AddKnobs(&flags);
  flags.AddString("policy", "s-edf,mrsf", "comma-separated policies");
  flags.AddString("mode", "p", "execution mode: p | np | both");
  flags.AddString("param", "budget", "one of: " + Join(sweepable, ", "));
  flags.AddString("values", "1,2,3", "comma-separated sweep values");
  flags.AddString("csv", "", "write the sweep as CSV to this file");
  flags.AddBool("markdown", false, "also print a Markdown table");
  RunRequest request;
  if (auto code = ParseCommandLine(flags, args, &request.config)) return *code;
  if (Status st = ReadRunRequest(flags, &request); !st.ok()) {
    return Fail(st, 2);
  }
  if (Status st = CheckRunPath(request.config, flags, RunPath::kSweep);
      !st.ok()) {
    return Fail(st, 2);
  }
  const std::string param = ToLower(flags.GetString("param"));
  if (std::ranges::find(sweepable, param) == sweepable.end()) {
    std::cerr << "unknown sweep parameter: " << param << "\n";
    return 2;
  }
  const Knob& knob = *std::ranges::find(Knobs(), param, &Knob::name);
  SweepReport report(param);
  for (const std::string& raw : Split(flags.GetString("values"), ',')) {
    std::string value(Trim(raw));
    if (value.empty()) continue;
    // A value is parsed and range-checked exactly as the knob's flag.
    FlagParser value_flag("pullmon_cli sweep", "one --values entry");
    knob.add(&value_flag, request.config);
    SimulationConfig config = request.config;
    Status st = value_flag.Parse({"--" + param + "=" + value});
    if (st.ok()) st = knob.apply(value_flag, &config);
    if (!st.ok()) return Fail(st, 2);
    ExperimentRunner runner(request.reps, request.seed);
    auto result = runner.Run(config, request.specs);
    if (!result.ok()) {
      std::cerr << "experiment failed: " << result.status().ToString()
                << "\n";
      return 1;
    }
    if (Status add = report.Add(value, *result); !add.ok()) {
      return Fail(add, 1);
    }
  }
  std::cout << report.ToTable();
  if (flags.GetBool("markdown")) {
    std::cout << "\n" << report.ToMarkdown();
  }
  if (!request.csv_path.empty()) {
    if (Status wrote = report.WriteCsvFile(request.csv_path); !wrote.ok()) {
      return Fail(wrote, 1);
    }
    std::cout << "Wrote " << request.csv_path << "\n";
  }
  return 0;
}

int CommandGenTrace(const std::vector<std::string>& args) {
  FlagParser flags("pullmon_cli gen-trace",
                   "generate an update trace and write it as CSV");
  AddKnobs(&flags);
  flags.AddString("out", "trace.csv", "output path");
  SimulationConfig config;
  if (auto code = ParseCommandLine(flags, args, &config)) return *code;
  Rng rng(static_cast<uint64_t>(flags.GetInt64("seed")));
  Status st;
  if (config.dataset == DatasetKind::kAuction) {
    // An auction trace is written with its listings, not only its
    // update events.
    auto trace = GenerateAuctionTrace(AuctionOptionsFor(config), &rng);
    if (!trace.ok()) return Fail(trace.status(), 1);
    st = WriteAuctionTraceFile(*trace, flags.GetString("out"));
  } else {
    auto trace = GenerateUpdateTrace(config, &rng);
    if (!trace.ok()) return Fail(trace.status(), 1);
    st = WriteUpdateTraceFile(*trace, flags.GetString("out"));
  }
  if (!st.ok()) return Fail(st, 1);
  std::cout << "Wrote " << flags.GetString("out") << "\n";
  return 0;
}

int CommandGenFeeds(const std::vector<std::string>& args) {
  FlagParser flags("pullmon_cli gen-feeds",
                   "simulate auctions and write one RSS file per listing");
  AddKnobs(&flags);
  flags.AddString("outdir", "feeds", "output directory");
  flags.AddBool("atom", false, "write Atom 1.0 instead of RSS 2.0");
  SimulationConfig config;
  if (auto code = ParseCommandLine(flags, args, &config)) return *code;
  if (flags.WasSet("dataset") && config.dataset != DatasetKind::kAuction) {
    std::cerr << "gen-feeds writes auction listings; --dataset="
              << flags.GetString("dataset") << " is not supported\n";
    return 2;
  }
  Rng rng(static_cast<uint64_t>(flags.GetInt64("seed")));
  auto trace = GenerateAuctionTrace(AuctionOptionsFor(config), &rng);
  if (!trace.ok()) return Fail(trace.status(), 1);
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
  AddKnobs(&flags);
  SimulationConfig config;
  if (auto code = ParseCommandLine(flags, args, &config)) return *code;
  auto problem =
      BuildProblem(config, static_cast<uint64_t>(flags.GetInt64("seed")));
  if (!problem.ok()) return Fail(problem.status(), 1);
  OverlapReport report = AnalyzeOverlap(
      problem->profiles, problem->num_resources, problem->epoch.length);
  const std::pair<const char*, std::string> rows[] = {
      {"profiles", StringFormat("%zu", problem->profiles.size())},
      {"t-intervals", StringFormat("%zu", problem->TotalTIntervalCount())},
      {"execution intervals", StringFormat("%zu", report.total_eis)},
      {"resources touched", StringFormat("%zu", report.resources_touched)},
      {"intra-resource overlapping pairs",
       StringFormat("%zu", report.intra_resource_overlapping_pairs)},
      {"min probes (no budget)",
       StringFormat("%zu", report.min_probes_ignoring_budget)},
      {"sharing potential",
       TablePrinter::FormatDouble(report.sharing_potential, 3)},
      {"peak concurrent resources",
       StringFormat("%zu", report.peak_concurrent_resources)},
      {"mean concurrent resources",
       TablePrinter::FormatDouble(report.mean_concurrent_resources, 2)},
      {"budget per chronon", StringFormat("%d", config.budget)},
  };
  TablePrinter table({"metric", "value"});
  for (const auto& [metric, value] : rows) table.AddRow({metric, value});
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
