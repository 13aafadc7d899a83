#ifndef PULLMON_SIM_MONITOR_RUN_H_
#define PULLMON_SIM_MONITOR_RUN_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>

#include "core/dynamic_monitor.h"
#include "sim/churn.h"
#include "sim/experiment.h"
#include "sim/proxy.h"
#include "util/status.h"

namespace pullmon {

/// The one online loop of every physical run (DESIGN.md section 13):
/// one run's pull session, report and DynamicMonitor, wired together,
/// plus the chronon step and report finish they share. Each entry point
/// drives it from its own loop and keeps only its own logic:
/// MonitoringProxy pushes notifications, RunChurnOnce is the bare loop,
/// the durable runner adds restore, checkpoints and the WAL, and the
/// adaptive runner adds forecasts and explore probes.
class MonitorRun {
 public:
  /// What the monitor is fed.
  enum class Kind {
    /// Every true t-interval, submitted before chronon 0 in problem
    /// order (SubmitProblem). Scored against the problem.
    kStatic,
    /// The true t-intervals, each submitted the chronon its earliest EI
    /// opens, plus the configured churn (a ChurnStream). Oracle
    /// knowledge only.
    kChurn,
    /// Only what the runner submits itself (the adaptive runner's
    /// predicted t-intervals).
    kAdaptive,
  };

  MonitorRun() = default;
  MonitorRun(const MonitorRun&) = delete;
  MonitorRun& operator=(const MonitorRun&) = delete;

  /// Validates `config` for `kind`, builds the substrate and starts on
  /// it (below); kChurn also gets its ChurnStream.
  Status Start(const SimulationConfig& config, const PolicySpec& spec,
               uint64_t seed, Kind kind,
               std::optional<BudgetVector> monitor_budget = std::nullopt);

  /// Starts on borrowed parts, which must outlive the run: checks
  /// `options` (a paged trace backend needs a store-backed network),
  /// builds the session and the monitor (on `monitor_budget`, default
  /// the problem's) with the session as its probe path, and starts the
  /// clock. kStatic validates and submits `problem` (SubmitProblem);
  /// the other kinds register no profile, so a restore can follow.
  Status Start(const MonitoringProblem& problem, FeedNetwork* network,
               Policy* policy, ExecutionMode mode,
               const ProxyOptions& options, Kind kind,
               std::optional<BudgetVector> monitor_budget = std::nullopt);

  /// Registers every true profile in problem order (profile i is
  /// ProfileId i).
  void RegisterProfiles();

  /// Runs the monitor's next chronon: applies the chronon's ChurnStream
  /// arrivals and churn (kChurn; `on_op` sees every operation), steps
  /// the monitor, and counts the notifications its captures push.
  Status StepChronon(
      const std::function<void(const ChurnStream::Op&)>& on_op = {});

  /// Steps the remaining chronons, then Finish().
  Result<ProxyRunReport> RunToEnd();

  /// Completes the report after the epoch. kChurn scores completeness
  /// against the monitor's live submissions and copies its ChurnStats;
  /// kStatic scores it against the problem's profiles, and kAdaptive
  /// against them over the monitor's plus `explore_schedule`, whose
  /// budget units (report().estimation_explore_probes) join
  /// probes_used.
  Result<ProxyRunReport> Finish(const Schedule* explore_schedule = nullptr);

  const MonitoringProblem& problem() const { return *problem_; }
  DynamicMonitor& monitor() { return *monitor_; }
  FeedPullSession& session() { return *session_; }
  ChurnStream& stream() { return *stream_; }
  ProxyRunReport& report() { return report_; }

 private:
  RunSubstrate substrate_;
  Kind kind_ = Kind::kStatic;
  const MonitoringProblem* problem_ = nullptr;
  ProxyRunReport report_;
  std::optional<FeedPullSession> session_;
  std::optional<DynamicMonitor> monitor_;
  std::optional<ChurnStream> stream_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace pullmon

#endif  // PULLMON_SIM_MONITOR_RUN_H_
