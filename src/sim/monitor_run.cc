#include "sim/monitor_run.h"

#include <utility>

#include "core/completeness.h"
#include "util/logging.h"

namespace pullmon {

Status MonitorRun::Start(const SimulationConfig& config,
                         const PolicySpec& spec, uint64_t seed, Kind kind,
                         std::optional<BudgetVector> monitor_budget) {
  if (kind == Kind::kChurn) {
    if (config.knowledge != KnowledgeModel::kOracle) {
      return Status::InvalidArgument(
          "churn and durable runs need oracle knowledge; "
          "--knowledge=estimated runs the adaptive runner");
    }
    PULLMON_RETURN_NOT_OK(config.churn.Validate());
  } else if (kind == Kind::kAdaptive) {
    PULLMON_RETURN_NOT_OK(config.ValidateEstimation());
  }
  PULLMON_RETURN_NOT_OK(BuildSubstrate(config, spec, seed, &substrate_));
  PULLMON_RETURN_NOT_OK(Start(substrate_.problem, &*substrate_.network,
                              substrate_.policy.get(), spec.mode,
                              substrate_.proxy, kind,
                              std::move(monitor_budget)));
  if (kind == Kind::kChurn) stream_.emplace(*problem_, config.churn, seed);
  return Status::OK();
}

Status MonitorRun::Start(const MonitoringProblem& problem,
                         FeedNetwork* network, Policy* policy,
                         ExecutionMode mode, const ProxyOptions& options,
                         Kind kind,
                         std::optional<BudgetVector> monitor_budget) {
  PULLMON_RETURN_NOT_OK(options.Validate());
  if (kind == Kind::kStatic) PULLMON_RETURN_NOT_OK(problem.Validate());
  kind_ = kind;
  problem_ = &problem;
  session_.emplace(network, problem.num_resources, options, &report_);
  monitor_.emplace(problem.num_resources, problem.epoch.length,
                   monitor_budget.value_or(problem.budget), policy, mode,
                   MonitorOptionsFor(options));
  session_->AttachTo(&*monitor_);
  if (kind == Kind::kStatic) {
    PULLMON_RETURN_NOT_OK(SubmitProblem(problem, &*monitor_));
  }
  start_ = std::chrono::steady_clock::now();
  return Status::OK();
}

void MonitorRun::RegisterProfiles() {
  for (const Profile& p : problem_->profiles) {
    monitor_->RegisterProfile(p.name());
  }
}

Status MonitorRun::StepChronon(
    const std::function<void(const ChurnStream::Op&)>& on_op) {
  if (stream_.has_value()) {
    stream_->ApplyChronon(monitor_->now(), &*monitor_, &report_, on_op);
  }
  PULLMON_ASSIGN_OR_RETURN(StepResult step, monitor_->Step());
  PULLMON_RETURN_NOT_OK(session_->status());
  report_.notifications_delivered += step.captured.size();
  return Status::OK();
}

Result<ProxyRunReport> MonitorRun::RunToEnd() {
  while (monitor_->now() < problem_->epoch.length) {
    PULLMON_RETURN_NOT_OK(StepChronon());
  }
  return Finish();
}

Result<ProxyRunReport> MonitorRun::Finish(const Schedule* explore_schedule) {
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start_)
                             .count();
  OnlineRunResult run = monitor_->RunResult();
  if (kind_ == Kind::kChurn) {
    // Cancelled submissions leave the denominator.
    run.completeness = monitor_->Completeness();
    static_cast<ChurnStats&>(report_) = monitor_->churn_stats();
  } else {
    if (explore_schedule != nullptr) {
      for (Chronon t = 0; t < problem_->epoch.length; ++t) {
        for (ResourceId r : explore_schedule->ProbesAt(t)) {
          PULLMON_RETURN_NOT_OK(run.schedule.AddProbe(r, t));
        }
      }
      run.probes_used += report_.estimation_explore_probes;
    }
    run.completeness = EvaluateCompleteness(problem_->profiles, run.schedule);
  }
  // The monitor's own capture accounting must agree with the
  // schedule-based evaluation, except under forecasts: an adaptive
  // monitor only ever saw predicted submissions.
  if (kind_ != Kind::kAdaptive) {
    PULLMON_CHECK(run.completeness.captured_t_intervals ==
                  run.t_intervals_completed);
  }
  run.elapsed_seconds = elapsed;
  session_->FinishReport(std::move(run));
  return std::move(report_);
}

}  // namespace pullmon
