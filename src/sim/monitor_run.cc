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
  } else {
    PULLMON_RETURN_NOT_OK(config.ValidateEstimation());
  }
  PULLMON_RETURN_NOT_OK(BuildSubstrate(config, spec, seed, &substrate_));
  const MonitoringProblem& problem = substrate_.problem;
  session_.emplace(&*substrate_.network, problem.num_resources,
                   substrate_.proxy, &report_);
  monitor_.emplace(problem.num_resources, problem.epoch.length,
                   monitor_budget.value_or(problem.budget),
                   substrate_.policy.get(), spec.mode,
                   MonitorOptionsFor(config));
  session_->AttachTo(&*monitor_);
  if (kind == Kind::kChurn) stream_.emplace(problem, config.churn, seed);
  start_ = std::chrono::steady_clock::now();
  return Status::OK();
}

void MonitorRun::RegisterProfiles() {
  for (const Profile& p : substrate_.problem.profiles) {
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

Result<ProxyRunReport> MonitorRun::Finish(const Schedule* explore_schedule) {
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start_)
                             .count();
  OnlineRunResult run = monitor_->RunResult();
  if (explore_schedule == nullptr) {
    run.completeness = monitor_->Completeness();
    // The monitor's own capture accounting must agree with the
    // schedule-based evaluation (cancelled submissions excluded).
    PULLMON_CHECK(run.completeness.captured_t_intervals ==
                  run.t_intervals_completed);
    static_cast<ChurnStats&>(report_) = monitor_->churn_stats();
  } else {
    // The monitor only ever saw predicted submissions, so its own
    // capture accounting measures the forecasts, not the ground truth.
    const MonitoringProblem& problem = substrate_.problem;
    Schedule combined(problem.epoch.length);
    for (Chronon t = 0; t < problem.epoch.length; ++t) {
      for (ResourceId r : run.schedule.ProbesAt(t)) {
        PULLMON_RETURN_NOT_OK(combined.AddProbe(r, t));
      }
      for (ResourceId r : explore_schedule->ProbesAt(t)) {
        PULLMON_RETURN_NOT_OK(combined.AddProbe(r, t));
      }
    }
    run.completeness = EvaluateCompleteness(problem.profiles, combined);
    run.schedule = std::move(combined);
    run.probes_used += report_.estimation_explore_probes;
  }
  run.elapsed_seconds = elapsed;
  session_->FinishReport(std::move(run));
  return std::move(report_);
}

}  // namespace pullmon
