#include "core/online_executor.h"

#include <chrono>
#include <vector>

#include "core/dynamic_monitor.h"
#include "core/reference_executor.h"
#include "util/logging.h"

namespace pullmon {

const char* ExecutorBackendToString(ExecutorBackend backend) {
  switch (backend) {
    case ExecutorBackend::kIndexed:
      return "indexed";
    case ExecutorBackend::kReference:
      return "reference";
  }
  return "?";
}

Status RetryPolicy::Validate() const {
  if (max_retries < 0) {
    return Status::InvalidArgument("max_retries must be >= 0");
  }
  if (backoff_base < 0.0) {
    return Status::InvalidArgument("backoff_base must be >= 0");
  }
  if (backoff_multiplier < 1.0) {
    return Status::InvalidArgument("backoff_multiplier must be >= 1");
  }
  if (backoff_budget <= 0.0) {
    return Status::InvalidArgument("backoff_budget must be > 0");
  }
  return Status::OK();
}

OnlineExecutor::OnlineExecutor(const MonitoringProblem* problem,
                               Policy* policy, ExecutionMode mode)
    : problem_(problem), policy_(policy), mode_(mode) {}

Result<OnlineRunResult> OnlineExecutor::Run() {
  if (backend_ == ExecutorBackend::kReference) {
    ReferenceExecutor reference(problem_, policy_, mode_);
    if (capture_callback_) reference.set_capture_callback(capture_callback_);
    if (probe_callback_) reference.set_probe_callback(probe_callback_);
    reference.set_retry_policy(retry_);
    reference.set_breaker_options(breaker_);
    return reference.Run();
  }
  PULLMON_RETURN_NOT_OK(problem_->Validate());
  PULLMON_RETURN_NOT_OK(retry_.Validate());
  PULLMON_RETURN_NOT_OK(breaker_.Validate());

  MonitorOptions options;
  options.retry = retry_;
  options.breaker = breaker_;
  DynamicMonitor monitor(problem_->num_resources, problem_->epoch.length,
                         problem_->budget, policy_, mode_, options);

  // Register every profile and submit its t-intervals in profile order,
  // so flat ids follow the problem's order. Submission ids are
  // per-profile and empty t-intervals are unsubmittable, so an explicit
  // submission -> t-interval-index map keeps capture callbacks addressed
  // by the t-interval's index within its profile.
  std::vector<std::vector<std::size_t>> t_index_of_submission(
      problem_->profiles.size());
  monitor.Reserve(problem_->TotalTIntervalCount(), problem_->TotalEiCount());
  for (ProfileId pid = 0;
       pid < static_cast<ProfileId>(problem_->profiles.size()); ++pid) {
    const Profile& p = problem_->profiles[static_cast<std::size_t>(pid)];
    PULLMON_CHECK(monitor.RegisterProfile(p.name()) == pid);
    auto& t_index = t_index_of_submission[static_cast<std::size_t>(pid)];
    for (std::size_t ti = 0; ti < p.t_intervals().size(); ++ti) {
      const TInterval& eta = p.t_intervals()[ti];
      if (eta.empty()) continue;
      PULLMON_ASSIGN_OR_RETURN(int submission,
                               monitor.SubmitStable(pid, &eta));
      PULLMON_CHECK(static_cast<std::size_t>(submission) == t_index.size());
      t_index.push_back(ti);
    }
  }

  if (probe_callback_) monitor.set_probe_callback(probe_callback_);
  if (capture_callback_) {
    monitor.set_capture_callback(
        [this, &t_index_of_submission](ProfileId profile, int submission,
                                       Chronon now) {
          capture_callback_(
              profile,
              t_index_of_submission[static_cast<std::size_t>(profile)]
                                   [static_cast<std::size_t>(submission)],
              now);
        });
  }

  const auto run_start = std::chrono::steady_clock::now();
  for (Chronon now = 0; now < problem_->epoch.length; ++now) {
    PULLMON_RETURN_NOT_OK(monitor.Step().status());
  }
  const auto run_end = std::chrono::steady_clock::now();

  OnlineRunResult result = monitor.RunResult();
  result.elapsed_seconds =
      std::chrono::duration<double>(run_end - run_start).count();
  // Score against the problem itself, empty t-intervals included.
  result.completeness =
      EvaluateCompleteness(problem_->profiles, result.schedule);
  PULLMON_CHECK(result.completeness.captured_t_intervals ==
                result.t_intervals_completed);
  return result;
}

}  // namespace pullmon
