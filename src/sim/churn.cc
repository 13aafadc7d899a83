#include "sim/churn.h"

#include <cmath>
#include <utility>

#include "sim/monitor_run.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/zipf.h"

namespace pullmon {

Status ChurnOptions::Validate() const {
  if (ops_per_chronon < 0.0) {
    return Status::InvalidArgument("churn ops_per_chronon must be >= 0");
  }
  if (cancel_fraction < 0.0 || edit_fraction < 0.0 ||
      unregister_fraction < 0.0) {
    return Status::InvalidArgument("churn mix fractions must be >= 0");
  }
  const double sum =
      cancel_fraction + edit_fraction + unregister_fraction;
  if (std::abs(sum - 1.0) > 1e-6) {
    return Status::InvalidArgument(StringFormat(
        "churn mix fractions must sum to 1 (got %.6f)", sum));
  }
  if (zipf_theta < 0.0) {
    return Status::InvalidArgument("churn zipf_theta must be >= 0");
  }
  return Status::OK();
}

ChurnWorkload GenerateChurnWorkload(const ChurnOptions& options,
                                    int num_profiles, Chronon epoch_length,
                                    uint64_t seed) {
  ChurnWorkload workload;
  if (!options.enabled || options.ops_per_chronon <= 0.0 ||
      num_profiles <= 0) {
    return workload;
  }
  Rng rng(seed);
  ZipfDistribution activity(options.zipf_theta,
                            static_cast<uint64_t>(num_profiles));
  for (Chronon t = 0; t < epoch_length; ++t) {
    int64_t count = rng.NextPoisson(options.ops_per_chronon);
    for (int64_t i = 0; i < count; ++i) {
      ChurnEvent event;
      event.chronon = t;
      double mix = rng.NextDouble();
      if (mix < options.cancel_fraction) {
        event.kind = ChurnEvent::Kind::kCancel;
        ++workload.cancels;
      } else if (mix < options.cancel_fraction + options.edit_fraction) {
        event.kind = ChurnEvent::Kind::kEdit;
        ++workload.edits;
      } else {
        event.kind = ChurnEvent::Kind::kUnregister;
        ++workload.unregisters;
      }
      event.profile = static_cast<int>(activity.Sample(&rng)) - 1;
      event.pick = rng.Next();
      event.deadline_delta = static_cast<Chronon>(rng.NextInt(1, 12));
      event.weight_factor = 0.5 + rng.NextDouble();
      workload.events.push_back(event);
    }
  }
  return workload;
}

TInterval BuildEditReplacement(const TInterval& current, Chronon now,
                               Chronon epoch_length, Chronon delta,
                               double weight_factor) {
  TInterval replacement;
  for (const ExecutionInterval& ei : current.eis()) {
    if (ei.start < now) continue;
    ExecutionInterval moved = ei;
    moved.finish = std::min<Chronon>(ei.finish + delta, epoch_length - 1);
    replacement.AddEi(moved);
  }
  replacement.set_weight(current.weight() * weight_factor);
  return replacement;
}

ChurnStream::ChurnStream(const MonitoringProblem& problem,
                         const ChurnOptions& churn, uint64_t seed)
    : epoch_length_(problem.epoch.length),
      arrivals_(static_cast<std::size_t>(epoch_length_)),
      // The churn stream draws from its own generator, so enabling churn
      // perturbs no trace/profile/fault/policy randomness.
      workload_(GenerateChurnWorkload(
          churn, static_cast<int>(problem.profiles.size()), epoch_length_,
          churn.seed ^ (seed * 0x9E3779B97F4A7C15ULL))),
      defs_(problem.profiles.size()) {
  for (std::size_t i = 0; i < problem.profiles.size(); ++i) {
    for (const TInterval& eta : problem.profiles[i].t_intervals()) {
      if (eta.empty()) continue;
      const Chronon at = eta.EarliestStart();
      if (at < 0 || at >= epoch_length_) continue;
      arrivals_[static_cast<std::size_t>(at)].emplace_back(
          static_cast<ProfileId>(i), &eta);
    }
  }
}

void ChurnStream::Resume(
    Chronon start, const std::vector<MonitorSubmissionImage>& submissions) {
  // Acceptance order is flat order, which is exactly how the original
  // run appended them per profile.
  for (const MonitorSubmissionImage& sub : submissions) {
    defs_[static_cast<std::size_t>(sub.profile)].push_back(sub.definition);
  }
  while (next_event_ < workload_.events.size() &&
         workload_.events[next_event_].chronon < start) {
    ++next_event_;
  }
}

void ChurnStream::ApplyChronon(Chronon now, DynamicMonitor* monitor,
                               ProxyRunReport* report,
                               const std::function<void(const Op&)>& on_op) {
  auto record = [&](int kind, ProfileId profile, int submission,
                    bool accepted) {
    // Rejected operations are part of the workload (arrivals for
    // unregistered clients, cancels of completed submissions, ...) and
    // keep the error paths hot.
    if (!accepted) ++report->churn_rejected_ops;
    if (on_op) on_op(Op{kind, profile, submission, accepted});
  };
  for (const auto& [pid, eta] : arrivals_[static_cast<std::size_t>(now)]) {
    auto submitted = monitor->Submit(pid, *eta);
    if (submitted.ok()) defs_[static_cast<std::size_t>(pid)].push_back(*eta);
    record(kArrival, pid, submitted.ok() ? *submitted : -1, submitted.ok());
  }
  while (next_event_ < workload_.events.size() &&
         workload_.events[next_event_].chronon == now) {
    const ChurnEvent& event = workload_.events[next_event_++];
    auto& defs = defs_[static_cast<std::size_t>(event.profile)];
    const int count = static_cast<int>(defs.size());
    // An inactive client's op targets submission 0 on purpose.
    const int sub =
        count > 0 ? static_cast<int>(event.pick % static_cast<uint64_t>(count))
                  : 0;
    bool accepted = false;
    switch (event.kind) {
      case ChurnEvent::Kind::kCancel:
        accepted = monitor->Cancel(event.profile, sub).ok();
        break;
      case ChurnEvent::Kind::kEdit: {
        TInterval replacement;
        if (count > 0) {
          replacement = BuildEditReplacement(
              defs[static_cast<std::size_t>(sub)], now, epoch_length_,
              event.deadline_delta, event.weight_factor);
        }
        accepted = monitor->Edit(event.profile, sub, replacement).ok();
        if (accepted) defs.push_back(std::move(replacement));
        break;
      }
      case ChurnEvent::Kind::kUnregister:
        accepted = monitor->Unregister(event.profile).ok();
        break;
    }
    record(static_cast<int>(event.kind), event.profile, sub, accepted);
  }
}

Result<ProxyRunReport> RunChurnOnce(const SimulationConfig& config,
                                    const PolicySpec& spec, uint64_t seed) {
  MonitorRun run;
  PULLMON_RETURN_NOT_OK(
      run.Start(config, spec, seed, MonitorRun::Kind::kChurn));
  run.RegisterProfiles();
  for (Chronon now = 0; now < run.problem().epoch.length; ++now) {
    PULLMON_RETURN_NOT_OK(run.StepChronon());
  }
  return run.Finish();
}

}  // namespace pullmon
