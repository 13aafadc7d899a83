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
    : problem_(&problem),
      epoch_length_(problem.epoch.length),
      arrivals_(static_cast<std::size_t>(epoch_length_)),
      // The churn stream draws from its own generator, so enabling churn
      // perturbs no trace/profile/fault/policy randomness.
      workload_(GenerateChurnWorkload(
          churn, static_cast<int>(problem.profiles.size()), epoch_length_,
          churn.seed ^ (seed * 0x9E3779B97F4A7C15ULL))),
      defs_(problem.profiles.size()) {
  for (std::size_t i = 0; i < problem.profiles.size(); ++i) {
    const std::vector<TInterval>& etas = problem.profiles[i].t_intervals();
    for (std::size_t k = 0; k < etas.size(); ++k) {
      if (etas[k].empty()) continue;
      const Chronon at = etas[k].EarliestStart();
      if (at < 0 || at >= epoch_length_) continue;
      arrivals_[static_cast<std::size_t>(at)].emplace_back(
          static_cast<ProfileId>(i), k);
    }
  }
}

const TInterval* ChurnStream::ArrivalAt(ProfileId profile,
                                        std::size_t index) const {
  const std::vector<TInterval>& etas =
      problem_->profiles[static_cast<std::size_t>(profile)].t_intervals();
  return index < etas.size() ? &etas[index] : nullptr;
}

Result<std::vector<TInterval>> ChurnStream::Resume(
    Chronon start, const std::vector<MonitorSubmissionImage>& submissions,
    std::vector<SubmissionOrigin> origins) {
  if (origins.size() != submissions.size()) {
    return Status::InvalidArgument(
        "snapshot names an origin for a different number of submissions");
  }
  // Acceptance order is flat order, which is exactly how the original
  // run appended them per profile, so each edit's `pick % count` sees
  // the count it saw then.
  std::vector<TInterval> definitions;
  definitions.reserve(submissions.size());
  for (std::size_t i = 0; i < submissions.size(); ++i) {
    const ProfileId profile = submissions[i].profile;
    const SubmissionOrigin& origin = origins[i];
    if (profile < 0 || static_cast<std::size_t>(profile) >= defs_.size()) {
      return Status::InvalidArgument(StringFormat(
          "snapshot submission names unknown profile %d", profile));
    }
    auto& defs = defs_[static_cast<std::size_t>(profile)];
    if (!origin.edit) {
      const TInterval* eta = ArrivalAt(profile, origin.index);
      if (eta == nullptr || eta->empty() || eta->EarliestStart() >= start) {
        return Status::InvalidArgument(StringFormat(
            "snapshot names t-interval %zu of profile %d, which has not "
            "arrived by chronon %d",
            origin.index, profile, start));
      }
      defs.push_back(*eta);
    } else {
      if (origin.index >= workload_.events.size()) {
        return Status::InvalidArgument(StringFormat(
            "snapshot names churn event %zu of %zu", origin.index,
            workload_.events.size()));
      }
      const ChurnEvent& event = workload_.events[origin.index];
      if (event.kind != ChurnEvent::Kind::kEdit ||
          event.profile != profile || event.chronon >= start ||
          defs.empty()) {
        return Status::InvalidArgument(StringFormat(
            "snapshot names churn event %zu, which is no edit profile %d "
            "could have made before chronon %d",
            origin.index, profile, start));
      }
      const TInterval& source =
          defs[static_cast<std::size_t>(event.pick % defs.size())];
      defs.push_back(BuildEditReplacement(source, event.chronon,
                                          epoch_length_,
                                          event.deadline_delta,
                                          event.weight_factor));
    }
    definitions.push_back(defs.back());
  }
  origins_ = std::move(origins);
  while (next_event_ < workload_.events.size() &&
         workload_.events[next_event_].chronon < start) {
    ++next_event_;
  }
  return definitions;
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
  for (const auto& [pid, index] : arrivals_[static_cast<std::size_t>(now)]) {
    const TInterval& eta = *ArrivalAt(pid, index);
    auto submitted = monitor->Submit(pid, eta);
    if (submitted.ok()) {
      defs_[static_cast<std::size_t>(pid)].push_back(eta);
      origins_.push_back(SubmissionOrigin{false, index});
    }
    record(kArrival, pid, submitted.ok() ? *submitted : -1, submitted.ok());
  }
  while (next_event_ < workload_.events.size() &&
         workload_.events[next_event_].chronon == now) {
    const std::size_t event_index = next_event_++;
    const ChurnEvent& event = workload_.events[event_index];
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
        if (accepted) {
          defs.push_back(std::move(replacement));
          origins_.push_back(SubmissionOrigin{true, event_index});
        }
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
  return run.RunToEnd();
}

}  // namespace pullmon
