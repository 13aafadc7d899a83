#include "core/completeness.h"

#include <algorithm>

namespace pullmon {

bool IsCaptured(const ExecutionInterval& ei, const Schedule& schedule) {
  for (Chronon t = ei.start; t <= ei.finish; ++t) {
    if (schedule.HasProbe(ei.resource, t)) return true;
  }
  return false;
}

bool IsCaptured(const TInterval& eta, const Schedule& schedule) {
  if (eta.empty()) return false;
  std::size_t captured = 0;
  std::size_t required = eta.required();
  for (const auto& ei : eta.eis()) {
    if (IsCaptured(ei, schedule) && ++captured >= required) return true;
  }
  return false;
}

ProbeIndex::ProbeIndex(const Schedule& schedule) {
  // Counting sort by resource. Walking the chronons in ascending order
  // in the fill pass leaves every resource's group sorted.
  for (Chronon t = 0; t < schedule.epoch_length(); ++t) {
    for (ResourceId r : schedule.ProbesAt(t)) {
      const auto slot = static_cast<std::size_t>(r) + 1;
      if (slot >= offsets_.size()) offsets_.resize(slot + 1, 0);
      ++offsets_[slot];
    }
  }
  for (std::size_t i = 1; i < offsets_.size(); ++i) {
    offsets_[i] += offsets_[i - 1];
  }
  chronons_.resize(schedule.TotalProbes());
  std::vector<std::size_t> next(offsets_);
  for (Chronon t = 0; t < schedule.epoch_length(); ++t) {
    for (ResourceId r : schedule.ProbesAt(t)) {
      chronons_[next[static_cast<std::size_t>(r)]++] = t;
    }
  }
}

bool ProbeIndex::Captures(const ExecutionInterval& ei) const {
  const auto r = static_cast<std::size_t>(ei.resource);
  if (ei.resource < 0 || r + 1 >= offsets_.size()) return false;
  const auto last = chronons_.begin() +
                    static_cast<std::ptrdiff_t>(offsets_[r + 1]);
  const auto it = std::lower_bound(
      chronons_.begin() + static_cast<std::ptrdiff_t>(offsets_[r]), last,
      ei.start);
  return it != last && *it <= ei.finish;
}

bool ProbeIndex::Captures(const TInterval& eta) const {
  if (eta.empty()) return false;
  const std::size_t required = eta.required();
  std::size_t captured = 0;
  std::size_t remaining = eta.size();
  for (const auto& ei : eta.eis()) {
    if (captured + remaining < required) return false;
    --remaining;
    if (Captures(ei) && ++captured >= required) return true;
  }
  return false;
}

CompletenessReport EvaluateCompleteness(const std::vector<Profile>& profiles,
                                        const Schedule& schedule) {
  const ProbeIndex probes(schedule);
  CompletenessReport report;
  report.per_profile.reserve(profiles.size());
  for (const auto& p : profiles) {
    ProfileCompleteness pc;
    pc.total = p.size();
    for (const auto& eta : p.t_intervals()) {
      report.total_weight += eta.weight();
      if (probes.Captures(eta)) {
        ++pc.captured;
        report.captured_weight += eta.weight();
      }
    }
    report.captured_t_intervals += pc.captured;
    report.total_t_intervals += pc.total;
    report.per_profile.push_back(pc);
  }
  return report;
}

double GainedCompleteness(const std::vector<Profile>& profiles,
                          const Schedule& schedule) {
  return EvaluateCompleteness(profiles, schedule).GainedCompleteness();
}

}  // namespace pullmon
