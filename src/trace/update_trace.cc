#include "trace/update_trace.h"

#include <algorithm>

#include "util/string_util.h"

namespace pullmon {

UpdateTrace::UpdateTrace(int num_resources, Chronon epoch_length)
    : num_resources_(num_resources),
      epoch_length_(epoch_length),
      events_by_resource_(
          static_cast<std::size_t>(num_resources < 0 ? 0 : num_resources)) {}

Status UpdateTrace::AddEvent(ResourceId resource, Chronon t) {
  if (resource < 0 || resource >= num_resources_) {
    return Status::InvalidArgument(
        StringFormat("resource %d outside [0,%d)", resource, num_resources_));
  }
  if (t < 0 || t >= epoch_length_) {
    return Status::OutOfRange(
        StringFormat("event chronon %d outside epoch [0,%d)", t,
                     epoch_length_));
  }
  auto& events = events_by_resource_[static_cast<std::size_t>(resource)];
  auto it = std::lower_bound(events.begin(), events.end(), t);
  if (it != events.end() && *it == t) return Status::OK();  // collapse
  events.insert(it, t);
  ++total_events_;
  return Status::OK();
}

const std::vector<Chronon>& UpdateTrace::EventsFor(
    ResourceId resource) const {
  static const std::vector<Chronon>& empty = *new std::vector<Chronon>();
  if (resource < 0 || resource >= num_resources_) return empty;
  return events_by_resource_[static_cast<std::size_t>(resource)];
}

double UpdateTrace::MeanIntensity() const {
  if (num_resources_ == 0) return 0.0;
  return static_cast<double>(total_events_) /
         static_cast<double>(num_resources_);
}

std::vector<UpdateEvent> UpdateTrace::ChronologicalEvents() const {
  std::vector<UpdateEvent> out;
  out.reserve(total_events_);
  for (ResourceId r = 0; r < num_resources_; ++r) {
    for (Chronon t : events_by_resource_[static_cast<std::size_t>(r)]) {
      out.push_back(UpdateEvent{r, t});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const UpdateEvent& a, const UpdateEvent& b) {
              if (a.chronon != b.chronon) return a.chronon < b.chronon;
              return a.resource < b.resource;
            });
  return out;
}

}  // namespace pullmon
