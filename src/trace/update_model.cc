#include "trace/update_model.h"

#include <algorithm>

namespace pullmon {

const char* LengthRestrictionToString(LengthRestriction restriction) {
  switch (restriction) {
    case LengthRestriction::kOverwrite:
      return "overwrite";
    case LengthRestriction::kWindow:
      return "window";
  }
  return "?";
}

std::vector<ExecutionInterval> DeriveExecutionIntervals(
    const UpdateTrace& trace, ResourceId resource,
    const EiDerivationOptions& options) {
  return DeriveExecutionIntervalsFromEvents(trace.EventsFor(resource),
                                            resource,
                                            trace.epoch_length(), options);
}

std::vector<ExecutionInterval> DeriveExecutionIntervalsFromEvents(
    const std::vector<Chronon>& updates, ResourceId resource,
    Chronon epoch_length, const EiDerivationOptions& options) {
  std::vector<ExecutionInterval> out;
  const Chronon last_chronon = epoch_length - 1;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    Chronon start = updates[i];
    Chronon finish;
    switch (options.restriction) {
      case LengthRestriction::kOverwrite:
        finish = (i + 1 < updates.size()) ? updates[i + 1] - 1
                                          : last_chronon;
        break;
      case LengthRestriction::kWindow:
        finish = std::min<Chronon>(start + options.window, last_chronon);
        break;
      default:
        finish = start;
        break;
    }
    out.emplace_back(resource, start, finish);
  }
  return out;
}

std::vector<ExecutionInterval> DeriveAllExecutionIntervals(
    const UpdateTrace& trace, const EiDerivationOptions& options) {
  std::vector<ExecutionInterval> out;
  for (ResourceId r = 0; r < trace.num_resources(); ++r) {
    auto eis = DeriveExecutionIntervals(trace, r, options);
    out.insert(out.end(), eis.begin(), eis.end());
  }
  return out;
}

}  // namespace pullmon
