#include "core/policy.h"

namespace pullmon {

EdfAggregate ScanEdfAggregate(const TIntervalRuntime& rt, Chronon now) {
  EdfAggregate aggregate;
  const auto& eis = rt.source->eis();
  for (std::size_t i = 0; i < eis.size(); ++i) {
    if (eis[i].start <= now) ++aggregate.num_started;
    if (!rt.ei_captured[i]) aggregate.uncaptured_finish_sum += eis[i].finish;
  }
  return aggregate;
}

const char* ExecutionModeToString(ExecutionMode mode) {
  switch (mode) {
    case ExecutionMode::kPreemptive:
      return "P";
    case ExecutionMode::kNonPreemptive:
      return "NP";
  }
  return "?";
}

const char* PolicyLevelToString(PolicyLevel level) {
  switch (level) {
    case PolicyLevel::kSingleEi:
      return "single-EI";
    case PolicyLevel::kRank:
      return "rank";
    case PolicyLevel::kMultiEi:
      return "multi-EIs";
    case PolicyLevel::kBaseline:
      return "baseline";
  }
  return "?";
}

}  // namespace pullmon
