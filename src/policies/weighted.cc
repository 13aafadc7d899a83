#include "policies/weighted.h"

namespace pullmon {

double UtilityMrsfPolicy::Score(const ExecutionInterval& ei,
                                const TIntervalRuntime& parent,
                                int ei_index, Chronon now) {
  (void)ei;
  (void)ei_index;
  (void)now;
  double residual =
      static_cast<double>(parent.profile_rank - parent.num_captured);
  return residual / parent.source->weight();
}

double UtilityEdfPolicy::Score(const ExecutionInterval& ei,
                               const TIntervalRuntime& parent,
                               int ei_index, Chronon now) {
  (void)ei_index;
  return SingleEdfValue(ei, now) / parent.source->weight();
}

double LrsfPolicy::Score(const ExecutionInterval& ei,
                         const TIntervalRuntime& parent, int ei_index,
                         Chronon now) {
  (void)ei;
  (void)ei_index;
  (void)now;
  return -static_cast<double>(parent.profile_rank - parent.num_captured);
}

}  // namespace pullmon
