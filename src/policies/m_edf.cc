#include "policies/m_edf.h"

namespace pullmon {

double MEdfPolicy::Value(const TIntervalRuntime& parent, Chronon now) {
  double total = 0.0;
  const auto& eis = parent.source->eis();
  for (std::size_t i = 0; i < eis.size(); ++i) {
    if (parent.ei_captured[i]) continue;
    total += SingleEdfValue(eis[i], now);
  }
  return total;
}

double MEdfPolicy::Score(const ExecutionInterval& ei,
                         const TIntervalRuntime& parent, int ei_index,
                         Chronon now) {
  (void)ei;
  (void)ei_index;
  // Value()'s sum in closed form over the maintained aggregate. Every
  // term is an integer, so the double is bit-identical to the scan.
  const int64_t started_uncaptured =
      parent.edf.num_started - parent.num_captured;
  return static_cast<double>(parent.edf.uncaptured_finish_sum -
                             static_cast<int64_t>(now) * started_uncaptured);
}

}  // namespace pullmon
