#include "trace/perturb.h"

#include <algorithm>
#include <cmath>

namespace pullmon {

Result<UpdateTrace> PerturbTrace(const UpdateTrace& truth,
                                 const TracePerturbationOptions& options,
                                 Rng* rng) {
  if (options.jitter_stddev < 0.0 || options.miss_probability < 0.0 ||
      options.miss_probability > 1.0 || options.spurious_rate < 0.0) {
    return Status::InvalidArgument("malformed perturbation options");
  }
  UpdateTrace estimated(truth.num_resources(), truth.epoch_length());
  const Chronon last = truth.epoch_length() - 1;
  for (ResourceId r = 0; r < truth.num_resources(); ++r) {
    for (Chronon t : truth.EventsFor(r)) {
      if (rng->NextBool(options.miss_probability)) continue;
      Chronon predicted = t;
      if (options.jitter_stddev > 0.0) {
        double shifted = static_cast<double>(t) +
                         rng->NextGaussian() * options.jitter_stddev;
        predicted = static_cast<Chronon>(std::lround(
            std::clamp(shifted, 0.0, static_cast<double>(last))));
      }
      PULLMON_RETURN_NOT_OK(estimated.AddEvent(r, predicted));
    }
    if (options.spurious_rate > 0.0) {
      int64_t extras = rng->NextPoisson(options.spurious_rate);
      for (int64_t i = 0; i < extras; ++i) {
        Chronon when = static_cast<Chronon>(
            rng->NextBounded(static_cast<uint64_t>(last + 1)));
        PULLMON_RETURN_NOT_OK(estimated.AddEvent(r, when));
      }
    }
  }
  return estimated;
}

}  // namespace pullmon
