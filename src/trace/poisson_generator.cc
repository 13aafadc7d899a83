#include "trace/poisson_generator.h"

#include <cmath>

namespace pullmon {

Result<UpdateTrace> GeneratePoissonTrace(const PoissonTraceOptions& options,
                                         Rng* rng) {
  if (options.num_resources <= 0) {
    return Status::InvalidArgument("num_resources must be positive");
  }
  if (options.epoch_length <= 0) {
    return Status::InvalidArgument("epoch_length must be positive");
  }
  if (options.lambda < 0.0) {
    return Status::InvalidArgument("lambda must be non-negative");
  }
  UpdateTrace trace(options.num_resources, options.epoch_length);
  for (ResourceId r = 0; r < options.num_resources; ++r) {
    double intensity = options.lambda;
    if (options.heterogeneity > 0.0) {
      // Log-normal multiplier with unit mean:
      // exp(N(-(sigma^2)/2, sigma)) has expectation 1.
      double sigma = options.heterogeneity;
      intensity *= std::exp(rng->NextGaussian() * sigma -
                            0.5 * sigma * sigma);
    }
    int64_t count = rng->NextPoisson(intensity);
    for (int64_t i = 0; i < count; ++i) {
      Chronon t = static_cast<Chronon>(rng->NextBounded(
          static_cast<uint64_t>(options.epoch_length)));
      PULLMON_RETURN_NOT_OK(trace.AddEvent(r, t));
    }
  }
  return trace;
}

}  // namespace pullmon
