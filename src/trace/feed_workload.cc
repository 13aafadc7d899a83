#include "trace/feed_workload.h"

#include <algorithm>
#include <cmath>

#include "util/zipf.h"

namespace pullmon {

Result<UpdateTrace> GenerateFeedWorkload(const FeedWorkloadOptions& options,
                                         Rng* rng) {
  if (options.num_feeds <= 0 || options.epoch_length <= 0) {
    return Status::InvalidArgument("feed workload sizes must be positive");
  }
  if (options.chronons_per_hour <= 0) {
    return Status::InvalidArgument("chronons_per_hour must be positive");
  }
  if (options.periodic_fraction < 0.0 || options.periodic_fraction > 1.0) {
    return Status::InvalidArgument("periodic_fraction must be in [0,1]");
  }
  UpdateTrace trace(options.num_feeds, options.epoch_length);
  const Chronon last = options.epoch_length - 1;

  // Aperiodic activity skew: feed i gets intensity proportional to the
  // Zipf pmf of rank i+1, normalized to the configured mean.
  ZipfDistribution popularity(options.popularity_alpha,
                              static_cast<uint64_t>(options.num_feeds));
  double mean_pmf = 1.0 / static_cast<double>(options.num_feeds);

  for (ResourceId feed = 0; feed < options.num_feeds; ++feed) {
    bool periodic = rng->NextBool(options.periodic_fraction);
    if (periodic) {
      double factor =
          std::exp(rng->NextGaussian() * options.period_spread -
                   0.5 * options.period_spread * options.period_spread);
      Chronon period = std::max<Chronon>(
          2, static_cast<Chronon>(std::lround(
                 static_cast<double>(options.chronons_per_hour) * factor)));
      Chronon phase = static_cast<Chronon>(
          rng->NextBounded(static_cast<uint64_t>(period)));
      for (Chronon t = phase; t <= last; t += period) {
        double jittered =
            static_cast<double>(t) +
            rng->NextGaussian() * options.period_jitter;
        Chronon when = static_cast<Chronon>(std::lround(
            std::clamp(jittered, 0.0, static_cast<double>(last))));
        PULLMON_RETURN_NOT_OK(trace.AddEvent(feed, when));
      }
    } else {
      double intensity =
          options.aperiodic_lambda *
          popularity.Pmf(static_cast<uint64_t>(feed) + 1) / mean_pmf;
      int64_t count = rng->NextPoisson(intensity);
      for (int64_t i = 0; i < count; ++i) {
        Chronon t = static_cast<Chronon>(
            rng->NextBounded(static_cast<uint64_t>(last + 1)));
        PULLMON_RETURN_NOT_OK(trace.AddEvent(feed, t));
      }
    }
  }
  return trace;
}

}  // namespace pullmon
