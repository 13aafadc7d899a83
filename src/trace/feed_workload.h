#ifndef PULLMON_TRACE_FEED_WORKLOAD_H_
#define PULLMON_TRACE_FEED_WORKLOAD_H_

#include "trace/update_trace.h"
#include "util/random.h"
#include "util/status.h"

namespace pullmon {

/// A Web-feed-shaped update workload following the measurement study the
/// paper cites as [10]: a majority of feeds publish on a near-hourly
/// schedule, activity across feeds is heavily skewed (Zipf ~1.37), and
/// the rest update irregularly. Complements the Poisson and auction
/// generators with a third, more structured source model.
struct FeedWorkloadOptions {
  int num_feeds = 400;
  Chronon epoch_length = 1000;
  /// Wall-clock anchoring of the chronon grid; "hourly" feeds post every
  /// `chronons_per_hour` chronons.
  Chronon chronons_per_hour = 60;
  /// Fraction of feeds with a (jittered) periodic posting schedule —
  /// 0.55 per [10].
  double periodic_fraction = 0.55;
  /// Gaussian jitter (chronons) applied to each periodic posting.
  double period_jitter = 2.0;
  /// Spread of periods around an hour: each periodic feed's period is
  /// chronons_per_hour times a log-normal factor with this sigma.
  double period_spread = 0.35;
  /// Mean epoch-level posting count of an *average* aperiodic feed.
  double aperiodic_lambda = 10.0;
  /// Zipf skew of activity across aperiodic feeds (alpha of [10]).
  double popularity_alpha = 1.37;
};

/// Draws a feed workload trace. Deterministic given `rng`.
Result<UpdateTrace> GenerateFeedWorkload(const FeedWorkloadOptions& options,
                                         Rng* rng);

}  // namespace pullmon

#endif  // PULLMON_TRACE_FEED_WORKLOAD_H_
