#ifndef PULLMON_PROFILEGEN_PROFILE_GENERATOR_H_
#define PULLMON_PROFILEGEN_PROFILE_GENERATOR_H_

#include <vector>

#include "core/profile.h"
#include "trace/update_model.h"
#include "trace/update_trace.h"
#include "util/random.h"
#include "util/status.h"
#include "util/zipf.h"

namespace pullmon {

/// Knobs of the three-stage synthetic profile generator of Section 5.1.
struct ProfileGeneratorOptions {
  /// m: number of profiles to generate.
  int num_profiles = 0;
  /// k: maximal rank. Each profile's rank is drawn from Zipf(beta, k).
  int max_rank = 1;
  /// Inter-user preference: resources are drawn from Zipf(alpha, n);
  /// alpha = 0 is uniform, larger values concentrate on "popular"
  /// resources (Web feeds exhibit alpha = 1.37 per [10]).
  double alpha = 0.0;
  /// Intra-user preference: beta = 0 draws ranks uniformly from [1, k];
  /// larger values prefer less complex profiles.
  double beta = 0.0;
  /// Overwrite or window(W) restriction for EI lengths.
  EiDerivationOptions ei_options;
  /// Caps the number of t-intervals per profile; 0 = uncapped (every
  /// update round in the trace becomes a t-interval).
  int max_t_intervals_per_profile = 0;
};

/// Generates m profiles against an update trace:
///  1. rank ~ Zipf(beta, k)                     (intra-user preference)
///  2. `rank` distinct resources ~ Zipf(alpha, n) (inter-user preference)
///  3. t-intervals instantiated with the AuctionWatch(rank) template
///     under the configured EI length restriction.
/// Profiles whose resources carry no updates get zero t-intervals and
/// are regenerated with fresh resources (up to a bounded number of
/// retries) so that m non-degenerate profiles are returned whenever the
/// trace allows it; otherwise the short list is returned.
Result<std::vector<Profile>> GenerateProfiles(
    const UpdateTrace& trace, const ProfileGeneratorOptions& options,
    Rng* rng);

/// Draws `count` distinct resource ids from Zipf(alpha, n). The Zipf
/// rank order coincides with resource ids (resource 0 most popular),
/// matching how feed popularity is indexed in the paper's setup.
/// InvalidArgument when count > n.
Result<std::vector<ResourceId>> DrawDistinctResources(int count, int n,
                                                      double alpha,
                                                      Rng* rng);

/// The same draw over a prebuilt popularity table (n = popularity.n()):
/// GenerateProfiles builds the O(n) Zipf CDF once and draws every
/// profile's resources from it. Consumes `rng` exactly as the overload
/// above does for equal (n, alpha).
Result<std::vector<ResourceId>> DrawDistinctResources(
    int count, const ZipfDistribution& popularity, Rng* rng);

}  // namespace pullmon

#endif  // PULLMON_PROFILEGEN_PROFILE_GENERATOR_H_
