#include "profilegen/profile_generator.h"

#include <set>

#include "profilegen/auction_watch.h"
#include "util/string_util.h"
#include "util/zipf.h"

namespace pullmon {

namespace {

Status CheckDrawCount(int count, int n) {
  if (count <= 0) {
    return Status::InvalidArgument("resource count must be positive");
  }
  if (count > n) {
    return Status::InvalidArgument(StringFormat(
        "cannot draw %d distinct resources from %d", count, n));
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<ResourceId>> DrawDistinctResources(int count, int n,
                                                      double alpha,
                                                      Rng* rng) {
  PULLMON_RETURN_NOT_OK(CheckDrawCount(count, n));
  return DrawDistinctResources(
      count, ZipfDistribution(alpha, static_cast<uint64_t>(n)), rng);
}

Result<std::vector<ResourceId>> DrawDistinctResources(
    int count, const ZipfDistribution& popularity, Rng* rng) {
  const int n = static_cast<int>(popularity.n());
  PULLMON_RETURN_NOT_OK(CheckDrawCount(count, n));
  std::set<ResourceId> chosen;
  // Rejection sampling; for pathological cases (count close to n under a
  // steep alpha) fall back to filling with the most popular unchosen ids.
  int attempts = 0;
  const int max_attempts = 64 * count + 1024;
  while (static_cast<int>(chosen.size()) < count &&
         attempts < max_attempts) {
    chosen.insert(static_cast<ResourceId>(popularity.Sample(rng) - 1));
    ++attempts;
  }
  for (ResourceId r = 0;
       static_cast<int>(chosen.size()) < count && r < n; ++r) {
    chosen.insert(r);
  }
  return std::vector<ResourceId>(chosen.begin(), chosen.end());
}

Result<std::vector<Profile>> GenerateProfiles(
    const UpdateTrace& trace, const ProfileGeneratorOptions& options,
    Rng* rng) {
  if (options.num_profiles <= 0) {
    return Status::InvalidArgument("num_profiles must be positive");
  }
  if (options.max_rank <= 0) {
    return Status::InvalidArgument("max_rank must be positive");
  }
  if (options.max_rank > trace.num_resources()) {
    return Status::InvalidArgument(
        "max_rank exceeds the number of resources");
  }
  ZipfDistribution rank_dist(options.beta,
                             static_cast<uint64_t>(options.max_rank));
  const ZipfDistribution popularity(
      options.alpha, static_cast<uint64_t>(trace.num_resources()));
  std::vector<Profile> profiles;
  profiles.reserve(static_cast<std::size_t>(options.num_profiles));

  for (int i = 0; i < options.num_profiles; ++i) {
    Profile profile;
    // A profile over resources with no trace activity has no t-intervals;
    // redraw its resources a few times before accepting it as empty.
    for (int attempt = 0; attempt < 16; ++attempt) {
      int rank = static_cast<int>(rank_dist.Sample(rng));
      PULLMON_ASSIGN_OR_RETURN(
          std::vector<ResourceId> resources,
          DrawDistinctResources(rank, popularity, rng));
      PULLMON_ASSIGN_OR_RETURN(
          profile,
          MakeAuctionWatchProfile(trace, resources, options.ei_options));
      if (!profile.empty()) break;
    }
    if (profile.empty()) continue;  // trace too sparse for this draw
    if (options.max_t_intervals_per_profile > 0 &&
        static_cast<int>(profile.size()) >
            options.max_t_intervals_per_profile) {
      std::vector<TInterval> truncated(
          profile.t_intervals().begin(),
          profile.t_intervals().begin() +
              options.max_t_intervals_per_profile);
      std::string name = profile.name();
      profile = Profile(std::move(name), std::move(truncated));
    }
    profile.set_name(StringFormat("%s#%d", profile.name().c_str(), i));
    profiles.push_back(std::move(profile));
  }
  return profiles;
}

}  // namespace pullmon
