#include "profilegen/auction_watch.h"

#include <algorithm>
#include <set>

#include "util/string_util.h"

namespace pullmon {

Result<Profile> MakeAuctionWatchProfile(
    const UpdateTrace& trace, const std::vector<ResourceId>& resources,
    const EiDerivationOptions& ei_options) {
  if (resources.empty()) {
    return Status::InvalidArgument("AuctionWatch requires >= 1 resource");
  }
  std::set<ResourceId> unique(resources.begin(), resources.end());
  if (unique.size() != resources.size()) {
    return Status::InvalidArgument("duplicate resources in AuctionWatch");
  }
  for (ResourceId r : resources) {
    if (r < 0 || r >= trace.num_resources()) {
      return Status::OutOfRange(
          StringFormat("AuctionWatch resource %d outside trace", r));
    }
  }

  std::vector<std::vector<ExecutionInterval>> per_resource;
  per_resource.reserve(resources.size());
  std::size_t rounds = SIZE_MAX;
  for (ResourceId r : resources) {
    per_resource.push_back(DeriveExecutionIntervals(trace, r, ei_options));
    rounds = std::min(rounds, per_resource.back().size());
  }
  if (rounds == SIZE_MAX) rounds = 0;

  Profile profile(
      StringFormat("AuctionWatch(%zu)", resources.size()), {});
  for (std::size_t i = 0; i < rounds; ++i) {
    TInterval eta;
    for (const auto& eis : per_resource) eta.AddEi(eis[i]);
    profile.AddTInterval(std::move(eta));
  }
  return profile;
}

Result<Profile> MakeArbitrageProfile(const UpdateTrace& trace,
                                     ResourceId market_a,
                                     ResourceId market_b,
                                     const EiDerivationOptions& ei_options) {
  if (market_a == market_b) {
    return Status::InvalidArgument("arbitrage needs two distinct markets");
  }
  for (ResourceId r : {market_a, market_b}) {
    if (r < 0 || r >= trace.num_resources()) {
      return Status::OutOfRange(
          StringFormat("arbitrage market %d outside trace", r));
    }
  }
  std::vector<ExecutionInterval> eis_a =
      DeriveExecutionIntervals(trace, market_a, ei_options);
  std::vector<ExecutionInterval> eis_b =
      DeriveExecutionIntervals(trace, market_b, ei_options);

  Profile profile("Arbitrage", {});
  std::size_t i = 0, j = 0;
  while (i < eis_a.size() && j < eis_b.size()) {
    if (eis_a[i].OverlapsInTime(eis_b[j])) {
      profile.AddTInterval(TInterval({eis_a[i], eis_b[j]}));
      ++i;
      ++j;
    } else if (eis_a[i].finish < eis_b[j].start) {
      ++i;
    } else {
      ++j;
    }
  }
  return profile;
}

}  // namespace pullmon
