#ifndef PULLMON_PROFILEGEN_AUCTION_WATCH_H_
#define PULLMON_PROFILEGEN_AUCTION_WATCH_H_

#include <vector>

#include "core/profile.h"
#include "trace/update_model.h"
#include "trace/update_trace.h"
#include "util/status.h"

namespace pullmon {

/// The "AuctionWatch(k)" profile template of Section 5.1: monitor an
/// item sold in k parallel auctions and notify the user once a new bid
/// was posted in *all* of them. Given the update trace and the chosen
/// resources {r_1, ..., r_k}, the i-th t-interval combines the execution
/// interval opened by the i-th update of every resource (each EI's
/// length determined by the overwrite / window(W) restriction); the
/// number of t-intervals is the minimum update count among the
/// resources. InvalidArgument if `resources` is empty or contains
/// duplicates/out-of-range ids.
Result<Profile> MakeAuctionWatchProfile(
    const UpdateTrace& trace, const std::vector<ResourceId>& resources,
    const EiDerivationOptions& ei_options);

/// The arbitrage template of the paper's introduction (Figure 1): pairs
/// every EI of `market_a` with each *time-overlapping* EI of `market_b`
/// into rank-2 t-intervals, so a captured pair certifies two price
/// observations with a common time reference. Pairing is greedy
/// two-pointer (each EI used at most once) to avoid quadratic blowup.
Result<Profile> MakeArbitrageProfile(const UpdateTrace& trace,
                                     ResourceId market_a,
                                     ResourceId market_b,
                                     const EiDerivationOptions& ei_options);

}  // namespace pullmon

#endif  // PULLMON_PROFILEGEN_AUCTION_WATCH_H_
