#ifndef PULLMON_TRACE_AUCTION_GENERATOR_H_
#define PULLMON_TRACE_AUCTION_GENERATOR_H_

#include <string>
#include <vector>

#include "trace/update_trace.h"
#include "util/random.h"
#include "util/status.h"

namespace pullmon {

/// One bid event in an auction trace. Auction ids double as resource ids.
struct AuctionBid {
  int auction = 0;
  Chronon chronon = 0;
  double amount = 0.0;
  std::string bidder;
};

/// Static description of one simulated auction listing.
struct AuctionInfo {
  int id = 0;
  std::string item;     // e.g. "Intel Core Duo laptop"
  Chronon open = 0;     // first chronon the listing is live
  Chronon close = 0;    // last chronon (auction end)
  double start_price = 0.0;
};

/// A full auction trace: listings plus their chronologically ordered
/// bids. This is the library's stand-in for the paper's real-world eBay
/// trace (three months of Intel/IBM/Dell laptop auctions scraped from
/// eBay Web feeds); see DESIGN.md for the substitution rationale.
struct AuctionTrace {
  Chronon epoch_length = 0;
  std::vector<AuctionInfo> auctions;
  std::vector<AuctionBid> bids;  // sorted by (auction, chronon)

  /// Bids of one auction (contiguous slice of `bids`).
  std::vector<AuctionBid> BidsFor(int auction) const;

  /// Projects bid timestamps into an update-event trace (one resource per
  /// auction) — the input the scheduling layer consumes.
  Result<UpdateTrace> ToUpdateTrace() const;
};

/// Knobs of the synthetic eBay-style bidding process.
struct AuctionTraceOptions {
  int num_auctions = 400;
  Chronon epoch_length = 1000;
  /// Mean auction duration as a fraction of the epoch.
  double mean_duration_fraction = 0.35;
  /// Baseline bid arrival rate (bids/chronon) early in an auction.
  double base_bid_rate = 0.02;
  /// Peak multiplier of the arrival rate at the auction close, modelling
  /// last-minute "sniping" observed on real auction sites.
  double snipe_intensity = 6.0;
  /// Exponential decay span of the sniping ramp, as a fraction of the
  /// auction duration.
  double snipe_tau_fraction = 0.08;
  double start_price_min = 50.0;
  double start_price_max = 400.0;
  /// Mean bid increment in currency units (exponentially distributed).
  double increment_mean = 12.0;
  int num_bidders = 200;
  /// When true every auction opens with a bid at its first chronon, so
  /// each resource has at least one update.
  bool seed_opening_bid = true;
};

/// Simulates the bidding process: per auction, a non-homogeneous Poisson
/// bid arrival whose rate ramps up exponentially toward the close
/// (thinning via per-chronon Bernoulli draws), monotonically increasing
/// bid amounts, and bidders drawn uniformly from a fixed population.
Result<AuctionTrace> GenerateAuctionTrace(const AuctionTraceOptions& options,
                                          Rng* rng);

}  // namespace pullmon

#endif  // PULLMON_TRACE_AUCTION_GENERATOR_H_
