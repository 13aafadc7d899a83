#include "trace/auction_generator.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace pullmon {

namespace {

const char* const kItemCatalog[] = {
    "Intel Core Duo laptop",     "Intel Centrino laptop",
    "IBM ThinkPad T60 laptop",   "IBM ThinkPad X41 laptop",
    "Dell Latitude D620 laptop", "Dell Inspiron 6400 laptop",
};

}  // namespace

std::vector<AuctionBid> AuctionTrace::BidsFor(int auction) const {
  std::vector<AuctionBid> out;
  for (const auto& bid : bids) {
    if (bid.auction == auction) out.push_back(bid);
  }
  return out;
}

Result<UpdateTrace> AuctionTrace::ToUpdateTrace() const {
  UpdateTrace trace(static_cast<int>(auctions.size()), epoch_length);
  for (const auto& bid : bids) {
    PULLMON_RETURN_NOT_OK(trace.AddEvent(bid.auction, bid.chronon));
  }
  return trace;
}

Result<AuctionTrace> GenerateAuctionTrace(const AuctionTraceOptions& options,
                                          Rng* rng) {
  if (options.num_auctions <= 0) {
    return Status::InvalidArgument("num_auctions must be positive");
  }
  if (options.epoch_length <= 1) {
    return Status::InvalidArgument("epoch_length must be > 1");
  }
  if (options.base_bid_rate < 0.0 || options.snipe_intensity < 0.0) {
    return Status::InvalidArgument("negative rate parameters");
  }

  AuctionTrace trace;
  trace.epoch_length = options.epoch_length;
  const Chronon epoch = options.epoch_length;
  const std::size_t num_items =
      sizeof(kItemCatalog) / sizeof(kItemCatalog[0]);

  for (int a = 0; a < options.num_auctions; ++a) {
    AuctionInfo info;
    info.id = a;
    info.item = kItemCatalog[rng->NextBounded(num_items)];
    // Duration: exponential around the configured mean, clamped to
    // [3, epoch-1] chronons.
    double mean_duration =
        options.mean_duration_fraction * static_cast<double>(epoch);
    Chronon duration = static_cast<Chronon>(
        std::clamp(rng->NextExponential(1.0 / std::max(1.0, mean_duration)),
                   3.0, static_cast<double>(epoch - 1)));
    info.open = static_cast<Chronon>(
        rng->NextBounded(static_cast<uint64_t>(epoch - duration)));
    info.close = info.open + duration;
    info.start_price =
        options.start_price_min +
        rng->NextDouble() * (options.start_price_max -
                             options.start_price_min);
    trace.auctions.push_back(info);

    double price = info.start_price;
    double tau = std::max(
        1.0, options.snipe_tau_fraction * static_cast<double>(duration));
    auto add_bid = [&](Chronon t) {
      price += rng->NextExponential(1.0 / std::max(0.01,
                                                   options.increment_mean));
      AuctionBid bid;
      bid.auction = a;
      bid.chronon = t;
      bid.amount = price;
      bid.bidder = StringFormat(
          "bidder_%03d",
          static_cast<int>(rng->NextBounded(
              static_cast<uint64_t>(std::max(1, options.num_bidders)))));
      trace.bids.push_back(std::move(bid));
    };

    if (options.seed_opening_bid) add_bid(info.open);
    for (Chronon t = info.open + 1; t <= info.close; ++t) {
      // Non-homogeneous arrival rate with an exponential sniping ramp
      // toward the close, thinned per chronon.
      double ramp = options.snipe_intensity *
                    std::exp(-static_cast<double>(info.close - t) / tau);
      double rate = options.base_bid_rate * (1.0 + ramp);
      double p_bid = 1.0 - std::exp(-rate);
      if (rng->NextBool(p_bid)) add_bid(t);
    }
  }

  std::sort(trace.bids.begin(), trace.bids.end(),
            [](const AuctionBid& x, const AuctionBid& y) {
              if (x.auction != y.auction) return x.auction < y.auction;
              return x.chronon < y.chronon;
            });
  return trace;
}

}  // namespace pullmon
