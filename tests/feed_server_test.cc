#include "feeds/feed_server.h"

#include <gtest/gtest.h>

#include "feeds/atom.h"
#include "trace/poisson_generator.h"

namespace pullmon {
namespace {

FeedItem MakeItem(int i) {
  FeedItem item;
  item.guid = "g" + std::to_string(i);
  item.title = "item " + std::to_string(i);
  item.published = 1167609600 + i;
  return item;
}

TEST(FeedServerTest, PublishKeepsNewestFirst) {
  FeedServer server(0, "test", 10);
  server.Publish(MakeItem(1));
  server.Publish(MakeItem(2));
  ASSERT_EQ(server.items().size(), 2u);
  EXPECT_EQ(server.items()[0].guid, "g2");
  EXPECT_EQ(server.items()[1].guid, "g1");
}

TEST(FeedServerTest, BoundedBufferEvictsOldest) {
  FeedServer server(0, "test", 3);
  for (int i = 0; i < 5; ++i) server.Publish(MakeItem(i));
  EXPECT_EQ(server.items().size(), 3u);
  EXPECT_EQ(server.items().front().guid, "g4");
  EXPECT_EQ(server.items().back().guid, "g2");
  EXPECT_EQ(server.evicted_count(), 2u);
  EXPECT_EQ(server.publish_count(), 5u);
}

TEST(FeedServerTest, ZeroCapacityClampedToOne) {
  FeedServer server(0, "test", 0);
  server.Publish(MakeItem(1));
  server.Publish(MakeItem(2));
  EXPECT_EQ(server.items().size(), 1u);
}

TEST(FeedServerTest, FetchServesParsableRss) {
  FeedServer server(7, "resource seven", 10);
  server.Publish(MakeItem(1));
  std::string xml(server.FetchView());
  EXPECT_EQ(server.fetch_count(), 1u);
  auto parsed = ParseFeed(xml);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->title, "resource seven");
  ASSERT_EQ(parsed->items.size(), 1u);
  EXPECT_EQ(parsed->items[0].guid, "g1");
}

TEST(FeedServerTest, AtomFormatSupported) {
  FeedServer server(1, "atom server", 5, FeedFormat::kAtom1);
  server.Publish(MakeItem(3));
  auto parsed = ParseFeed(server.FetchView());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->items[0].guid, "g3");
}

TEST(FeedServerTest, CapacityZeroAndOneConditionalFetches) {
  // Degenerate capacities behave like capacity one: each publish fully
  // replaces the buffer and rolls the validator.
  for (std::size_t capacity : {std::size_t{0}, std::size_t{1}}) {
    FeedServer server(0, "tiny", capacity);
    std::string etag(server.CurrentETagView());
    for (int i = 0; i < 4; ++i) {
      server.Publish(MakeItem(i));
      auto fetch = server.FetchConditionalView(etag);
      EXPECT_FALSE(fetch.not_modified);
      ASSERT_EQ(server.items().size(), 1u);
      EXPECT_EQ(server.items()[0].guid, MakeItem(i).guid);
      EXPECT_NE(fetch.etag, etag);
      etag = fetch.etag;
    }
    EXPECT_EQ(server.evicted_count(), 3u);
    EXPECT_EQ(server.publish_count(), 4u);
  }
}

TEST(FeedServerTest, ETagRollsOnEveryPublishEvenWithSameGuid) {
  FeedServer server(0, "test", 4);
  server.Publish(MakeItem(1));
  std::string before(server.CurrentETagView());
  server.Publish(MakeItem(1));  // same guid, republished
  EXPECT_NE(server.CurrentETagView(), before);
}

TEST(FeedServerTest, ConditionalFetchAfterFullBufferTurnover) {
  // Client caches a validator, then the buffer turns over completely.
  // The stale validator must not match, and the served body contains
  // only the surviving (new) items.
  FeedServer server(0, "turnover", 3);
  for (int i = 0; i < 3; ++i) server.Publish(MakeItem(i));
  auto first = server.FetchConditionalView("");
  ASSERT_FALSE(first.not_modified);
  std::string first_etag(first.etag);
  for (int i = 3; i < 6; ++i) server.Publish(MakeItem(i));
  auto second = server.FetchConditionalView(first_etag);
  EXPECT_FALSE(second.not_modified);
  EXPECT_NE(second.etag, first_etag);
  auto parsed = ParseFeed(second.body);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->items.size(), 3u);
  EXPECT_EQ(parsed->items[0].guid, "g5");
  EXPECT_EQ(parsed->items[2].guid, "g3");
  EXPECT_EQ(server.evicted_count(), 3u);
  // The turned-over validator is stable until the next publish.
  auto third = server.FetchConditionalView(second.etag);
  EXPECT_TRUE(third.not_modified);
  EXPECT_TRUE(third.body.empty());
  EXPECT_EQ(server.not_modified_count(), 1u);
}

/// What a fetch of `server` must serve: the full render of its channel
/// and its current buffer.
std::string FullRender(const FeedServer& server, FeedFormat format) {
  const std::string id = std::to_string(server.id());
  FeedDocument feed;
  feed.title = server.title();
  feed.link = "http://feeds.example.com/resource/" + id;
  feed.description = "Volatile feed of resource " + id + " (capacity " +
                     std::to_string(server.capacity()) + ")";
  feed.items.assign(server.items().begin(), server.items().end());
  return WriteFeed(feed, format);
}

/// An item whose every text field needs escaping.
FeedItem SpecialCharItem(int i) {
  FeedItem item = MakeItem(i);
  item.title = "Bid <" + std::to_string(i) + "> & \"quoted\" 'it'";
  item.link = "http://example.com/?a=" + std::to_string(i) + "&b=<c>";
  item.description = "5 > 3 & 2 < 4, \"x\" isn't 'y'";
  return item;
}

TEST(FeedServerTest, RenderedBodiesEqualTheFullRender) {
  // Bodies are reassembled from per-item fragments rendered once; they
  // must stay byte-identical to rendering the whole buffer from scratch
  // through publish bursts, fetches, 304s and evictions.
  for (FeedFormat format : {FeedFormat::kRss2, FeedFormat::kAtom1}) {
    for (std::size_t capacity : {std::size_t{0}, std::size_t{1},
                                 std::size_t{3}, std::size_t{50}}) {
      SCOPED_TRACE(::testing::Message()
                   << "format " << static_cast<int>(format)
                   << " capacity " << capacity);
      FeedServer server(4, "Feed & <\"title\"> 'q'", capacity, format);
      EXPECT_EQ(server.FetchView(), FullRender(server, format));  // no items
      std::string etag;
      int next = 0;
      for (int step = 0; step < 60; ++step) {
        const int burst = step % 5;  // 0 publishes: the validator holds
        for (int k = 0; k < burst; ++k) {
          server.Publish(SpecialCharItem(next++));
        }
        const std::string expected = FullRender(server, format);
        auto fetch = server.FetchConditionalView(etag);
        EXPECT_EQ(fetch.etag, server.CurrentETagView());
        if (burst == 0 && !etag.empty()) {
          EXPECT_TRUE(fetch.not_modified);
          EXPECT_TRUE(fetch.body.empty());
        } else {
          EXPECT_FALSE(fetch.not_modified);
          EXPECT_NE(fetch.etag, etag);
          EXPECT_EQ(fetch.body, expected);
        }
        etag = fetch.etag;
        if (step % 3 == 0) {
          EXPECT_EQ(server.FetchView(), expected);
        }
      }
      EXPECT_GT(server.evicted_count(), 0u);
    }
  }
}

UpdateTrace SmallTrace() {
  UpdateTrace trace(2, 10);
  EXPECT_TRUE(trace.AddEvent(0, 1).ok());
  EXPECT_TRUE(trace.AddEvent(0, 3).ok());
  EXPECT_TRUE(trace.AddEvent(1, 2).ok());
  return trace;
}

TEST(FeedNetworkTest, AdvancePublishesDueEvents) {
  UpdateTrace trace = SmallTrace();
  FeedNetwork network(&trace, 10);
  network.AdvanceTo(1);
  EXPECT_EQ(network.server(0)->items().size(), 1u);
  EXPECT_EQ(network.server(1)->items().size(), 0u);
  network.AdvanceTo(3);
  EXPECT_EQ(network.server(0)->items().size(), 2u);
  EXPECT_EQ(network.server(1)->items().size(), 1u);
}

TEST(FeedNetworkTest, AdvanceIsIdempotentAndMonotone) {
  UpdateTrace trace = SmallTrace();
  FeedNetwork network(&trace, 10);
  network.AdvanceTo(5);
  std::size_t count = network.server(0)->publish_count();
  network.AdvanceTo(5);
  network.AdvanceTo(3);  // going backwards is a no-op
  EXPECT_EQ(network.server(0)->publish_count(), count);
}

TEST(FeedNetworkTest, ProbeReturnsCurrentFeed) {
  UpdateTrace trace = SmallTrace();
  FeedNetwork network(&trace, 10);
  network.AdvanceTo(2);
  auto xml = network.ProbeConditionalView(1, "");
  ASSERT_TRUE(xml.ok());
  auto parsed = ParseFeed(xml->body);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->items.size(), 1u);
  // Item timestamp maps back to the update chronon.
  ChrononClock clock;
  EXPECT_EQ(clock.FromUnix(parsed->items[0].published), 2);
}

TEST(FeedNetworkTest, ProbeUnknownResourceFails) {
  UpdateTrace trace = SmallTrace();
  FeedNetwork network(&trace, 10);
  EXPECT_FALSE(network.ProbeConditionalView(9, "").ok());
  EXPECT_FALSE(network.ProbeConditionalView(-1, "").ok());
  EXPECT_EQ(network.server(9), nullptr);
}

TEST(FeedNetworkTest, TightBufferLosesLateData) {
  // A capacity-1 buffer: by the time the second update has been
  // published, the first is gone — the volatility that motivates
  // scheduled pulling.
  UpdateTrace trace = SmallTrace();
  FeedNetwork network(&trace, 1);
  network.AdvanceTo(9);
  EXPECT_EQ(network.server(0)->items().size(), 1u);
  EXPECT_EQ(network.TotalEvicted(), 1u);
  auto xml = network.ProbeConditionalView(0, "");
  ASSERT_TRUE(xml.ok());
  auto parsed = ParseFeed(xml->body);
  ASSERT_TRUE(parsed.ok());
  ChrononClock clock;
  EXPECT_EQ(clock.FromUnix(parsed->items[0].published), 3);
}

TEST(FeedNetworkTest, ETagStableAcrossNoOpAdvance) {
  // Advancing the clock over chronons with no due events must not
  // disturb any validator: a conditional probe still short-circuits.
  UpdateTrace trace = SmallTrace();
  FeedNetwork network(&trace, 10);
  network.AdvanceTo(3);  // all events published
  auto fetch = network.ProbeConditionalView(0, "");
  ASSERT_TRUE(fetch.ok());
  std::string etag(fetch->etag);
  network.AdvanceTo(7);
  network.AdvanceTo(9);
  EXPECT_EQ(network.server(0)->CurrentETagView(), etag);
  auto again = network.ProbeConditionalView(0, etag);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->not_modified);
  EXPECT_TRUE(again->body.empty());
}

TEST(FeedNetworkTest, EvictionCountWhenProbeRacesPublishBurst) {
  // A probe taken between two halves of a publish burst sees the
  // mid-burst state; the eviction counter reflects exactly the items
  // that overflowed the bounded buffer, not the probe timing.
  UpdateTrace trace(1, 10);
  for (Chronon t = 0; t < 8; ++t) {
    ASSERT_TRUE(trace.AddEvent(0, t).ok());
  }
  FeedNetwork network(&trace, 3);
  network.AdvanceTo(3);  // 4 published, 1 evicted
  EXPECT_EQ(network.TotalEvicted(), 1u);
  auto mid = network.ProbeConditionalView(0, "");
  ASSERT_TRUE(mid.ok());
  auto mid_parsed = ParseFeed(mid->body);
  ASSERT_TRUE(mid_parsed.ok());
  ASSERT_EQ(mid_parsed->items.size(), 3u);
  ChrononClock clock;
  EXPECT_EQ(clock.FromUnix(mid_parsed->items[0].published), 3);
  network.AdvanceTo(7);  // remaining 4 published, 4 more evicted
  EXPECT_EQ(network.TotalEvicted(), 5u);
  EXPECT_EQ(network.server(0)->publish_count(), 8u);
  auto late = network.ProbeConditionalView(0, "");
  ASSERT_TRUE(late.ok());
  auto late_parsed = ParseFeed(late->body);
  ASSERT_TRUE(late_parsed.ok());
  // The mid-burst snapshot's items are unreachable now.
  EXPECT_EQ(clock.FromUnix(late_parsed->items[2].published), 5);
}

}  // namespace
}  // namespace pullmon
