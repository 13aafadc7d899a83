#include <gtest/gtest.h>

#include "feeds/atom.h"
#include "feeds/fault_injection.h"
#include "feeds/rss.h"
#include "util/arena.h"
#include "util/datetime.h"
#include "util/random.h"

namespace pullmon {
namespace {

FeedDocument SampleFeed() {
  FeedDocument feed;
  feed.title = "Bids: IBM ThinkPad T60";
  feed.link = "http://auctions.example.com/listing/7";
  feed.description = "Live bid feed";
  for (int i = 2; i >= 0; --i) {
    FeedItem item;
    item.guid = "auction-7-bid-" + std::to_string(i);
    item.title = "New bid #" + std::to_string(i);
    item.link = "http://auctions.example.com/listing/7#bid" +
                std::to_string(i);
    item.description = "Bid description " + std::to_string(i);
    item.published = 1167609600 + i * 60;
    feed.items.push_back(item);
  }
  return feed;
}

TEST(RssTest, WriteParseRoundTrip) {
  FeedDocument feed = SampleFeed();
  std::string xml = WriteRss(feed);
  auto parsed = ParseRss(xml);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->title, feed.title);
  EXPECT_EQ(parsed->link, feed.link);
  EXPECT_EQ(parsed->description, feed.description);
  ASSERT_EQ(parsed->items.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(parsed->items[i], feed.items[i]);
  }
}

TEST(RssTest, ParsesHandWrittenDocument) {
  const char* xml = R"(<?xml version="1.0"?>
<rss version="2.0">
  <channel>
    <title>CNN Top Stories</title>
    <link>http://cnn.example.com</link>
    <description>News</description>
    <item>
      <guid>story-1</guid>
      <title>Breaking &amp; entering</title>
      <link>http://cnn.example.com/1</link>
      <description><![CDATA[Full <b>story</b>]]></description>
      <pubDate>Mon, 01 Jan 2007 08:30:00 GMT</pubDate>
    </item>
  </channel>
</rss>)";
  auto parsed = ParseRss(xml);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->items.size(), 1u);
  EXPECT_EQ(parsed->items[0].title, "Breaking & entering");
  EXPECT_EQ(parsed->items[0].description, "Full <b>story</b>");
  EXPECT_EQ(parsed->items[0].published,
            1167609600 + 8 * 3600 + 30 * 60);
}

TEST(RssTest, MissingPubDateYieldsZero) {
  auto parsed = ParseRss(
      "<rss><channel><title>t</title><item><guid>g</guid></item>"
      "</channel></rss>");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->items[0].published, 0);
}

TEST(RssTest, RejectsWrongRoot) {
  EXPECT_FALSE(ParseRss("<feed></feed>").ok());
  EXPECT_FALSE(ParseRss("<rss></rss>").ok());  // no channel
}

TEST(AtomTest, WriteParseRoundTrip) {
  FeedDocument feed = SampleFeed();
  std::string xml = WriteAtom(feed);
  auto parsed = ParseAtom(xml);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->title, feed.title);
  EXPECT_EQ(parsed->link, feed.link);
  ASSERT_EQ(parsed->items.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(parsed->items[i].guid, feed.items[i].guid);
    EXPECT_EQ(parsed->items[i].published, feed.items[i].published);
    EXPECT_EQ(parsed->items[i].description, feed.items[i].description);
  }
}

TEST(AtomTest, ParsesHandWrittenEntry) {
  const char* xml = R"(<feed xmlns="http://www.w3.org/2005/Atom">
  <title>Market ticker</title>
  <link href="http://market.example.com"/>
  <entry>
    <id>tick-99</id>
    <title>AAPL moved</title>
    <content>price change</content>
    <link href="http://market.example.com/tick/99"/>
    <published>2007-01-01T00:01:00Z</published>
  </entry>
</feed>)";
  auto parsed = ParseAtom(xml);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->link, "http://market.example.com");
  ASSERT_EQ(parsed->items.size(), 1u);
  // <content> used when <summary> absent; <published> when <updated>
  // absent.
  EXPECT_EQ(parsed->items[0].description, "price change");
  EXPECT_EQ(parsed->items[0].published, 1167609660);
}

TEST(AtomTest, RejectsWrongRoot) {
  EXPECT_FALSE(ParseAtom("<rss></rss>").ok());
}

TEST(ParseFeedTest, AutoDetectsFormat) {
  FeedDocument feed = SampleFeed();
  auto from_rss = ParseFeed(WriteRss(feed));
  auto from_atom = ParseFeed(WriteAtom(feed));
  ASSERT_TRUE(from_rss.ok());
  ASSERT_TRUE(from_atom.ok());
  EXPECT_EQ(from_rss->items.size(), 3u);
  EXPECT_EQ(from_atom->items.size(), 3u);
}

TEST(ParseFeedTest, RejectsUnknownRoots) {
  EXPECT_FALSE(ParseFeed("<html></html>").ok());
  EXPECT_FALSE(ParseFeed("").ok());
  EXPECT_FALSE(ParseFeed("<?xml version=\"1.0\"?>").ok());
}

TEST(ParseFeedTest, RootTagsInsideThePrologAreNotTheRoot) {
  // Auto-detection reads the root the parser will read: a tag named in
  // a comment, PI or DOCTYPE before it must not decide the format.
  FeedDocument feed = SampleFeed();
  const std::string bodies[] = {
      "<?xml version=\"1.0\"?><!-- mirrors <feed> -->" + WriteRss(feed),
      "<?xml version=\"1.0\"?><!-- mirrors <rss> -->" + WriteAtom(feed),
      "<?pi <feed>?>\n<!DOCTYPE rss>\n<!-- <feed> -->" + WriteRss(feed),
  };
  Arena arena;
  for (const std::string& body : bodies) {
    auto heap = ParseFeed(body);
    ASSERT_TRUE(heap.ok()) << heap.status().message();
    EXPECT_EQ(heap->items.size(), 3u);
    arena.Reset();
    auto in_arena = ParseFeed(body, &arena);
    ASSERT_TRUE(in_arena.ok()) << in_arena.status().message();
    EXPECT_EQ((*in_arena)->num_items, 3u);
  }
}

TEST(ParseFeedTest, TruncatedBodiesReturnErrorNeverCrash) {
  // Reuse the fault layer's truncation generator: every mangled body
  // must come back as an error Status — the contract the proxy's
  // parse_failures accounting depends on.
  FeedDocument feed = SampleFeed();
  for (FeedFormat format : {FeedFormat::kRss2, FeedFormat::kAtom1}) {
    std::string xml = WriteFeed(feed, format);
    Rng rng(7 + static_cast<uint64_t>(format));
    for (int i = 0; i < 100; ++i) {
      auto parsed = ParseFeed(TruncateBody(xml, &rng));
      EXPECT_FALSE(parsed.ok());
      EXPECT_FALSE(parsed.status().message().empty());
    }
  }
}

TEST(ParseFeedTest, EveryPrefixTruncationIsHandled) {
  // Exhaustive sweep: a body cut at any byte boundary either parses (a
  // prefix that happens to be well formed) or returns an error — it
  // never crashes or hangs.
  FeedDocument feed = SampleFeed();
  for (FeedFormat format : {FeedFormat::kRss2, FeedFormat::kAtom1}) {
    std::string xml = WriteFeed(feed, format);
    for (std::size_t cut = 0; cut < xml.size(); ++cut) {
      auto parsed = ParseFeed(xml.substr(0, cut));
      if (cut + 9 < xml.size()) {
        // Losing the closing root tag is always a structural error.
        EXPECT_FALSE(parsed.ok()) << "cut=" << cut;
      }
    }
  }
}

TEST(ParseFeedTest, CorruptedBodiesReturnErrorNeverCrash) {
  FeedDocument feed = SampleFeed();
  for (FeedFormat format : {FeedFormat::kRss2, FeedFormat::kAtom1}) {
    std::string xml = WriteFeed(feed, format);
    Rng rng(13 + static_cast<uint64_t>(format));
    for (int i = 0; i < 100; ++i) {
      auto parsed = ParseFeed(CorruptBody(xml, &rng));
      EXPECT_FALSE(parsed.ok());
      EXPECT_FALSE(parsed.status().message().empty());
    }
  }
}

TEST(WriteFeedTest, DispatchesOnFormat) {
  FeedDocument feed = SampleFeed();
  EXPECT_NE(WriteFeed(feed, FeedFormat::kRss2).find("<rss"),
            std::string::npos);
  EXPECT_NE(WriteFeed(feed, FeedFormat::kAtom1).find("<feed"),
            std::string::npos);
}

}  // namespace
}  // namespace pullmon
