// Parser-hardening property test: randomized byte-level mutations of
// valid RSS/Atom/XML bodies — beyond the structured TruncateBody /
// CorruptBody generators — must always come back as an error Status (or
// a successful parse, for mutations that happen to stay well formed),
// never a crash, hang, or sanitizer report. The CI asan preset runs
// this suite under AddressSanitizer + UBSan, which is where the value
// is: any out-of-bounds read in the parsers fails loudly here.

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "feeds/atom.h"
#include "feeds/feed_server.h"
#include "feeds/rss.h"
#include "feeds/xml.h"
#include "util/arena.h"
#include "util/random.h"

namespace pullmon {
namespace {

FeedDocument SampleFeed() {
  FeedDocument feed;
  feed.title = "Bids: IBM ThinkPad T60";
  feed.link = "http://auctions.example.com/listing/7";
  feed.description = "Live bid feed";
  for (int i = 4; i >= 0; --i) {
    FeedItem item;
    item.guid = "auction-7-bid-" + std::to_string(i);
    item.title = "New bid #" + std::to_string(i) + " <&\"'>";
    item.link = "http://auctions.example.com/listing/7#bid" +
                std::to_string(i);
    item.description = "Bid description " + std::to_string(i);
    item.published = 1167609600 + i * 60;
    feed.items.push_back(item);
  }
  return feed;
}

/// One random byte-level mutation: flip bits, overwrite with a random
/// byte (including NUL and high bytes), insert, delete, duplicate a
/// random span, or swap two spans. Returns a body that differs from the
/// input in an unstructured way XML quoting rules know nothing about.
std::string Mutate(const std::string& body, Rng* rng) {
  std::string out = body;
  int edits = static_cast<int>(rng->NextInt(1, 8));
  for (int e = 0; e < edits && !out.empty(); ++e) {
    std::size_t pos =
        static_cast<std::size_t>(rng->NextBounded(out.size()));
    switch (rng->NextBounded(6)) {
      case 0:  // bit flip
        out[pos] = static_cast<char>(
            out[pos] ^ static_cast<char>(1u << rng->NextBounded(8)));
        break;
      case 1:  // overwrite with an arbitrary byte
        out[pos] = static_cast<char>(rng->NextBounded(256));
        break;
      case 2:  // insert an arbitrary byte
        out.insert(pos, 1, static_cast<char>(rng->NextBounded(256)));
        break;
      case 3:  // delete a byte
        out.erase(pos, 1);
        break;
      case 4: {  // duplicate a random span at a random position
        std::size_t len = 1 + static_cast<std::size_t>(
                                  rng->NextBounded(16));
        if (pos + len > out.size()) len = out.size() - pos;
        std::string span = out.substr(pos, len);
        out.insert(static_cast<std::size_t>(rng->NextBounded(
                       out.size() + 1)),
                   span);
        break;
      }
      default: {  // swap two single bytes
        std::size_t other =
            static_cast<std::size_t>(rng->NextBounded(out.size()));
        std::swap(out[pos], out[other]);
        break;
      }
    }
  }
  return out;
}

/// Exercising a parsed document end to end: any surviving parse must
/// yield a document whose fields are readable without faults.
template <typename ParsedResult>
void TouchIfOk(const ParsedResult& parsed) {
  if (!parsed.ok()) {
    EXPECT_FALSE(parsed.status().message().empty());
    return;
  }
  std::size_t total = parsed->title.size() + parsed->link.size() +
                      parsed->description.size();
  for (const FeedItem& item : parsed->items) {
    total += item.guid.size() + item.title.size() +
             item.description.size();
  }
  (void)total;
}

TEST(ParserFuzzTest, MutatedRssNeverCrashes) {
  std::string xml = WriteRss(SampleFeed());
  Rng rng(0xF00DF00DULL);
  for (int i = 0; i < 2000; ++i) {
    TouchIfOk(ParseRss(Mutate(xml, &rng)));
  }
}

TEST(ParserFuzzTest, MutatedAtomNeverCrashes) {
  std::string xml = WriteAtom(SampleFeed());
  Rng rng(0xBEEFBEEFULL);
  for (int i = 0; i < 2000; ++i) {
    TouchIfOk(ParseAtom(Mutate(xml, &rng)));
  }
}

TEST(ParserFuzzTest, MutatedXmlNeverCrashes) {
  std::string xml = WriteRss(SampleFeed());
  Rng rng(0xCAFED00DULL);
  for (int i = 0; i < 2000; ++i) {
    auto parsed = ParseXml(Mutate(xml, &rng));
    if (!parsed.ok()) {
      EXPECT_FALSE(parsed.status().message().empty());
    }
  }
}

TEST(ParserFuzzTest, AutoDetectionSurvivesMutations) {
  // ParseFeed's format sniffing reads the (possibly mangled) root tag;
  // it must reject gracefully whatever the mutations produce.
  std::string rss = WriteRss(SampleFeed());
  std::string atom = WriteAtom(SampleFeed());
  Rng rng(0x5EEDULL);
  for (int i = 0; i < 1000; ++i) {
    TouchIfOk(ParseFeed(Mutate(rss, &rng)));
    TouchIfOk(ParseFeed(Mutate(atom, &rng)));
  }
}

/// Structural equality of the allocating and the arena tree: same
/// names, text, attributes, and children in the same order.
void ExpectTreesEqual(const XmlNode& a, const ArenaXmlNode* b) {
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a.name, b->name);
  EXPECT_EQ(a.text, b->text);
  const ArenaXmlAttr* attr = b->first_attr;
  for (const auto& [name, value] : a.attributes) {
    ASSERT_NE(attr, nullptr);
    EXPECT_EQ(name, attr->name);
    EXPECT_EQ(value, attr->value);
    attr = attr->next;
  }
  EXPECT_EQ(attr, nullptr);
  const ArenaXmlNode* child = b->first_child;
  for (const XmlNode& a_child : a.children) {
    ASSERT_NE(child, nullptr);
    ExpectTreesEqual(a_child, child);
    child = child->next_sibling;
  }
  EXPECT_EQ(child, nullptr);
}

/// Parses `body` with both ParseXml overloads and checks that they agree:
/// the same acceptance, the same error message, an equivalent tree.
void ExpectParsersAgree(std::string_view body, Arena* arena) {
  auto heap = ParseXml(body);
  arena->Reset();
  auto in_arena = ParseXml(body, arena);
  ASSERT_EQ(heap.ok(), in_arena.ok());
  if (heap.ok()) {
    ExpectTreesEqual(*heap, *in_arena);
  } else {
    EXPECT_EQ(heap.status().message(), in_arena.status().message());
  }
}

/// Reaches every branch of the arena parser's dispatch on the byte after
/// '<' and of its text scan: prolog and epilog misc, comments, CDATA
/// and PIs inside content, decimal and hex character references, both
/// quote styles, self-closing tags and whitespace inside tags.
const char kDispatchDocument[] =
    "<?xml version=\"1.0\" encoding=\"utf-8\"?>\n"
    "<!DOCTYPE rss>\n<!-- prolog <feed> -->\n<?sheet href=\"s.css\"?>\n"
    "<rss version=\"2.0\" xmlns:dc='http://purl.org/dc/elements/1.1/'>\n"
    "  <channel>\n"
    "    <title>Caf&#233; &amp; bar &#x20AC;&#X41;</title>\n"
    "    <!-- a comment between children -->\n"
    "    <link href = \"http://x.example/?a=1&amp;b=2\" rel='it&apos;s'/>\n"
    "    <description><![CDATA[<b>raw</b> & more]]> and &lt;text&gt;"
    "</description>\n"
    "    <?pi inside content?>\n"
    "    <item><title>a&lt;b&gt;c &quot;q&quot;</title>"
    "<dc:creator>x</dc:creator><empty /><br/></item>\n"
    "    <item ><guid isPermaLink=\"false\">id-1</guid ></item>\n"
    "  </channel>\n"
    "</rss >\n<!-- epilog --><?epilog?>\n";

TEST(ParserFuzzTest, ArenaXmlParserMatchesAllocatingParser) {
  // The arena overload promises to accept and reject exactly the same
  // documents as the allocating one and to produce an equivalent tree —
  // checked here differentially over unstructured mutations.
  std::string xml = WriteRss(SampleFeed());
  Rng rng(0xA12E4AULL);
  Arena arena;
  for (int i = 0; i < 2000; ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    ExpectParsersAgree(Mutate(xml, &rng), &arena);
  }
  // Second seed: every kind of markup after '<', with and without a
  // bare "<!x>", a "<!" that opens neither a comment nor CDATA and so
  // takes the child path and fails as a bad element name.
  std::string dispatch = kDispatchDocument;
  std::string bare = dispatch;
  bare.insert(bare.find("<item>"), "<!x>");
  ASSERT_TRUE(ParseXml(dispatch).ok());
  ASSERT_FALSE(ParseXml(bare).ok());
  Rng dispatch_rng(0xD15BA7C4ULL);
  for (const std::string* base : {&dispatch, &bare}) {
    ExpectParsersAgree(*base, &arena);
    for (int i = 0; i < 2000; ++i) {
      SCOPED_TRACE("iteration " + std::to_string(i));
      ExpectParsersAgree(Mutate(*base, &dispatch_rng), &arena);
    }
  }
}

TEST(ParserFuzzTest, ArenaXmlParserMatchesOnEveryPrefixOfServedBodies) {
  // A body cut at any byte ends inside every construct the scan can be
  // in, so the memchr runs meet the end of the buffer everywhere. Each
  // prefix is copied to a heap block of exactly its size, so a read
  // past the end is a heap overflow under AddressSanitizer.
  for (FeedFormat format : {FeedFormat::kRss2, FeedFormat::kAtom1}) {
    FeedServer server(7, "Bids & <offers>", 5, format);
    for (const FeedItem& item : SampleFeed().items) server.Publish(item);
    const std::string body(server.FetchView());
    // Only the trailing whitespace after the root's closing tag may go.
    const std::size_t complete = body.find_last_of('>') + 1;
    Arena arena;
    for (std::size_t cut = 0; cut <= body.size(); ++cut) {
      SCOPED_TRACE("format " + std::to_string(static_cast<int>(format)) +
                   " cut " + std::to_string(cut));
      const std::vector<char> prefix(body.begin(),
                                     body.begin() +
                                         static_cast<std::ptrdiff_t>(cut));
      const std::string_view view(prefix.data(), prefix.size());
      ExpectParsersAgree(view, &arena);
      auto heap = ParseFeed(view);
      arena.Reset();
      auto in_arena = ParseFeed(view, &arena);
      ASSERT_EQ(heap.ok(), in_arena.ok());
      EXPECT_EQ(heap.ok(), cut >= complete);
    }
  }
}

TEST(ParserFuzzTest, ArenaFeedParsersMatchAllocating) {
  // Same differential one level up: a materialized FeedDocumentView
  // must equal the allocating ParseFeed's document field for field.
  std::string rss = WriteRss(SampleFeed());
  std::string atom = WriteAtom(SampleFeed());
  Rng rng(0xFEEDFACEULL);
  Arena arena;
  for (int i = 0; i < 1000; ++i) {
    for (const std::string* base : {&rss, &atom}) {
      std::string body = Mutate(*base, &rng);
      auto heap = ParseFeed(body);
      arena.Reset();
      auto in_arena = ParseFeed(body, &arena);
      ASSERT_EQ(heap.ok(), in_arena.ok()) << "iteration " << i;
      if (!heap.ok()) continue;
      FeedDocument materialized = (*in_arena)->Materialize();
      EXPECT_EQ(heap->title, materialized.title);
      EXPECT_EQ(heap->link, materialized.link);
      EXPECT_EQ(heap->description, materialized.description);
      ASSERT_EQ(heap->items.size(), materialized.items.size());
      for (std::size_t k = 0; k < heap->items.size(); ++k) {
        EXPECT_TRUE(heap->items[k] == materialized.items[k])
            << "item " << k;
      }
    }
  }
}

TEST(ParserFuzzTest, PureGarbageIsRejected) {
  Rng rng(0xD15EA5EULL);
  for (int i = 0; i < 500; ++i) {
    std::string garbage(
        static_cast<std::size_t>(rng.NextBounded(512)), '\0');
    for (char& c : garbage) {
      c = static_cast<char>(rng.NextBounded(256));
    }
    auto parsed = ParseFeed(garbage);
    // All-random bytes essentially never form a valid feed; tolerate
    // the pathological accident but require a clean Status either way.
    if (!parsed.ok()) {
      EXPECT_FALSE(parsed.status().message().empty());
    }
  }
}

}  // namespace
}  // namespace pullmon
