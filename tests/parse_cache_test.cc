// The parse cache's invalidation contract, and the conditional-GET
// machinery it leans on: a hit may only ever replay a document equal to
// what parsing the response would have produced — under ETag storms,
// corrupt bodies, and interleaved publishes, never a stale document.

#include <cstddef>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "feeds/atom.h"
#include "feeds/fault_injection.h"
#include "feeds/feed_server.h"
#include "feeds/parse_cache.h"
#include "trace/update_trace.h"

namespace pullmon {
namespace {

FeedDocument OneItemDoc(const std::string& guid) {
  FeedDocument doc;
  doc.title = "t";
  FeedItem item;
  item.guid = guid;
  doc.items.push_back(item);
  return doc;
}

TEST(ParseCacheTest, MissThenStoreThenHitByValidator) {
  ParseCache cache(2);
  std::string body = "<rss><channel><title>x</title></channel></rss>";
  EXPECT_EQ(*cache.Lookup(0, "\"e1\"", body, false), nullptr);
  EXPECT_EQ(cache.stats().parse_cache_misses, 1u);
  cache.Store(0, "\"e1\"", body, OneItemDoc("g1"));
  const FeedDocument* hit = *cache.Lookup(0, "\"e1\"", body, false);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->items[0].guid, "g1");
  EXPECT_EQ(cache.stats().parse_cache_hits, 1u);
  EXPECT_EQ(cache.stats().parse_cache_bytes_saved, body.size());
  // Entries are per resource: resource 1 knows nothing.
  EXPECT_EQ(*cache.Lookup(1, "\"e1\"", body, false), nullptr);
}

TEST(ParseCacheTest, HitByContentWhenValidatorIsUnstable) {
  // The ETag-storm shape: same bytes, a different (salted) validator
  // every probe. The content key must carry the cache through.
  ParseCache cache(1);
  std::string body = "<rss><channel><title>x</title></channel></rss>";
  cache.Store(0, "\"e1\"", body, OneItemDoc("g1"));
  EXPECT_NE(*cache.Lookup(0, "\"e1\"-storm01", body, false), nullptr);
  EXPECT_NE(*cache.Lookup(0, "\"e1\"-storm02", body, false), nullptr);
  EXPECT_EQ(cache.stats().parse_cache_hits, 2u);
}

TEST(ParseCacheTest, MangledBodyNeverHits) {
  ParseCache cache(1);
  std::string body = "<rss><channel><title>x</title></channel></rss>";
  cache.Store(0, "\"e1\"", body, OneItemDoc("g1"));
  // A corrupt body travelling under the truthful validator must not be
  // masked by a replay: the validator key is gated on `mangled` and the
  // content key fails because the bytes differ.
  std::string corrupt = body;
  corrupt[10] = '<';
  EXPECT_EQ(*cache.Lookup(0, "\"e1\"", corrupt, true), nullptr);
  // Even byte-identical content is refused when flagged mangled (the
  // flag is authoritative; replay must not bypass the fault).
  EXPECT_EQ(*cache.Lookup(0, "\"e1\"", body, true), nullptr);
  EXPECT_EQ(cache.stats().parse_cache_hits, 0u);
  EXPECT_EQ(cache.stats().parse_cache_misses, 2u);
}

TEST(ParseCacheTest, ContentChangeMissesAndInvalidateCounts) {
  ParseCache cache(1);
  std::string body_a = "<rss><channel><title>a</title></channel></rss>";
  std::string body_b = "<rss><channel><title>bb</title></channel></rss>";
  cache.Store(0, "\"e1\"", body_a, OneItemDoc("g1"));
  EXPECT_EQ(*cache.Lookup(0, "\"e2\"", body_b, false), nullptr);
  cache.Invalidate(0);
  EXPECT_EQ(cache.stats().parse_cache_invalidations, 1u);
  // Invalidating twice counts once; the entry is already gone.
  cache.Invalidate(0);
  EXPECT_EQ(cache.stats().parse_cache_invalidations, 1u);
  EXPECT_EQ(*cache.Lookup(0, "\"e1\"", body_a, false), nullptr);
}

TEST(FeedServerETagTest, ValidatorIsStableBetweenPublishes) {
  FeedServer server(0, "r0", 4);
  std::string e0(server.CurrentETagView());
  EXPECT_EQ(server.CurrentETagView(), e0);
  FeedItem item;
  item.guid = "g1";
  server.Publish(item);
  std::string e1(server.CurrentETagView());
  EXPECT_NE(e1, e0);
  // Fetching does not perturb the validator.
  (void)server.FetchView();
  EXPECT_EQ(server.CurrentETagView(), e1);
}

TEST(FeedServerETagTest, RepeatedConditionalFetchesAgree) {
  FeedServer server(0, "r0", 4);
  FeedItem item;
  item.guid = "g1";
  server.Publish(item);
  auto view = server.FetchConditionalView("");
  EXPECT_FALSE(view.not_modified);
  std::string body(view.body);
  std::string etag(view.etag);
  auto full = server.FetchConditionalView("");
  EXPECT_EQ(std::string(full.body), body);
  EXPECT_EQ(std::string(full.etag), etag);
  // A matching validator 304s every time; counters move in step.
  std::size_t nm_before = server.not_modified_count();
  auto cond_view = server.FetchConditionalView(etag);
  EXPECT_TRUE(cond_view.not_modified);
  EXPECT_TRUE(cond_view.body.empty());
  auto cond = server.FetchConditionalView(etag);
  EXPECT_TRUE(cond.not_modified);
  EXPECT_EQ(server.not_modified_count(), nm_before + 2);
}

TEST(FeedServerETagTest, BodyViewInvalidatedByPublish) {
  FeedServer server(0, "r0", 4);
  FeedItem item;
  item.guid = "g1";
  server.Publish(item);
  std::string first(server.FetchView());
  // Unchanged feed: the view is byte-identical (and the same buffer).
  EXPECT_EQ(server.FetchView(), first);
  item.guid = "g2";
  server.Publish(item);
  EXPECT_NE(server.FetchView(), first);
}

// End-to-end storm drill: run the proxy's cache discipline by hand
// against a storming fault plan while the feed keeps changing, and
// assert the document a probe ends up using always equals a fresh parse
// of the body it received — a stale replay fails the guid comparison.
TEST(ParseCacheStormTest, StormNeverServesStaleBody) {
  UpdateTrace trace(1, 64);
  for (Chronon t = 0; t < 64; t += 2) ASSERT_TRUE(trace.AddEvent(0, t).ok());

  FeedNetwork network(&trace, 4);
  FaultOptions faults;
  faults.etag_storm_rate = 1.0;  // every probe storms the validator
  faults.etag_storm_length = 4;
  FaultPlan plan(&network, 0xABCDULL, faults);

  ParseCache cache(1);
  std::string client_etag;
  std::size_t full_bodies = 0;
  for (Chronon t = 0; t < 64; ++t) {
    plan.AdvanceTo(t);
    auto outcome = plan.ProbeConditional(0, client_etag);
    ASSERT_TRUE(outcome.ok());
    ASSERT_EQ(outcome->fault, FaultPlan::FaultKind::kNone);
    if (outcome->fetch.not_modified) {
      client_etag = outcome->fetch.etag;
      continue;
    }
    ++full_bodies;
    const std::string body(outcome->fetch.body);
    auto fresh = ParseFeed(body);
    ASSERT_TRUE(fresh.ok());
    const FeedDocument* used =
        *cache.Lookup(0, outcome->fetch.etag, body, false);
    if (used == nullptr) {
      used = &cache.Store(0, outcome->fetch.etag, body, *fresh);
    }
    client_etag = outcome->fetch.etag;
    // Whatever the cache decided, the document in use must equal the
    // fresh parse of this probe's body.
    ASSERT_EQ(used->items.size(), fresh->items.size()) << "chronon " << t;
    for (std::size_t i = 0; i < fresh->items.size(); ++i) {
      EXPECT_EQ(used->items[i].guid, fresh->items[i].guid)
          << "chronon " << t << " item " << i;
    }
  }
  // The storm forced real traffic (otherwise this test proves nothing):
  // every salted validator misses, so bodies kept flowing.
  EXPECT_GT(full_bodies, 16u);
  EXPECT_GT(plan.stats().etag_invalidations, 0u);
  // And the unchanged-content probes between publishes were cache hits.
  EXPECT_GT(cache.stats().parse_cache_hits, 0u);
}

// Corruption drill: a corrupt delivery must invalidate, and the next
// pristine body must be parsed (miss), not replayed from the old entry.
TEST(ParseCacheStormTest, CorruptBodyInvalidatesThenReparses) {
  UpdateTrace trace(1, 8);
  ASSERT_TRUE(trace.AddEvent(0, 0).ok());
  FeedNetwork network(&trace, 4);
  network.AdvanceTo(0);

  ParseCache cache(1);
  auto first = network.ProbeConditionalView(0, "");
  ASSERT_TRUE(first.ok());
  std::string body(first->body);
  std::string etag(first->etag);
  auto parsed = ParseFeed(body);
  ASSERT_TRUE(parsed.ok());
  cache.Store(0, etag, body, *parsed);

  // A corrupt delivery of the same state: mangled, so no replay; the
  // parse fails and the proxy's discipline invalidates.
  Rng rng(7);
  std::string corrupt = CorruptBody(body, &rng);
  EXPECT_EQ(*cache.Lookup(0, etag, corrupt, true), nullptr);
  EXPECT_FALSE(ParseFeed(corrupt).ok());
  cache.Invalidate(0);
  EXPECT_EQ(cache.stats().parse_cache_invalidations, 1u);

  // The retry delivers the pristine body again: by policy this is a
  // miss (the entry is gone) and must be re-parsed and re-stored.
  EXPECT_EQ(*cache.Lookup(0, etag, body, false), nullptr);
  auto reparsed = ParseFeed(body);
  ASSERT_TRUE(reparsed.ok());
  const FeedDocument& stored = cache.Store(0, etag, body, *reparsed);
  EXPECT_EQ(stored.items.size(), parsed->items.size());
}

// A snapshot keeps entry keys, not documents: a restored entry is
// pending, and its first hit parses the body that hit it.
TEST(ParseCacheRestoreTest, RestoredEntriesFillOnTheirFirstHit) {
  UpdateTrace trace(2, 8);
  ASSERT_TRUE(trace.AddEvent(0, 0).ok());
  ASSERT_TRUE(trace.AddEvent(1, 0).ok());
  FeedNetwork network(&trace, 4);
  network.AdvanceTo(0);

  ParseCache cache(2);
  std::string bodies[2];
  std::string etags[2];
  for (ResourceId r = 0; r < 2; ++r) {
    auto fetch = network.ProbeConditionalView(r, "");
    ASSERT_TRUE(fetch.ok());
    bodies[r] = std::string(fetch->body);
    etags[r] = std::string(fetch->etag);
    auto parsed = ParseFeed(bodies[r]);
    ASSERT_TRUE(parsed.ok());
    cache.Store(r, etags[r], bodies[r], *parsed);
  }
  const ParseCacheImage image = cache.Capture();
  ASSERT_EQ(image.entries.size(), 2u);
  EXPECT_TRUE(image.entries[0].valid);
  EXPECT_EQ(image.entries[1].etag, etags[1]);
  EXPECT_EQ(ParseCache(3).Restore(image).code(),
            StatusCode::kInvalidArgument);

  ParseCache restored(2);
  ASSERT_TRUE(restored.Restore(image).ok());
  EXPECT_EQ(restored.stats(), cache.stats());

  // Content key (a storm-salted validator): fills, and counts as a hit.
  auto by_content = restored.Lookup(0, etags[0] + "-storm", bodies[0], false);
  ASSERT_TRUE(by_content.ok()) << by_content.status().ToString();
  ASSERT_NE(*by_content, nullptr);
  const FeedDocument* cached = *cache.Lookup(0, etags[0], bodies[0], false);
  ASSERT_EQ((*by_content)->items.size(), cached->items.size());
  for (std::size_t i = 0; i < cached->items.size(); ++i) {
    EXPECT_TRUE((*by_content)->items[i] == cached->items[i]) << "item " << i;
  }
  EXPECT_EQ(restored.stats().parse_cache_hits, 1u);
  EXPECT_EQ(restored.stats().parse_cache_bytes_saved, bodies[0].size());
  EXPECT_EQ(restored.pending_fills().content_fills, 1u);
  // A filled entry is an ordinary one: the next hit parses nothing.
  ASSERT_NE(*restored.Lookup(0, etags[0], bodies[0], false), nullptr);
  EXPECT_EQ(restored.pending_fills().content_fills, 1u);
  EXPECT_EQ(restored.pending_fills().validator_fills, 0u);

  // Validator key: the body must hash like the one the key was stored
  // for, or the restored key does not describe what the server serves.
  ParseCache mismatched(2);
  ASSERT_TRUE(mismatched.Restore(image).ok());
  EXPECT_EQ(mismatched.Lookup(1, etags[1], bodies[0], false).status().code(),
            StatusCode::kInternal);
  auto by_validator = restored.Lookup(1, etags[1], bodies[1], false);
  ASSERT_TRUE(by_validator.ok()) << by_validator.status().ToString();
  ASSERT_NE(*by_validator, nullptr);
  EXPECT_FALSE((*by_validator)->items.empty());
  EXPECT_EQ(restored.pending_fills().validator_fills, 1u);
  EXPECT_EQ(restored.stats().parse_cache_hits, 3u);
}

}  // namespace
}  // namespace pullmon
