// Round-trip property suite of the trace page codec: adversarial event
// patterns (single event, maximal deltas, dense every-chronon runs,
// epoch-boundary chronons), multi-page streams walked by the
// self-delimiting page_bytes, and the varint primitive's edge values.
// The store-level variants exercise the same patterns through
// TraceStore (empty resources, tiny pages, LRU budget of one page).

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "trace/page_codec.h"
#include "trace/trace_store.h"
#include "util/random.h"

namespace pullmon {
namespace {

std::vector<Chronon> RoundTrip(ResourceId resource,
                               const std::vector<Chronon>& events) {
  std::string bytes;
  std::size_t size = EncodePage(resource, events.data(), events.size(),
                                &bytes);
  EXPECT_EQ(size, bytes.size());
  std::vector<Chronon> decoded;
  auto header = DecodePage(bytes, &decoded);
  EXPECT_TRUE(header.ok()) << header.status().ToString();
  if (header.ok()) {
    EXPECT_EQ(header->resource, resource);
    EXPECT_EQ(header->event_count,
              static_cast<std::int64_t>(events.size()));
    EXPECT_EQ(header->first_chronon, events.front());
    EXPECT_EQ(header->last_chronon, events.back());
    EXPECT_EQ(header->page_bytes, bytes.size());
  }
  return decoded;
}

TEST(PageCodecTest, SingleEventPageHasEmptyPayload) {
  std::vector<Chronon> events = {42};
  std::string bytes;
  EncodePage(7, events.data(), events.size(), &bytes);
  auto header = DecodePageHeader(bytes);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->payload_bytes, 0u);
  EXPECT_EQ(RoundTrip(7, events), events);
}

TEST(PageCodecTest, DenseRunCostsOneBytePerEvent) {
  // Every chronon updates: all gaps are 1, biased deltas are 0 — one
  // payload byte per event after the first.
  std::vector<Chronon> events;
  for (Chronon t = 100; t < 400; ++t) events.push_back(t);
  std::string bytes;
  EncodePage(0, events.data(), events.size(), &bytes);
  auto header = DecodePageHeader(bytes);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->payload_bytes, events.size() - 1);
  EXPECT_EQ(RoundTrip(0, events), events);
}

TEST(PageCodecTest, MaximalDeltaGap) {
  // The widest gap a Chronon admits: 0 then INT32_MAX - 1.
  std::vector<Chronon> events = {
      0, std::numeric_limits<Chronon>::max() - 1};
  EXPECT_EQ(RoundTrip(3, events), events);
}

TEST(PageCodecTest, EpochBoundaryChronons) {
  std::vector<Chronon> events = {0, 1, 998, 999};
  EXPECT_EQ(RoundTrip(0, events), events);
}

TEST(PageCodecTest, RandomSortedSetsRoundTrip) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed * 31 + 5);
    std::vector<Chronon> events;
    Chronon t = static_cast<Chronon>(rng.NextInt(0, 10));
    int count = static_cast<int>(rng.NextInt(1, 300));
    for (int i = 0; i < count; ++i) {
      events.push_back(t);
      t += static_cast<Chronon>(rng.NextInt(1, 1000));
    }
    ResourceId r = static_cast<ResourceId>(rng.NextInt(0, 1 << 20));
    EXPECT_EQ(RoundTrip(r, events), events) << "seed " << seed;
  }
}

TEST(PageCodecTest, BackToBackPagesAreSelfDelimiting) {
  // Three pages in one buffer; each header's page_bytes walks to the
  // next, exactly how TraceStore lays a resource out.
  std::string bytes;
  std::vector<std::vector<Chronon>> pages = {
      {1, 2, 3}, {10}, {50, 60, 4000}};
  for (const auto& events : pages) {
    EncodePage(9, events.data(), events.size(), &bytes);
  }
  std::string_view rest = bytes;
  for (const auto& expected : pages) {
    std::vector<Chronon> decoded;
    auto header = DecodePage(rest, &decoded);
    ASSERT_TRUE(header.ok()) << header.status().ToString();
    EXPECT_EQ(decoded, expected);
    rest.remove_prefix(header->page_bytes);
  }
  EXPECT_TRUE(rest.empty());
}

TEST(PageCodecTest, VarintEdgeValues) {
  for (std::uint64_t value :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127},
        std::uint64_t{128}, std::uint64_t{16383}, std::uint64_t{16384},
        std::numeric_limits<std::uint64_t>::max()}) {
    std::string bytes;
    AppendVarint(value, &bytes);
    std::uint64_t decoded = 0;
    const char* end = DecodeVarint(bytes.data(),
                                   bytes.data() + bytes.size(), &decoded);
    ASSERT_NE(end, nullptr) << value;
    EXPECT_EQ(end, bytes.data() + bytes.size());
    EXPECT_EQ(decoded, value);
  }
}

TEST(PageCodecTest, VarintRejectsTruncationAndOverlength) {
  std::string bytes;
  AppendVarint(1u << 20, &bytes);
  std::uint64_t value = 0;
  // Every strict prefix is truncated.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_EQ(DecodeVarint(bytes.data(), bytes.data() + len, &value),
              nullptr)
        << "prefix " << len;
  }
  // Eleven continuation bytes exceed the 10-byte cap.
  std::string overlong(11, static_cast<char>(0x80));
  EXPECT_EQ(DecodeVarint(overlong.data(),
                         overlong.data() + overlong.size(), &value),
            nullptr);
}

// --- Store-level adversarial patterns. --------------------------------

TEST(PageCodecTest, StoreWithEmptyAndSingleEventResources) {
  // Resources 0, 2, 5 empty; 1 has a single event; 3 dense; 4 sparse.
  TraceStoreOptions options;
  options.page_size = 16;  // force multi-page resources
  options.cache_pages = 1;
  TraceStore store(6, 200, options);
  ASSERT_TRUE(store.Append(1, 7).ok());
  for (Chronon t = 0; t < 120; ++t) ASSERT_TRUE(store.Append(3, t).ok());
  for (Chronon t = 0; t < 200; t += 50) {
    ASSERT_TRUE(store.Append(4, t).ok());
  }
  ASSERT_TRUE(store.Seal().ok());
  ASSERT_TRUE(store.VerifyAllPages().ok());

  std::vector<Chronon> events;
  for (ResourceId r : {0, 2, 5}) {
    events.clear();
    ASSERT_TRUE(store.ReadResource(r, &events).ok());
    EXPECT_TRUE(events.empty()) << "resource " << r;
  }
  events.clear();
  ASSERT_TRUE(store.ReadResource(1, &events).ok());
  EXPECT_EQ(events, std::vector<Chronon>{7});
  events.clear();
  ASSERT_TRUE(store.ReadResource(3, &events).ok());
  ASSERT_EQ(events.size(), 120u);
  for (Chronon t = 0; t < 120; ++t) EXPECT_EQ(events[static_cast<std::size_t>(t)], t);
  EXPECT_EQ(store.TotalEvents(), 125u);

  // With a one-page budget the dense resource's walk evicts constantly
  // yet still decodes exactly.
  EXPECT_GT(store.stats().trace_cache_evictions, 0u);
}

TEST(PageCodecTest, StoreCollapsesDuplicatesAndUnsortedAppends) {
  // Mirrors UpdateTrace::AddEvent semantics: within the open resource,
  // order is free and duplicates collapse.
  TraceStore store(2, 100);
  for (Chronon t : {50, 10, 50, 30, 10, 90}) {
    ASSERT_TRUE(store.Append(0, t).ok());
  }
  ASSERT_TRUE(store.Seal().ok());
  std::vector<Chronon> events;
  ASSERT_TRUE(store.ReadResource(0, &events).ok());
  EXPECT_EQ(events, (std::vector<Chronon>{10, 30, 50, 90}));
  EXPECT_EQ(store.TotalEvents(), 4u);
}

TEST(PageCodecTest, StoreRejectsResourceRegressionAndOutOfRange) {
  TraceStore store(3, 100);
  ASSERT_TRUE(store.Append(1, 5).ok());
  EXPECT_EQ(store.Append(0, 5).code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(store.Append(3, 5).ok());
  EXPECT_FALSE(store.Append(1, 100).ok());
  EXPECT_FALSE(store.Append(1, -1).ok());
  ASSERT_TRUE(store.Seal().ok());
  EXPECT_EQ(store.Append(2, 5).code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace pullmon
