#ifndef PULLMON_FEEDS_PARSE_CACHE_H_
#define PULLMON_FEEDS_PARSE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/chronon.h"
#include "feeds/feed_item.h"
#include "util/status.h"

namespace pullmon {

/// Counters of everything a ParseCache did; deterministic per run.
struct ParseCacheStats {
  std::size_t parse_cache_hits = 0;
  std::size_t parse_cache_misses = 0;
  std::size_t parse_cache_invalidations = 0;
  /// Body bytes whose parse was skipped by a hit.
  std::size_t parse_cache_bytes_saved = 0;

  bool operator==(const ParseCacheStats& other) const = default;
};

/// One resource's ParseCache entry. The cache holds these directly, and
/// its Capture()/Restore() image is a copy of them — the recovery layer
/// serializes it into proxy snapshots. The full cached documents travel
/// with the validators: a restored run must replay the same hits (and
/// skip the same parses) the uninterrupted run would have, or the
/// parse_cache_* counters diverge.
struct ParseCacheEntryImage {
  bool valid = false;
  std::string etag;
  uint64_t body_hash = 0;
  std::size_t body_size = 0;
  FeedDocument document;
};

struct ParseCacheImage {
  std::vector<ParseCacheEntryImage> entries;
  ParseCacheStats stats;
};

/// A per-resource parse cache in front of the feed layer: remembers the
/// last successfully parsed document of every resource together with
/// the validator (ETag) it was served under and a content hash of its
/// body. A later probe whose response matches either key skips parsing
/// and replays the cached FeedDocument.
///
/// Two keys, because the two cover different recoveries:
///  * The *validator* key hits when the server echoes the exact ETag
///    the entry was stored under — e.g. the first full-body fetch after
///    an ETag storm subsides with the feed unchanged. It is only
///    honored for pristine bodies (`mangled == false`): a truncated or
///    garbled body may travel under a truthful validator, and replaying
///    cached content for it would hide the fault.
///  * The *content* key (FNV-1a over the body, plus its size) hits when
///    the bytes themselves are unchanged even though validators are
///    unstable — every probe inside an ETag storm. A mangled body fails
///    this key by construction, so corrupt deliveries always fall
///    through to the parser (and then Invalidate()).
///
/// Replay is deterministic: a hit can only occur for a body that is
/// byte-identical to one that parsed successfully before (or served
/// under its exact validator), so the replayed document equals what the
/// parser would have produced — callers observe identical items,
/// counters, and notifications with the cache on or off.
class ParseCache {
 public:
  explicit ParseCache(std::size_t num_resources)
      : entries_(num_resources) {}

  /// The cached document for this response, or nullptr on a miss.
  /// `served_etag` is the validator accompanying the response body;
  /// `mangled` marks bodies known to be degraded in flight.
  const FeedDocument* Lookup(ResourceId resource,
                             std::string_view served_etag,
                             std::string_view body, bool mangled);

  /// Records a successful parse of `body` served under `served_etag`;
  /// returns the stored document (owned by the cache until the next
  /// Store/Invalidate of this resource).
  const FeedDocument& Store(ResourceId resource,
                            std::string_view served_etag,
                            std::string_view body, FeedDocument document);

  /// Drops the resource's entry (a parse failure proves the cached
  /// state can no longer be trusted as current).
  void Invalidate(ResourceId resource);

  const ParseCacheStats& stats() const { return stats_; }

  /// Checkpoint support: Capture() freezes entries and stats; Restore()
  /// resumes them on a cache built with the same resource count.
  /// InvalidArgument on a size mismatch.
  ParseCacheImage Capture() const;
  Status Restore(const ParseCacheImage& image);

  /// FNV-1a over the body bytes (the content key).
  static uint64_t HashBody(std::string_view body);

 private:
  std::vector<ParseCacheEntryImage> entries_;
  ParseCacheStats stats_;
};

}  // namespace pullmon

#endif  // PULLMON_FEEDS_PARSE_CACHE_H_
