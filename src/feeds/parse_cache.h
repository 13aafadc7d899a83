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

/// The key of one resource's ParseCache entry: what a snapshot keeps of
/// it. The parsed document is not persisted. A restored entry is
/// *pending*, and its first hit parses the body that hit it (see
/// ParseCache::Lookup), so a restored run replays the same hits, and
/// counts the same parse_cache_* values, as the uninterrupted run.
struct ParseCacheEntryImage {
  bool valid = false;
  std::string etag;
  uint64_t body_hash = 0;
  std::size_t body_size = 0;
};

struct ParseCacheImage {
  std::vector<ParseCacheEntryImage> entries;
  ParseCacheStats stats;
};

/// Hits that filled a pending (restored) entry, by the key that hit;
/// zero on a cache that restored nothing.
struct PendingFillStats {
  std::size_t content_fills = 0;
  std::size_t validator_fills = 0;
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
/// counters, and notifications with the cache on or off. The same holds
/// for a restored entry: the body that first hits it is the body its
/// key was stored for, so parsing that body rebuilds the document.
class ParseCache {
 public:
  explicit ParseCache(std::size_t num_resources)
      : entries_(num_resources) {}

  /// The cached document for this response, or nullptr on a miss.
  /// `served_etag` is the validator accompanying the response body;
  /// `mangled` marks bodies known to be degraded in flight. A hit on a
  /// pending entry parses `body` into the entry first. That body must
  /// have the stored hash and size and must parse, or the restored key
  /// does not describe what the server serves: Status::Internal.
  Result<const FeedDocument*> Lookup(ResourceId resource,
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
  const PendingFillStats& pending_fills() const { return pending_fills_; }

  /// Checkpoint support: Capture() freezes the entry keys and stats;
  /// Restore() resumes them, every valid entry pending, on a cache
  /// built with the same resource count. InvalidArgument on a size
  /// mismatch.
  ParseCacheImage Capture() const;
  Status Restore(const ParseCacheImage& image);

  /// FNV-1a over the body bytes (the content key).
  static uint64_t HashBody(std::string_view body);

 private:
  struct Entry {
    ParseCacheEntryImage key;
    /// Restored without its document, which the next hit parses.
    bool pending = false;
    FeedDocument document;
  };

  /// Counts a hit of `entry` on `body`, filling it first when pending.
  Result<const FeedDocument*> Hit(Entry& entry, std::string_view body,
                                  bool by_validator);

  std::vector<Entry> entries_;
  ParseCacheStats stats_;
  PendingFillStats pending_fills_;
};

}  // namespace pullmon

#endif  // PULLMON_FEEDS_PARSE_CACHE_H_
