#include "feeds/parse_cache.h"

#include <utility>

#include "feeds/atom.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace pullmon {

uint64_t ParseCache::HashBody(std::string_view body) {
  return Fnv1a64(body, kFnv1a64FeedBasis);
}

Result<const FeedDocument*> ParseCache::Lookup(ResourceId resource,
                                               std::string_view served_etag,
                                               std::string_view body,
                                               bool mangled) {
  // The mangled flag is authoritative: a body the transport layer
  // says is degraded must reach the parser, even when it carries a
  // truthful validator or happens to hash like the stored body. This
  // keeps fault accounting (parse_failures, invalidations) identical
  // with the cache on or off.
  if (mangled) {
    ++stats_.parse_cache_misses;
    return nullptr;
  }
  Entry& entry = entries_[static_cast<std::size_t>(resource)];
  if (entry.key.valid) {
    // Validator key: the served ETag equals the stored one.
    if (!served_etag.empty() && served_etag == entry.key.etag) {
      return Hit(entry, body, /*by_validator=*/true);
    }
    // Content key: byte-identical body under a different (e.g.
    // storm-salted) validator.
    if (body.size() == entry.key.body_size &&
        HashBody(body) == entry.key.body_hash) {
      return Hit(entry, body, /*by_validator=*/false);
    }
  }
  ++stats_.parse_cache_misses;
  return nullptr;
}

Result<const FeedDocument*> ParseCache::Hit(Entry& entry,
                                            std::string_view body,
                                            bool by_validator) {
  if (entry.pending) {
    // The entry's document was the parse of a pristine body with this
    // key. A content-key hit is that body byte for byte; a validator-key
    // hit is the body the server renders under the same validator, which
    // must hash the same.
    if (body.size() != entry.key.body_size ||
        HashBody(body) != entry.key.body_hash) {
      return Status::Internal(StringFormat(
          "restored parse-cache entry hit by a %zu-byte body that does "
          "not hash like the stored %zu-byte body",
          body.size(), entry.key.body_size));
    }
    auto parsed = ParseFeed(body);
    if (!parsed.ok()) {
      return Status::Internal("restored parse-cache entry hit by a body "
                              "that does not parse: " +
                              parsed.status().ToString());
    }
    entry.document = std::move(*parsed);
    entry.pending = false;
    ++(by_validator ? pending_fills_.validator_fills
                    : pending_fills_.content_fills);
  }
  ++stats_.parse_cache_hits;
  stats_.parse_cache_bytes_saved += body.size();
  return &entry.document;
}

const FeedDocument& ParseCache::Store(ResourceId resource,
                                      std::string_view served_etag,
                                      std::string_view body,
                                      FeedDocument document) {
  Entry& entry = entries_[static_cast<std::size_t>(resource)];
  entry.key.valid = true;
  entry.key.etag.assign(served_etag);
  entry.key.body_hash = HashBody(body);
  entry.key.body_size = body.size();
  entry.pending = false;
  entry.document = std::move(document);
  return entry.document;
}

void ParseCache::Invalidate(ResourceId resource) {
  Entry& entry = entries_[static_cast<std::size_t>(resource)];
  if (!entry.key.valid) return;
  entry.key.valid = false;
  ++stats_.parse_cache_invalidations;
}

ParseCacheImage ParseCache::Capture() const {
  ParseCacheImage image;
  image.entries.reserve(entries_.size());
  for (const Entry& entry : entries_) image.entries.push_back(entry.key);
  image.stats = stats_;
  return image;
}

Status ParseCache::Restore(const ParseCacheImage& image) {
  if (image.entries.size() != entries_.size()) {
    return Status::InvalidArgument(
        "parse-cache image resource count does not match the cache");
  }
  for (std::size_t r = 0; r < entries_.size(); ++r) {
    entries_[r].key = image.entries[r];
    entries_[r].pending = image.entries[r].valid;
    entries_[r].document = FeedDocument{};
  }
  stats_ = image.stats;
  return Status::OK();
}

}  // namespace pullmon
