#include "feeds/parse_cache.h"

#include <utility>

#include "util/hash.h"

namespace pullmon {

uint64_t ParseCache::HashBody(std::string_view body) {
  return Fnv1a64(body, kFnv1a64FeedBasis);
}

const FeedDocument* ParseCache::Lookup(ResourceId resource,
                                       std::string_view served_etag,
                                       std::string_view body, bool mangled) {
  // The mangled flag is authoritative: a body the transport layer
  // says is degraded must reach the parser, even when it carries a
  // truthful validator or happens to hash like the stored body. This
  // keeps fault accounting (parse_failures, invalidations) identical
  // with the cache on or off.
  if (mangled) {
    ++stats_.parse_cache_misses;
    return nullptr;
  }
  ParseCacheEntryImage& entry = entries_[static_cast<std::size_t>(resource)];
  if (entry.valid) {
    // Validator key: the served ETag equals the stored one.
    if (!served_etag.empty() && served_etag == entry.etag) {
      ++stats_.parse_cache_hits;
      stats_.parse_cache_bytes_saved += body.size();
      return &entry.document;
    }
    // Content key: byte-identical body under a different (e.g.
    // storm-salted) validator.
    if (body.size() == entry.body_size &&
        HashBody(body) == entry.body_hash) {
      ++stats_.parse_cache_hits;
      stats_.parse_cache_bytes_saved += body.size();
      return &entry.document;
    }
  }
  ++stats_.parse_cache_misses;
  return nullptr;
}

const FeedDocument& ParseCache::Store(ResourceId resource,
                                      std::string_view served_etag,
                                      std::string_view body,
                                      FeedDocument document) {
  ParseCacheEntryImage& entry = entries_[static_cast<std::size_t>(resource)];
  entry.valid = true;
  entry.etag.assign(served_etag);
  entry.body_hash = HashBody(body);
  entry.body_size = body.size();
  entry.document = std::move(document);
  return entry.document;
}

void ParseCache::Invalidate(ResourceId resource) {
  ParseCacheEntryImage& entry = entries_[static_cast<std::size_t>(resource)];
  if (!entry.valid) return;
  entry.valid = false;
  ++stats_.parse_cache_invalidations;
}

ParseCacheImage ParseCache::Capture() const {
  return ParseCacheImage{entries_, stats_};
}

Status ParseCache::Restore(const ParseCacheImage& image) {
  if (image.entries.size() != entries_.size()) {
    return Status::InvalidArgument(
        "parse-cache image resource count does not match the cache");
  }
  entries_ = image.entries;
  stats_ = image.stats;
  return Status::OK();
}

}  // namespace pullmon
