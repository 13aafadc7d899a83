#ifndef PULLMON_FEEDS_RSS_H_
#define PULLMON_FEEDS_RSS_H_

#include <string>
#include <string_view>

#include "feeds/feed_item.h"
#include "util/arena.h"
#include "util/status.h"

namespace pullmon {

/// Parses an RSS 2.0 document (root <rss> with one <channel>).
/// Unknown elements are ignored; a missing or unparsable <pubDate>
/// yields published == 0. ParseError on structural problems.
Result<FeedDocument> ParseRss(std::string_view xml);

/// Arena overload: parses in-situ over `xml` into caller-owned arena
/// storage, with no per-field string copies. Accepts/rejects the same
/// documents as the allocating overload.
Result<const FeedDocumentView*> ParseRss(std::string_view xml,
                                         Arena* arena);

/// Serializes a feed as RSS 2.0. Item pubDates are RFC 822. The output
/// is WriteRssHeadTo + AppendRssItem per item + AppendRssTail.
std::string WriteRss(const FeedDocument& feed);

/// The document's head: declaration, <rss>, <channel> and the channel's
/// title, link and description (`feed.items` is ignored). Clears `*out`.
void WriteRssHeadTo(const FeedDocument& feed, std::string* out);

/// Appends one <item> element — the one definition of an item's bytes.
void AppendRssItem(const FeedItem& item, std::string* out);

/// Appends the closing </channel> and </rss>.
void AppendRssTail(std::string* out);

}  // namespace pullmon

#endif  // PULLMON_FEEDS_RSS_H_
