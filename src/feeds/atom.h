#ifndef PULLMON_FEEDS_ATOM_H_
#define PULLMON_FEEDS_ATOM_H_

#include <string>
#include <string_view>

#include "feeds/feed_item.h"
#include "util/arena.h"
#include "util/status.h"

namespace pullmon {

/// Parses an Atom 1.0 document (root <feed>). Entry <id> maps to guid,
/// <summary>/<content> to description, <updated> (RFC 3339) to
/// published. ParseError on structural problems.
Result<FeedDocument> ParseAtom(std::string_view xml);

/// Arena overload: parses in-situ over `xml` into caller-owned arena
/// storage (see ParseRss).
Result<const FeedDocumentView*> ParseAtom(std::string_view xml,
                                          Arena* arena);

/// Serializes a feed as Atom 1.0. The output is WriteAtomHeadTo +
/// AppendAtomEntry per item + AppendAtomTail.
std::string WriteAtom(const FeedDocument& feed);

/// The document's head: declaration, <feed> and the feed's title,
/// subtitle and link (`feed.items` is ignored). Clears `*out`.
void WriteAtomHeadTo(const FeedDocument& feed, std::string* out);

/// Appends one <entry> element — the one definition of an entry's bytes.
void AppendAtomEntry(const FeedItem& item, std::string* out);

/// Appends the closing </feed>.
void AppendAtomTail(std::string* out);

/// Auto-detects RSS vs Atom by root element and dispatches.
Result<FeedDocument> ParseFeed(std::string_view xml);

/// Arena overload of ParseFeed.
Result<const FeedDocumentView*> ParseFeed(std::string_view xml,
                                          Arena* arena);

/// Serializes in the requested format.
std::string WriteFeed(const FeedDocument& feed, FeedFormat format);

/// The three pieces WriteFeed is made of, in the requested format:
/// WriteFeedHeadTo(feed) + AppendFeedItem(item) for each of feed.items
/// + AppendFeedTail is byte-identical to WriteFeed(feed). Lets a
/// publisher render each item once and reassemble documents from the
/// cached pieces (FeedServer). The head clears `*out`; the others append.
void WriteFeedHeadTo(const FeedDocument& feed, FeedFormat format,
                     std::string* out);
void AppendFeedItem(const FeedItem& item, FeedFormat format,
                    std::string* out);
void AppendFeedTail(FeedFormat format, std::string* out);

}  // namespace pullmon

#endif  // PULLMON_FEEDS_ATOM_H_
