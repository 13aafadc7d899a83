#ifndef PULLMON_FEEDS_FEED_ITEM_H_
#define PULLMON_FEEDS_FEED_ITEM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pullmon {

/// One entry of a Web feed (an RSS <item> or Atom <entry>). Items are
/// identified by guid; `published` is a Unix timestamp (UTC).
struct FeedItem {
  std::string guid;
  std::string title;
  std::string link;
  std::string description;
  int64_t published = 0;

  bool operator==(const FeedItem& other) const = default;
};

/// A whole feed document (RSS <channel> or Atom <feed>) with items in
/// document order (feeds conventionally list newest first).
struct FeedDocument {
  std::string title;
  std::string link;
  std::string description;
  std::vector<FeedItem> items;
};

/// Zero-copy counterpart of FeedItem produced by the arena parsers:
/// every field is a view into the document buffer or the arena, and
/// items form an intrusive list in document order. Valid until the
/// arena's next Reset() and only while the buffer outlives them.
struct FeedItemView {
  std::string_view guid;
  std::string_view title;
  std::string_view link;
  std::string_view description;
  int64_t published = 0;
  const FeedItemView* next = nullptr;
};

/// Zero-copy counterpart of FeedDocument (same lifetime rules).
struct FeedDocumentView {
  std::string_view title;
  std::string_view link;
  std::string_view description;
  const FeedItemView* first_item = nullptr;
  std::size_t num_items = 0;

  /// Deep-copies the view into an owning FeedDocument.
  FeedDocument Materialize() const {
    FeedDocument feed;
    feed.title = std::string(title);
    feed.link = std::string(link);
    feed.description = std::string(description);
    feed.items.reserve(num_items);
    AppendItems(&feed.items);
    return feed;
  }

  /// Deep-copies the items, in document order, onto `out`.
  void AppendItems(std::vector<FeedItem>* out) const {
    for (const FeedItemView* item = first_item; item != nullptr;
         item = item->next) {
      FeedItem copy;
      copy.guid = std::string(item->guid);
      copy.title = std::string(item->title);
      copy.link = std::string(item->link);
      copy.description = std::string(item->description);
      copy.published = item->published;
      out->push_back(std::move(copy));
    }
  }
};

/// The wire formats the library reads and writes.
enum class FeedFormat {
  kRss2,
  kAtom1,
};

}  // namespace pullmon

#endif  // PULLMON_FEEDS_FEED_ITEM_H_
