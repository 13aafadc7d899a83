#include "feeds/rss.h"

#include "feeds/xml.h"
#include "util/datetime.h"

namespace pullmon {

Result<FeedDocument> ParseRss(std::string_view xml) {
  PULLMON_ASSIGN_OR_RETURN(XmlNode root, ParseXml(xml));
  if (root.name != "rss") {
    return Status::ParseError("expected <rss> root, got <" + root.name +
                              ">");
  }
  const XmlNode* channel = root.FirstChild("channel");
  if (channel == nullptr) {
    return Status::ParseError("<rss> document without <channel>");
  }
  FeedDocument feed;
  feed.title = channel->ChildText("title");
  feed.link = channel->ChildText("link");
  feed.description = channel->ChildText("description");
  for (const XmlNode* item_node : channel->Children("item")) {
    FeedItem item;
    item.guid = item_node->ChildText("guid");
    item.title = item_node->ChildText("title");
    item.link = item_node->ChildText("link");
    item.description = item_node->ChildText("description");
    std::string pub_date = item_node->ChildText("pubDate");
    if (!pub_date.empty()) {
      auto parsed = ParseRfc822(pub_date);
      if (parsed.ok()) item.published = *parsed;
    }
    feed.items.push_back(std::move(item));
  }
  return feed;
}

Result<const FeedDocumentView*> ParseRss(std::string_view xml,
                                         Arena* arena) {
  PULLMON_ASSIGN_OR_RETURN(const ArenaXmlNode* root, ParseXml(xml, arena));
  if (root->name != "rss") {
    return Status::ParseError("expected <rss> root, got <" +
                              std::string(root->name) + ">");
  }
  const ArenaXmlNode* channel = root->FirstChild("channel");
  if (channel == nullptr) {
    return Status::ParseError("<rss> document without <channel>");
  }
  FeedDocumentView* feed = arena->New<FeedDocumentView>();
  feed->title = channel->ChildText("title");
  feed->link = channel->ChildText("link");
  feed->description = channel->ChildText("description");
  FeedItemView* last_item = nullptr;
  for (const ArenaXmlNode* item_node = channel->first_child;
       item_node != nullptr; item_node = item_node->next_sibling) {
    if (item_node->name != "item") continue;
    FeedItemView* item = arena->New<FeedItemView>();
    item->guid = item_node->ChildText("guid");
    item->title = item_node->ChildText("title");
    item->link = item_node->ChildText("link");
    item->description = item_node->ChildText("description");
    std::string_view pub_date = item_node->ChildText("pubDate");
    if (!pub_date.empty()) {
      auto parsed = ParseRfc822(pub_date);
      if (parsed.ok()) item->published = *parsed;
    }
    if (last_item == nullptr) {
      feed->first_item = item;
    } else {
      last_item->next = item;
    }
    last_item = item;
    ++feed->num_items;
  }
  return static_cast<const FeedDocumentView*>(feed);
}

std::string WriteRss(const FeedDocument& feed) {
  std::string out;
  WriteRssHeadTo(feed, &out);
  for (const auto& item : feed.items) AppendRssItem(item, &out);
  AppendRssTail(&out);
  return out;
}

void WriteRssHeadTo(const FeedDocument& feed, std::string* out) {
  XmlWriter writer(out);
  writer.Open("rss", {{"version", "2.0"}});
  writer.Open("channel");
  writer.Leaf("title", feed.title);
  writer.Leaf("link", feed.link);
  writer.Leaf("description", feed.description);
}

void AppendRssItem(const FeedItem& item, std::string* out) {
  XmlWriter writer(out, {"rss", "channel"});
  writer.Open("item");
  writer.Leaf("guid", item.guid);
  writer.Leaf("title", item.title);
  writer.Leaf("link", item.link);
  writer.Leaf("description", item.description);
  writer.Leaf("pubDate", FormatRfc822(item.published));
  writer.Close();
}

void AppendRssTail(std::string* out) {
  XmlWriter writer(out, {"rss", "channel"});
  writer.Close();
  writer.Close();
}

}  // namespace pullmon
