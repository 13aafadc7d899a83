#include "feeds/atom.h"

#include "feeds/rss.h"
#include "feeds/xml.h"
#include "util/datetime.h"
#include "util/string_util.h"

namespace pullmon {

Result<FeedDocument> ParseAtom(std::string_view xml) {
  PULLMON_ASSIGN_OR_RETURN(XmlNode root, ParseXml(xml));
  if (root.name != "feed") {
    return Status::ParseError("expected <feed> root, got <" + root.name +
                              ">");
  }
  FeedDocument feed;
  feed.title = root.ChildText("title");
  feed.description = root.ChildText("subtitle");
  if (const XmlNode* link = root.FirstChild("link")) {
    if (const std::string* href = link->Attribute("href")) {
      feed.link = *href;
    }
  }
  for (const XmlNode* entry : root.Children("entry")) {
    FeedItem item;
    item.guid = entry->ChildText("id");
    item.title = entry->ChildText("title");
    item.description = entry->ChildText("summary");
    if (item.description.empty()) {
      item.description = entry->ChildText("content");
    }
    if (const XmlNode* link = entry->FirstChild("link")) {
      if (const std::string* href = link->Attribute("href")) {
        item.link = *href;
      }
    }
    std::string updated = entry->ChildText("updated");
    if (updated.empty()) updated = entry->ChildText("published");
    if (!updated.empty()) {
      auto parsed = ParseRfc3339(updated);
      if (parsed.ok()) item.published = *parsed;
    }
    feed.items.push_back(std::move(item));
  }
  return feed;
}

Result<const FeedDocumentView*> ParseAtom(std::string_view xml,
                                          Arena* arena) {
  PULLMON_ASSIGN_OR_RETURN(const ArenaXmlNode* root, ParseXml(xml, arena));
  if (root->name != "feed") {
    return Status::ParseError("expected <feed> root, got <" +
                              std::string(root->name) + ">");
  }
  FeedDocumentView* feed = arena->New<FeedDocumentView>();
  feed->title = root->ChildText("title");
  feed->description = root->ChildText("subtitle");
  if (const ArenaXmlNode* link = root->FirstChild("link")) {
    if (const std::string_view* href = link->Attribute("href")) {
      feed->link = *href;
    }
  }
  FeedItemView* last_item = nullptr;
  for (const ArenaXmlNode* entry = root->first_child; entry != nullptr;
       entry = entry->next_sibling) {
    if (entry->name != "entry") continue;
    FeedItemView* item = arena->New<FeedItemView>();
    item->guid = entry->ChildText("id");
    item->title = entry->ChildText("title");
    item->description = entry->ChildText("summary");
    if (item->description.empty()) {
      item->description = entry->ChildText("content");
    }
    if (const ArenaXmlNode* link = entry->FirstChild("link")) {
      if (const std::string_view* href = link->Attribute("href")) {
        item->link = *href;
      }
    }
    std::string_view updated = entry->ChildText("updated");
    if (updated.empty()) updated = entry->ChildText("published");
    if (!updated.empty()) {
      auto parsed = ParseRfc3339(updated);
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

std::string WriteAtom(const FeedDocument& feed) {
  std::string out;
  WriteAtomHeadTo(feed, &out);
  for (const auto& item : feed.items) AppendAtomEntry(item, &out);
  AppendAtomTail(&out);
  return out;
}

void WriteAtomHeadTo(const FeedDocument& feed, std::string* out) {
  XmlWriter writer(out);
  writer.Open("feed", {{"xmlns", "http://www.w3.org/2005/Atom"}});
  writer.Leaf("title", feed.title);
  writer.Leaf("subtitle", feed.description);
  writer.Open("link", {{"href", feed.link}});
  writer.Close();
}

void AppendAtomEntry(const FeedItem& item, std::string* out) {
  XmlWriter writer(out, {"feed"});
  writer.Open("entry");
  writer.Leaf("id", item.guid);
  writer.Leaf("title", item.title);
  writer.Leaf("summary", item.description);
  writer.Open("link", {{"href", item.link}});
  writer.Close();
  writer.Leaf("updated", FormatRfc3339(item.published));
  writer.Close();
}

void AppendAtomTail(std::string* out) {
  XmlWriter writer(out, {"feed"});
  writer.Close();
}

namespace {

/// Root sniffing shared by both ParseFeed overloads: 'r' for <rss>,
/// 'a' for <feed>, '\0' for no/unknown root, without parsing twice.
/// The prolog is skipped exactly as the XML parser skips it, so a tag
/// inside a comment, PI or DOCTYPE is never taken for the root.
char SniffFeedRoot(std::string_view xml) {
  std::string_view root = xml.substr(SkipXmlMisc(xml, 0));
  if (StartsWith(root, "<rss")) return 'r';
  if (StartsWith(root, "<feed")) return 'a';
  return '\0';
}

}  // namespace

Result<FeedDocument> ParseFeed(std::string_view xml) {
  switch (SniffFeedRoot(xml)) {
    case 'r':
      return ParseRss(xml);
    case 'a':
      return ParseAtom(xml);
    default:
      return Status::ParseError("unrecognized feed root element");
  }
}

Result<const FeedDocumentView*> ParseFeed(std::string_view xml,
                                          Arena* arena) {
  switch (SniffFeedRoot(xml)) {
    case 'r':
      return ParseRss(xml, arena);
    case 'a':
      return ParseAtom(xml, arena);
    default:
      return Status::ParseError("unrecognized feed root element");
  }
}

std::string WriteFeed(const FeedDocument& feed, FeedFormat format) {
  std::string out;
  WriteFeedHeadTo(feed, format, &out);
  for (const auto& item : feed.items) AppendFeedItem(item, format, &out);
  AppendFeedTail(format, &out);
  return out;
}

void WriteFeedHeadTo(const FeedDocument& feed, FeedFormat format,
                     std::string* out) {
  switch (format) {
    case FeedFormat::kRss2:
      WriteRssHeadTo(feed, out);
      return;
    case FeedFormat::kAtom1:
      WriteAtomHeadTo(feed, out);
      return;
  }
  out->clear();
}

void AppendFeedItem(const FeedItem& item, FeedFormat format,
                    std::string* out) {
  switch (format) {
    case FeedFormat::kRss2:
      AppendRssItem(item, out);
      return;
    case FeedFormat::kAtom1:
      AppendAtomEntry(item, out);
      return;
  }
}

void AppendFeedTail(FeedFormat format, std::string* out) {
  switch (format) {
    case FeedFormat::kRss2:
      AppendRssTail(out);
      return;
    case FeedFormat::kAtom1:
      AppendAtomTail(out);
      return;
  }
}

}  // namespace pullmon
