#include "feeds/feed_server.h"

#include "feeds/atom.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace pullmon {

FeedServer::FeedServer(ResourceId id, std::string title,
                       std::size_t capacity, FeedFormat format,
                       ChrononClock clock)
    : id_(id),
      title_(std::move(title)),
      capacity_(capacity == 0 ? 1 : capacity),
      format_(format),
      clock_(clock) {}

void FeedServer::Publish(FeedItem item) {
  items_.push_front(std::move(item));
  fragments_.emplace_front();
  ++publish_count_;
  while (items_.size() > capacity_) {
    items_.pop_back();
    fragments_.pop_back();
    ++evicted_count_;
  }
  body_dirty_ = true;
  etag_dirty_ = true;
}

std::string_view FeedServer::CurrentETagView() const {
  if (etag_dirty_) {
    // A content-derived validator: publish count plus the newest guid
    // is enough to distinguish every buffer state of this server.
    uint64_t h =
        Fnv1a64(StringFormat("%zu", publish_count_), kFnv1a64FeedBasis);
    if (!items_.empty()) h = Fnv1a64(items_.front().guid, h);
    etag_cache_ =
        StringFormat("\"%016llx\"", static_cast<unsigned long long>(h));
    etag_dirty_ = false;
  }
  return etag_cache_;
}

FeedServer::ConditionalFetchView FeedServer::FetchConditionalView(
    std::string_view if_none_match) {
  ConditionalFetchView result;
  result.etag = CurrentETagView();
  if (!if_none_match.empty() && if_none_match == result.etag) {
    result.not_modified = true;
    ++not_modified_count_;
    ++fetch_count_;
    return result;
  }
  result.body = FetchView();
  return result;
}

std::string_view FeedServer::FetchView() {
  ++fetch_count_;
  if (body_dirty_) {
    if (head_.empty()) {
      FeedDocument channel;
      channel.title = title_;
      channel.link =
          StringFormat("http://feeds.example.com/resource/%d", id_);
      channel.description =
          StringFormat("Volatile feed of resource %d (capacity %zu)", id_,
                       capacity_);
      WriteFeedHeadTo(channel, format_, &head_);
      AppendFeedTail(format_, &tail_);
    }
    // Each item is rendered once, by the first fetch that serves it;
    // later bodies only concatenate the cached pieces.
    body_cache_.assign(head_);
    for (std::size_t i = 0; i < items_.size(); ++i) {
      std::string& fragment = fragments_[i];
      if (fragment.empty()) AppendFeedItem(items_[i], format_, &fragment);
      body_cache_ += fragment;
    }
    body_cache_ += tail_;
    body_dirty_ = false;
  }
  return body_cache_;
}

FeedNetwork::FeedNetwork(const UpdateTrace* trace,
                         std::size_t buffer_capacity, FeedFormat format,
                         ChrononClock clock)
    : trace_(trace), clock_(clock) {
  servers_.reserve(static_cast<std::size_t>(trace->num_resources()));
  next_event_.assign(static_cast<std::size_t>(trace->num_resources()), 0);
  for (ResourceId r = 0; r < trace->num_resources(); ++r) {
    servers_.emplace_back(r, StringFormat("Resource %d updates", r),
                          buffer_capacity, format, clock);
  }
}

void FeedNetwork::AdvanceTo(Chronon t) {
  if (t <= published_through_) return;
  for (ResourceId r = 0; r < trace_->num_resources(); ++r) {
    const auto& events = trace_->EventsFor(r);
    std::size_t& next = next_event_[static_cast<std::size_t>(r)];
    while (next < events.size() && events[next] <= t) {
      const Chronon when = events[next];
      FeedItem item;
      item.guid = StringFormat("resource-%d-update-%zu", r, next);
      item.title = StringFormat("Update %zu of resource %d", next, r);
      item.link =
          StringFormat("http://feeds.example.com/resource/%d/%zu", r, next);
      item.description =
          StringFormat("State change observed at chronon %d", when);
      item.published = clock_.ToUnix(when);
      servers_[static_cast<std::size_t>(r)].Publish(std::move(item));
      ++next;
    }
  }
  published_through_ = t;
}

Result<FeedServer::ConditionalFetchView> FeedNetwork::ProbeConditionalView(
    ResourceId resource, std::string_view if_none_match) {
  if (resource < 0 ||
      resource >= static_cast<ResourceId>(servers_.size())) {
    return Status::NotFound(
        StringFormat("no feed server for resource %d", resource));
  }
  return servers_[static_cast<std::size_t>(resource)].FetchConditionalView(
      if_none_match);
}

FeedServer* FeedNetwork::server(ResourceId resource) {
  if (resource < 0 ||
      resource >= static_cast<ResourceId>(servers_.size())) {
    return nullptr;
  }
  return &servers_[static_cast<std::size_t>(resource)];
}

std::size_t FeedNetwork::TotalEvicted() const {
  std::size_t total = 0;
  for (const auto& server : servers_) total += server.evicted_count();
  return total;
}

}  // namespace pullmon
