#ifndef PULLMON_FEEDS_FEED_SERVER_H_
#define PULLMON_FEEDS_FEED_SERVER_H_

#include <cstddef>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "core/chronon.h"
#include "feeds/feed_item.h"
#include "trace/update_trace.h"
#include "util/datetime.h"
#include "util/status.h"

namespace pullmon {

/// A simulated volatile feed publisher: a server holding a *bounded*
/// buffer of feed items, evicting the oldest on overflow. This models
/// the paper's observation (via [10]) that feed providers keep each item
/// available only for a limited life period (~80% of feeds are under
/// 10 KB), which is precisely what makes pull scheduling necessary —
/// items fetched too late are gone.
class FeedServer {
 public:
  FeedServer(ResourceId id, std::string title, std::size_t capacity,
             FeedFormat format = FeedFormat::kRss2,
             ChrononClock clock = ChrononClock{});

  ResourceId id() const { return id_; }
  const std::string& title() const { return title_; }
  std::size_t capacity() const { return capacity_; }

  /// Publishes an item (newest first); evicts beyond capacity.
  void Publish(FeedItem item);

  /// Serves the current buffer as a serialized feed document — the pull
  /// protocol endpoint (an HTTP GET in a deployment). The view is of the
  /// server's cached serialization and stays valid until the next
  /// Publish(); the body buffer is reused across probes of an unchanged
  /// feed, so the probe hot path allocates nothing in the steady state.
  /// Callers that keep a body past the next Publish() copy it.
  std::string_view FetchView();

  /// Result of a conditional fetch (HTTP If-None-Match semantics): views
  /// into the server's cached body and validator buffers, valid until
  /// the next Publish().
  struct ConditionalFetchView {
    /// True when the client's validator still matches: no body is sent
    /// (an HTTP 304), only the validator is echoed.
    bool not_modified = false;
    std::string_view body;  // empty when not_modified
    /// Opaque validator of the served state; present either way.
    std::string_view etag;
  };

  /// Conditional pull: pass the validator from a previous fetch (or ""
  /// for an unconditional one). When the feed state is unchanged the
  /// server answers not_modified with an empty body — the bandwidth
  /// economy that makes frequent polling viable in deployments.
  ConditionalFetchView FetchConditionalView(std::string_view if_none_match);

  /// Validator of the current buffer state (changes on every publish): a
  /// view of the cached validator, valid until the next Publish().
  std::string_view CurrentETagView() const;

  /// Items currently buffered, newest first.
  const std::deque<FeedItem>& items() const { return items_; }

  std::size_t publish_count() const { return publish_count_; }
  std::size_t fetch_count() const { return fetch_count_; }
  /// Conditional fetches answered without a body.
  std::size_t not_modified_count() const { return not_modified_count_; }
  /// Items lost to the bounded buffer — data a late prober can never see.
  std::size_t evicted_count() const { return evicted_count_; }

 private:
  ResourceId id_;
  std::string title_;
  std::size_t capacity_;
  FeedFormat format_;
  ChrononClock clock_;
  std::deque<FeedItem> items_;
  /// Rendered XML fragment of each buffered item, parallel to items_
  /// (pushed and evicted with it). Empty until the first fetch that
  /// serves the item renders it — a rendered fragment is never empty —
  /// so items nobody fetches are never rendered.
  std::deque<std::string> fragments_;
  /// The channel's head and tail, rendered at the first fetch.
  std::string head_;
  std::string tail_;
  std::size_t publish_count_ = 0;
  std::size_t fetch_count_ = 0;
  std::size_t evicted_count_ = 0;
  std::size_t not_modified_count_ = 0;
  // Serialization and validator caches, invalidated by Publish(). A
  // dirty body is reassembled as head_ + fragments_ + tail_ into
  // body_cache_, which retains its capacity, so probing an unchanged
  // feed allocates nothing. Mutable because the accessors are logically
  // const (CurrentETagView).
  mutable std::string body_cache_;
  mutable bool body_dirty_ = true;
  mutable std::string etag_cache_;
  mutable bool etag_dirty_ = true;
};

/// A fleet of feed servers, one per resource, replaying an update trace:
/// advancing the network clock publishes the due items; probing a
/// resource fetches (and parses, at the caller's choice) its feed. Every
/// response is a FeedServer::ConditionalFetchView.
/// Used by the proxy layer and the examples to exercise the full
/// pull path end to end.
class FeedNetwork {
 public:
  /// `trace` must outlive the network. `buffer_capacity` bounds each
  /// server's feed size.
  FeedNetwork(const UpdateTrace* trace, std::size_t buffer_capacity,
              FeedFormat format = FeedFormat::kRss2,
              ChrononClock clock = ChrononClock{});

  /// Publishes every update event with chronon <= t that has not been
  /// published yet. Must be called with non-decreasing t.
  void AdvanceTo(Chronon t);

  /// Conditional pull-probe (If-None-Match) of one resource at the
  /// current clock: views valid until the probed server's next
  /// Publish(). NotFound for unknown resources.
  Result<FeedServer::ConditionalFetchView> ProbeConditionalView(
      ResourceId resource, std::string_view if_none_match);

  FeedServer* server(ResourceId resource);
  std::size_t num_servers() const { return servers_.size(); }

  /// Total items evicted across servers so far.
  std::size_t TotalEvicted() const;

 private:
  const UpdateTrace* trace_;
  ChrononClock clock_;
  Chronon published_through_ = -1;
  std::vector<FeedServer> servers_;
  /// Per-resource count of already-published events: the replay cursor
  /// and the guid index.
  std::vector<std::size_t> next_event_;
};

}  // namespace pullmon

#endif  // PULLMON_FEEDS_FEED_SERVER_H_
