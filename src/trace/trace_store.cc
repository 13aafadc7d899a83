#include "trace/trace_store.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/string_util.h"

namespace pullmon {

namespace {

/// Encoded size of `value` as a LEB128 varint.
std::size_t VarintSize(std::uint64_t value) {
  std::size_t bytes = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++bytes;
  }
  return bytes;
}

/// Capacity a doubling-growth vector ends up with after `n` push_backs
/// — the model behind TraceStoreStats::in_memory_bytes.
std::size_t RoundUpPow2(std::size_t n) {
  std::size_t c = 1;
  while (c < n) c <<= 1;
  return n == 0 ? 0 : c;
}

}  // namespace

const char* TraceBackendToString(TraceBackend backend) {
  switch (backend) {
    case TraceBackend::kInMemory:
      return "in-memory";
    case TraceBackend::kPaged:
      return "paged";
  }
  return "?";
}

Status TraceStoreOptions::Validate() const {
  if (page_size < 16) {
    return Status::InvalidArgument(
        "trace store page_size must be >= 16 bytes");
  }
  if (cache_pages < 1) {
    return Status::InvalidArgument(
        "trace store cache_pages must be >= 1");
  }
  return Status::OK();
}

TraceStore::TraceStore(int num_resources, Chronon epoch_length,
                       TraceStoreOptions options)
    : num_resources_(num_resources),
      epoch_length_(epoch_length),
      options_(options) {
  PULLMON_CHECK(num_resources_ > 0);
  PULLMON_CHECK(epoch_length_ > 0);
  PULLMON_CHECK(options_.Validate().ok());
  page_offset_.push_back(0);
  first_page_.resize(static_cast<std::size_t>(num_resources_) + 1, 0);
}

Result<TraceStore> TraceStore::FromTrace(const UpdateTrace& trace,
                                         TraceStoreOptions options) {
  TraceStore store(trace.num_resources(), trace.epoch_length(), options);
  for (ResourceId r = 0; r < trace.num_resources(); ++r) {
    for (Chronon t : trace.EventsFor(r)) {
      PULLMON_RETURN_NOT_OK(store.Append(r, t));
    }
  }
  PULLMON_RETURN_NOT_OK(store.Seal());
  return store;
}

Status TraceStore::Append(ResourceId resource, Chronon t) {
  if (sealed_) {
    return Status::FailedPrecondition(
        "trace store is sealed; no further appends");
  }
  if (resource < 0 || resource >= num_resources_) {
    return Status::InvalidArgument(StringFormat(
        "resource %d outside [0, %d)", resource, num_resources_));
  }
  if (t < 0 || t >= epoch_length_) {
    return Status::OutOfRange(StringFormat(
        "chronon %d outside the epoch [0, %d)", t, epoch_length_));
  }
  if (resource < open_resource_) {
    return Status::FailedPrecondition(StringFormat(
        "appends must be resource-major: resource %d after %d already "
        "closed",
        resource, open_resource_));
  }
  if (resource > open_resource_) {
    PULLMON_RETURN_NOT_OK(FlushOpenResource());
    open_resource_ = resource;
  }
  staging_.push_back(t);
  return Status::OK();
}

Status TraceStore::FlushOpenResource() {
  if (open_resource_ >= 0) {
    // Resources skipped since the last flush own zero pages.
    const auto pages = static_cast<std::int32_t>(page_offset_.size() - 1);
    for (int i = filled_through_; i <= open_resource_; ++i) {
      first_page_[i] = pages;
    }
    filled_through_ = open_resource_ + 1;

    std::sort(staging_.begin(), staging_.end());
    staging_.erase(std::unique(staging_.begin(), staging_.end()),
                   staging_.end());
    const std::size_t n = staging_.size();
    std::size_t i = 0;
    while (i < n) {
      // Grow the page until the delta payload reaches the budget.
      std::size_t j = i + 1;
      std::size_t payload = 0;
      while (j < n) {
        const std::size_t delta_bytes = VarintSize(
            static_cast<std::uint64_t>(staging_[j] - staging_[j - 1]) -
            1);
        if (payload + delta_bytes > options_.page_size) break;
        payload += delta_bytes;
        ++j;
      }
      EncodePage(open_resource_, staging_.data() + i, j - i, &bytes_);
      page_offset_.push_back(bytes_.size());
      i = j;
    }
    events_ += n;
    stats_.trace_in_memory_bytes += RoundUpPow2(n) * sizeof(Chronon);
    staging_.clear();
  }
  return Status::OK();
}

Status TraceStore::Seal() {
  if (sealed_) return Status::OK();
  PULLMON_RETURN_NOT_OK(FlushOpenResource());
  const auto pages = static_cast<std::int32_t>(page_offset_.size() - 1);
  for (int i = filled_through_; i <= num_resources_; ++i) {
    first_page_[i] = pages;
  }
  filled_through_ = num_resources_ + 1;
  sealed_ = true;
  bytes_.shrink_to_fit();
  page_offset_.shrink_to_fit();
  stats_.trace_pages_written = static_cast<std::size_t>(pages);
  stats_.trace_bytes_stored = bytes_.size() +
                        page_offset_.size() * sizeof(std::uint64_t) +
                        first_page_.size() * sizeof(std::int32_t);
  // What UpdateTrace would hold for the same events: the outer vector
  // plus one inner vector header per resource, on top of the
  // doubling-growth element storage accumulated at flush time.
  stats_.trace_in_memory_bytes +=
      sizeof(std::vector<std::vector<Chronon>>) +
      static_cast<std::size_t>(num_resources_) *
          sizeof(std::vector<Chronon>);
  return Status::OK();
}

double TraceStore::MeanIntensity() const {
  return static_cast<double>(events_) /
         static_cast<double>(num_resources_);
}

std::string_view TraceStore::PageBytes(int page_id) const {
  const std::uint64_t begin = page_offset_[page_id];
  const std::uint64_t end = page_offset_[page_id + 1];
  return std::string_view(bytes_).substr(
      static_cast<std::size_t>(begin),
      static_cast<std::size_t>(end - begin));
}

Result<std::shared_ptr<const std::vector<Chronon>>> TraceStore::FetchPage(
    int page_id) const {
  PULLMON_CHECK(sealed_);
  auto it = cache_index_.find(page_id);
  if (it != cache_index_.end()) {
    ++stats_.trace_cache_hits;
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
    return it->second->events;
  }
  ++stats_.trace_cache_misses;
  auto events = std::make_shared<std::vector<Chronon>>();
  PULLMON_ASSIGN_OR_RETURN(PageHeader header,
                           DecodePage(PageBytes(page_id), events.get()));
  if (header.page_bytes != PageBytes(page_id).size()) {
    return Status::ParseError(
        "trace page corrupt: encoded size disagrees with the page "
        "table");
  }
  cache_lru_.push_front(CacheEntry{
      page_id, std::shared_ptr<const std::vector<Chronon>>(events)});
  cache_index_[page_id] = cache_lru_.begin();
  while (cache_lru_.size() > options_.cache_pages) {
    cache_index_.erase(cache_lru_.back().page_id);
    cache_lru_.pop_back();
    ++stats_.trace_cache_evictions;
  }
  return cache_lru_.front().events;
}

Status TraceStore::ReadResource(ResourceId resource,
                                std::vector<Chronon>* out) const {
  PULLMON_CHECK(sealed_);
  if (resource < 0 || resource >= num_resources_) {
    return Status::InvalidArgument(StringFormat(
        "resource %d outside [0, %d)", resource, num_resources_));
  }
  for (int page = first_page_[resource];
       page < first_page_[resource + 1]; ++page) {
    PULLMON_ASSIGN_OR_RETURN(auto events, FetchPage(page));
    out->insert(out->end(), events->begin(), events->end());
  }
  return Status::OK();
}

TraceStore::EventCursor TraceStore::EventsFor(ResourceId resource) const {
  PULLMON_CHECK(sealed_);
  if (resource < 0 || resource >= num_resources_) {
    return EventCursor(this, 0, 0);
  }
  return EventCursor(this, first_page_[resource],
                     first_page_[resource + 1]);
}

bool TraceStore::EventCursor::Next(Chronon* t) {
  if (!status_.ok()) return false;
  while (true) {
    if (page_ != nullptr && pos_ < page_->size()) {
      *t = (*page_)[pos_++];
      return true;
    }
    if (next_page_ >= end_page_) return false;
    auto page = store_->FetchPage(next_page_);
    if (!page.ok()) {
      status_ = page.status();
      page_.reset();
      return false;
    }
    page_ = *std::move(page);
    pos_ = 0;
    ++next_page_;
  }
}

Status TraceStore::VerifyAllPages() const {
  PULLMON_CHECK(sealed_);
  std::size_t events = 0;
  std::vector<Chronon> scratch;
  for (ResourceId r = 0; r < num_resources_; ++r) {
    Chronon prev = -1;
    for (int page = first_page_[r]; page < first_page_[r + 1]; ++page) {
      scratch.clear();
      PULLMON_ASSIGN_OR_RETURN(PageHeader header,
                               DecodePage(PageBytes(page), &scratch));
      if (header.resource != r) {
        return Status::ParseError(StringFormat(
            "trace page corrupt: page %d claims resource %d but the "
            "page table assigns it to %d",
            page, header.resource, r));
      }
      if (header.page_bytes != PageBytes(page).size()) {
        return Status::ParseError(
            "trace page corrupt: encoded size disagrees with the page "
            "table");
      }
      if (header.first_chronon <= prev) {
        return Status::ParseError(StringFormat(
            "trace page corrupt: page %d of resource %d regresses to "
            "chronon %d",
            page, r, header.first_chronon));
      }
      prev = header.last_chronon;
      events += scratch.size();
    }
  }
  if (events != events_) {
    return Status::ParseError(StringFormat(
        "trace store corrupt: pages hold %zu events, the store "
        "recorded %zu",
        events, events_));
  }
  return Status::OK();
}

StreamingTraceReader::StreamingTraceReader(const TraceStore* store)
    : store_(store) {
  PULLMON_CHECK(store_ != nullptr && store_->sealed());
  const int n = store_->num_resources();
  cursors_.resize(static_cast<std::size_t>(n));
  heap_.reserve(static_cast<std::size_t>(n));
  for (ResourceId r = 0; r < n; ++r) {
    Cursor& cursor = cursors_[r];
    cursor.next_page = store_->first_page_[r];
    cursor.end_page = store_->first_page_[r + 1];
    Chronon t = 0;
    if (Advance(r, &t)) {
      heap_.emplace_back(t, r);
    } else if (!status_.ok()) {
      return;
    }
  }
  std::make_heap(heap_.begin(), heap_.end(),
                 std::greater<std::pair<Chronon, ResourceId>>());
}

bool StreamingTraceReader::OpenNextPage(Cursor* cursor) {
  if (cursor->next_page >= cursor->end_page) return false;
  const std::string_view page = store_->PageBytes(cursor->next_page);
  auto header = DecodePageHeader(page);
  if (!header.ok()) {
    status_ = header.status();
    return false;
  }
  if (header->page_bytes != page.size()) {
    status_ = Status::ParseError(
        "trace page corrupt: encoded size disagrees with the page "
        "table");
    return false;
  }
  if (header->event_count == 1 && header->payload_bytes != 0) {
    status_ = Status::ParseError(
        "trace page corrupt: payload longer than the event count");
    return false;
  }
  cursor->p = page.data() + header->payload_offset;
  cursor->payload_end =
      cursor->p + static_cast<std::size_t>(header->payload_bytes);
  cursor->prev = header->first_chronon;
  cursor->last = header->last_chronon;
  cursor->remaining = header->event_count - 1;
  ++cursor->next_page;
  return true;
}

bool StreamingTraceReader::Advance(ResourceId r, Chronon* t) {
  Cursor& cursor = cursors_[r];
  if (cursor.remaining == 0) {
    if (cursor.p != nullptr && cursor.p != cursor.payload_end) {
      status_ = Status::ParseError(
          "trace page corrupt: payload longer than the event count");
      return false;
    }
    if (!OpenNextPage(&cursor)) return false;
    // The page's first event lives in the header.
    *t = cursor.prev;
    return true;
  }
  std::uint64_t gap_minus_1 = 0;
  const char* p = DecodeVarint(cursor.p, cursor.payload_end,
                               &gap_minus_1);
  if (p == nullptr) {
    status_ = Status::ParseError(
        "trace page corrupt: payload shorter than the event count");
    return false;
  }
  const std::uint64_t next =
      static_cast<std::uint64_t>(cursor.prev) + gap_minus_1 + 1;
  if (next > static_cast<std::uint64_t>(cursor.last)) {
    status_ = Status::ParseError(
        "trace page corrupt: event past the header's last chronon");
    return false;
  }
  cursor.p = p;
  cursor.prev = static_cast<Chronon>(next);
  if (--cursor.remaining == 0 && cursor.prev != cursor.last) {
    status_ = Status::ParseError(
        "trace page corrupt: final event disagrees with the header");
    return false;
  }
  *t = cursor.prev;
  return true;
}

bool StreamingTraceReader::Next(UpdateEvent* out) {
  if (!status_.ok() || heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(),
                std::greater<std::pair<Chronon, ResourceId>>());
  const auto [t, r] = heap_.back();
  heap_.pop_back();
  out->resource = r;
  out->chronon = t;
  Chronon next = 0;
  if (Advance(r, &next)) {
    heap_.emplace_back(next, r);
    std::push_heap(heap_.begin(), heap_.end(),
                   std::greater<std::pair<Chronon, ResourceId>>());
  }
  return status_.ok();
}

}  // namespace pullmon
