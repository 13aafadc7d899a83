#ifndef PULLMON_TRACE_TRACE_STORE_H_
#define PULLMON_TRACE_TRACE_STORE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/chronon.h"
#include "trace/page_codec.h"
#include "trace/update_trace.h"
#include "util/status.h"

namespace pullmon {

/// Which trace representation the sim layer replays: the in-memory
/// UpdateTrace (the differential oracle) or the paged TraceStore. The
/// two are decision-identical — same ProxyRunReport modulo the store's
/// own telemetry counters.
enum class TraceBackend {
  kInMemory,
  kPaged,
};

const char* TraceBackendToString(TraceBackend backend);

/// Knobs of the paged trace store.
struct TraceStoreOptions {
  /// Target encoded payload bytes per page; a resource's events split
  /// into pages of roughly this many delta bytes each.
  std::size_t page_size = 256;
  /// Decoded pages the LRU cache keeps resident for the per-resource
  /// read path (EventsFor / ReadResource). Streaming replay bypasses
  /// the cache entirely.
  std::size_t cache_pages = 64;

  Status Validate() const;
};

/// Counters of the store (a base of ProxyRunReport; all zero on the
/// in-memory backend): write-side totals are fixed at Seal(); the cache
/// counters accumulate as the read path runs.
struct TraceStoreStats {
  /// Compressed pages written at generation time.
  std::size_t trace_pages_written = 0;
  /// Encoded bytes plus the page/resource index overhead — the resident
  /// footprint of holding the sealed trace.
  std::size_t trace_bytes_stored = 0;
  /// What the same events cost in UpdateTrace's representation: one
  /// vector per resource with doubling growth (24-byte header plus
  /// 4 bytes x capacity rounded to a power of two).
  std::size_t trace_in_memory_bytes = 0;
  /// Page-cache traffic of the per-resource read path.
  std::size_t trace_cache_hits = 0;
  std::size_t trace_cache_misses = 0;
  std::size_t trace_cache_evictions = 0;

  bool operator==(const TraceStoreStats& other) const = default;
};

/// Compressed, paged storage of an update trace (DESIGN.md section 14).
/// Per-resource sorted update chronons are delta-encoded with varints
/// into checksummed pages (trace/page_codec.h) laid out back to back in
/// one byte buffer, resource-major. `UpdateTrace` remains the verbatim
/// in-memory oracle; every reader of this store is differentially
/// tested against it (tests/trace_store_differential_test.cc), and the
/// sim layer switches between the two via SimulationConfig's
/// TraceBackend.
///
/// Write protocol: Append() events resource-by-resource (resource ids
/// non-decreasing; chronons within a resource in any order — they are
/// staged, sorted, and duplicate-collapsed when the resource closes),
/// then Seal(). Only the open resource's events are ever staged
/// uncompressed, so generation runs O(resident window).
///
/// Read paths:
///  * EventsFor()/ReadResource(): random access per resource through an
///    LRU cache of decoded pages (hit/miss/eviction counted);
///  * StreamingTraceReader: chronological merge iteration over all
///    resources, decoding varints straight off the compressed bytes
///    with ~32 bytes of cursor state per resource and no cache
///    interaction — the epoch-replay path.
class TraceStore {
 public:
  TraceStore(int num_resources, Chronon epoch_length,
             TraceStoreOptions options = TraceStoreOptions{});

  /// Builds a sealed store holding exactly the oracle's events — the
  /// conversion used when a trace already exists in memory.
  static Result<TraceStore> FromTrace(
      const UpdateTrace& trace,
      TraceStoreOptions options = TraceStoreOptions{});

  int num_resources() const { return num_resources_; }
  Chronon epoch_length() const { return epoch_length_; }
  const TraceStoreOptions& options() const { return options_; }
  bool sealed() const { return sealed_; }

  /// Stages an update of `resource` at chronon `t`. Resources must be
  /// appended in non-decreasing id order (appending to a lower id after
  /// a higher one has opened fails with FailedPrecondition); within the
  /// open resource chronons may arrive in any order and duplicates
  /// collapse, mirroring UpdateTrace::AddEvent.
  Status Append(ResourceId resource, Chronon t);

  /// Flushes the open resource and freezes the store; Append() after
  /// Seal() fails. Idempotent.
  Status Seal();

  /// Total events across resources (sealed stores only).
  std::size_t TotalEvents() const { return events_; }

  /// Average events per resource — UpdateTrace::MeanIntensity.
  double MeanIntensity() const;

  /// Appends the ascending update chronons of `resource` to `*out`
  /// (not cleared), reading through the page cache.
  Status ReadResource(ResourceId resource,
                      std::vector<Chronon>* out) const;

  /// Cursor over one resource's ascending chronons, reading through the
  /// page cache. The cursor pins at most one decoded page at a time (a
  /// shared reference, safe across evictions). On a decode error Next()
  /// returns false and status() carries the corruption — callers must
  /// check it, a checksum failure is never silently skipped.
  class EventCursor {
   public:
    /// False at end of events or on error (see status()).
    bool Next(Chronon* t);
    Status status() const { return status_; }

   private:
    friend class TraceStore;
    EventCursor(const TraceStore* store, int next_page, int end_page)
        : store_(store), next_page_(next_page), end_page_(end_page) {}

    const TraceStore* store_;
    int next_page_;
    int end_page_;
    std::size_t pos_ = 0;
    std::shared_ptr<const std::vector<Chronon>> page_;
    Status status_ = Status::OK();
  };

  /// Per-resource iteration, EventsFor-equivalent. Invalid resources
  /// yield an empty cursor.
  EventCursor EventsFor(ResourceId resource) const;

  const TraceStoreStats& stats() const { return stats_; }

  /// Decodes and checksums every page — a full-store integrity audit.
  Status VerifyAllPages() const;

  /// Test hook: mutable access to the page stream so corruption tests
  /// can flip stored bytes and assert the read paths surface it.
  std::string* mutable_bytes_for_testing() { return &bytes_; }

 private:
  friend class StreamingTraceReader;

  /// Encodes and appends the staged events of the open resource.
  Status FlushOpenResource();

  /// The decoded-page cache: returns a shared reference to page
  /// `page_id`'s events, decoding on miss and evicting LRU beyond the
  /// budget.
  Result<std::shared_ptr<const std::vector<Chronon>>> FetchPage(
      int page_id) const;

  /// [byte offset, byte length) of page `page_id` within bytes_.
  std::string_view PageBytes(int page_id) const;

  int num_resources_;
  Chronon epoch_length_;
  TraceStoreOptions options_;
  bool sealed_ = false;

  /// Encoded pages, back to back, resource-major.
  std::string bytes_;
  /// Byte offset of each page, plus an end sentinel.
  std::vector<std::uint64_t> page_offset_;
  /// First page id of each resource, plus an end sentinel; resource r
  /// owns pages [first_page_[r], first_page_[r + 1]).
  std::vector<std::int32_t> first_page_;

  /// Write-side staging: the open resource's raw chronons. -1 when no
  /// resource has been opened yet.
  ResourceId open_resource_ = -1;
  std::vector<Chronon> staging_;
  /// first_page_ entries below this index are final.
  int filled_through_ = 0;

  /// Events across resources, fixed as resources are flushed.
  std::size_t events_ = 0;
  mutable TraceStoreStats stats_;

  // LRU cache of decoded pages: most recent at the front. Mutable
  // because reads are logically const.
  struct CacheEntry {
    int page_id = 0;
    std::shared_ptr<const std::vector<Chronon>> events;
  };
  mutable std::list<CacheEntry> cache_lru_;
  mutable std::unordered_map<int, std::list<CacheEntry>::iterator>
      cache_index_;
};

/// Chronological merge iteration over a sealed store: yields every
/// (resource, chronon) event ordered by (chronon, resource) — exactly
/// UpdateTrace::ChronologicalEvents() — while decoding varints straight
/// off the compressed page stream. Holds one ~32-byte cursor per
/// resource and a k-way min-heap; memory is O(num_resources), never
/// O(total events). Page checksums are verified as each cursor enters a
/// page; corruption stops iteration and surfaces through status().
class StreamingTraceReader {
 public:
  /// `store` must be sealed and outlive the reader.
  explicit StreamingTraceReader(const TraceStore* store);

  /// Yields the next event in (chronon, resource) order; false at end
  /// of trace or on error (see status()).
  bool Next(UpdateEvent* out);

  Status status() const { return status_; }

 private:
  /// Raw decode state over one resource's contiguous page range.
  struct Cursor {
    const char* p = nullptr;        // next delta byte
    const char* payload_end = nullptr;
    std::int64_t remaining = 0;     // events left in the open page
    Chronon prev = 0;               // last yielded chronon
    Chronon last = 0;               // last chronon of the open page
    int next_page = 0;              // next page id to open
    int end_page = 0;
  };

  /// Opens the cursor's next page (checksum-verified, first event left
  /// in `prev` for the caller to yield); false when the resource is
  /// exhausted or corrupt.
  bool OpenNextPage(Cursor* cursor);
  /// Advances cursor `r` one event; false when exhausted or corrupt.
  bool Advance(ResourceId r, Chronon* t);

  const TraceStore* store_;
  std::vector<Cursor> cursors_;
  /// Min-heap of (next chronon, resource), std::greater ordered.
  std::vector<std::pair<Chronon, ResourceId>> heap_;
  Status status_ = Status::OK();
};

}  // namespace pullmon

#endif  // PULLMON_TRACE_TRACE_STORE_H_
