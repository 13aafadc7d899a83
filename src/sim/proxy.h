#ifndef PULLMON_SIM_PROXY_H_
#define PULLMON_SIM_PROXY_H_

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/dynamic_monitor.h"
#include "core/online_executor.h"
#include "core/problem.h"
#include "estimation/estimation_session.h"
#include "feeds/fault_injection.h"
#include "feeds/feed_item.h"
#include "feeds/feed_server.h"
#include "feeds/parse_cache.h"
#include "util/arena.h"
#include "util/status.h"

namespace pullmon {

/// A read-only prefix of one chronon's item vector, shared by every
/// notification of that chronon instead of copied into each. Copies of
/// a batch share ownership of the vector, so a batch stays readable
/// after the session (and proxy) that filled it are gone.
///
/// Lifetime rule: while its chronon is still being probed, the session
/// appends to the shared vector, so elements may move. Read them
/// through the batch (indices and the prefix never change) and keep no
/// pointer or iterator into it across a probe.
class FeedItemBatch {
 public:
  FeedItemBatch() = default;
  FeedItemBatch(std::shared_ptr<const std::vector<FeedItem>> items,
                std::size_t size)
      : items_(std::move(items)), size_(size) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const FeedItem& operator[](std::size_t i) const { return (*items_)[i]; }
  const FeedItem& front() const { return (*items_)[0]; }
  const FeedItem* begin() const {
    return items_ == nullptr ? nullptr : items_->data();
  }
  const FeedItem* end() const { return begin() + size_; }

 private:
  std::shared_ptr<const std::vector<FeedItem>> items_;
  std::size_t size_ = 0;
};

/// A notification pushed to a client when one of its t-intervals is
/// fully captured (Section 3's hybrid model: pull from servers, push to
/// clients).
struct ProxyNotification {
  ProfileId profile = 0;
  /// Index of the captured t-interval within the profile.
  std::size_t t_interval_index = 0;
  Chronon chronon = 0;
  /// Feed items retrieved by the probes of the capture chronon up to
  /// the capture (best-effort payload for the client): a prefix of the
  /// chronon's batch, shared with the chronon's other notifications.
  FeedItemBatch items;
};

/// The report counters the probe path and the runner loop bump while
/// the epoch runs. Every other ProxyRunReport field is derived from
/// component state when the run finishes, so these are the counters a
/// durable run checkpoints beside the component images (ProxySnapshot,
/// recovery/recovery_codec.h).
struct LiveReportCounters {
  std::size_t feeds_fetched = 0;
  /// Conditional fetches the servers answered 304-style (no body).
  std::size_t not_modified = 0;
  std::size_t feed_bytes = 0;
  std::size_t items_parsed = 0;
  std::size_t parse_failures = 0;
  std::size_t notifications_delivered = 0;
  /// Churn operations the monitor rejected (cancel of a completed
  /// submission, duplicate unregister, ...) — expected under racy
  /// workloads and deterministic under seed.
  std::size_t churn_rejected_ops = 0;

  bool operator==(const LiveReportCounters& other) const = default;
};

/// The adaptive runner's own counters (all zero under the oracle
/// knowledge model; sim/adaptive.cc, DESIGN.md section 17).
struct AdaptiveRunStats {
  /// Resources carrying a detected periodic pattern at epoch end.
  std::size_t estimation_periodic_resources = 0;
  /// Rolling-horizon forecast refreshes performed.
  std::size_t estimation_forecast_refreshes = 0;
  /// Predicted t-intervals submitted to the monitor.
  std::size_t estimation_predicted_t_intervals = 0;
  /// Predicted EIs inside those t-intervals.
  std::size_t estimation_predicted_eis = 0;
  /// Epsilon explore probes issued to cold resources (budget-charged).
  std::size_t estimation_explore_probes = 0;

  bool operator==(const AdaptiveRunStats& other) const = default;
};

/// Outcome of one proxy run. Each counter is declared once, in the
/// stats block of the subsystem that owns it, and the report inherits
/// the blocks (DESIGN.md, "Telemetry blocks"). A block is all zero when
/// its subsystem is off: the fault layer's FaultStats, the breaker's
/// HealthStats, the parse cache's ParseCacheStats, the monitor's
/// ChurnStats, and the estimator's EstimationStats and AdaptiveRunStats.
struct ProxyRunReport : LiveReportCounters,
                        FaultStats,
                        HealthStats,
                        ParseCacheStats,
                        ChurnStats,
                        EstimationStats,
                        AdaptiveRunStats {
  OnlineRunResult run;
  /// Probe attempts that delivered no usable document: timeouts, server
  /// errors, and unparsable bodies (mirrors run.probes_failed).
  std::size_t probes_failed = 0;
  /// Bodies that arrived truncated or garbled: truncations plus
  /// corruptions of the FaultStats block.
  std::size_t corrupt_bodies = 0;
  /// Retry attempts issued after failed probes (mirrors run).
  std::size_t retries_issued = 0;
  /// Probe-budget units consumed by retries (mirrors run).
  std::size_t retry_probes_spent = 0;
  /// Fraction of all t-intervals that failed after a fault hit one of
  /// their live candidate EIs — GC the faults (at most) cost this run,
  /// on the same scale as CompletenessReport::GainedCompleteness().
  double gc_lost_to_faults = 0.0;
  // --- Recovery telemetry (all zero without a checkpoint directory;
  // --- src/recovery/. These are the ONLY fields allowed to differ
  // --- between an uninterrupted run and a crash-recovered one, and
  // --- ReportDifference never compares them).
  /// Snapshots the durable runner persisted this run.
  std::size_t recovery_snapshots_written = 0;
  /// Snapshots loaded to seed this run (1 on a recovered run).
  std::size_t recovery_snapshots_loaded = 0;
  /// Snapshots rejected at load time (checksum/decode failure — torn or
  /// bit-flipped files that were detected, never silently replayed).
  std::size_t recovery_snapshots_rejected = 0;
  /// WAL records group-flushed at chronon boundaries this run.
  std::size_t recovery_wal_records_logged = 0;
  /// WAL records verified against re-execution during recovery.
  std::size_t recovery_wal_records_replayed = 0;
  /// WAL records discarded by the torn-tail rule (bytes after the last
  /// intact chronon commit, or after the first corrupt record).
  std::size_t recovery_torn_tail_truncated = 0;
  /// Always 0. Read only by perfbench/; removed once perfbench/ stops naming it.
  std::size_t shard_count = 0;
  /// Always 0. Read only by perfbench/; removed once perfbench/ stops naming it.
  std::size_t shard_merge_entries = 0;
};

/// Blocks a report comparison may skip: they describe a mechanism, not
/// the run, so a passthrough suite excludes exactly its own block.
struct ReportEqualityOptions {
  /// ParseCacheStats (off for cache-on vs cache-off suites).
  bool parse_cache_stats = true;
};

/// Block-wise equality of two reports: the schedule (its length, then
/// chronon by chronon), the gained completeness, then each stats block
/// (through its defaulted operator==) and each remaining field, minus
/// the blocks `options` skips. Never compared: wall-clock time, the two
/// always-zero compat fields, and the recovery_* counters (the one
/// documented difference between an uninterrupted and a crash-recovered
/// run).
/// Returns "" when equal, else the name of the first block or field
/// that differs ("run.ProbeStats", "ChurnStats", "probes_failed", ...).
std::string ReportDifference(const ProxyRunReport& a, const ProxyRunReport& b,
                             const ReportEqualityOptions& options =
                                 ReportEqualityOptions{});

/// Behavioral knobs of the proxy's physical probe path. The defaults
/// (no faults, no retries) reproduce the pre-fault-layer proxy exactly.
struct ProxyOptions {
  /// Fault rates injected between proxy and feed network. AllZero()
  /// bypasses the layer entirely.
  FaultOptions faults;
  /// Seed of the fault layer's per-resource streams.
  uint64_t fault_seed = 0x5EED;
  /// Same-chronon retry/backoff policy for failed probes; retries are
  /// charged against the chronon budget C_j.
  RetryPolicy retry;
  /// Circuit-breaker behavior of the executor's resource-health
  /// tracking; disabled by default (byte-identical to no breaker).
  BreakerOptions breaker;
  /// Index maintenance of the run's monitor (MonitorOptionsFor):
  /// kReference runs the MonitorIndexMode::kRebuild oracle. Both issue
  /// identical probe sequences (differentially tested), so this only
  /// affects scheduling cost.
  ExecutorBackend backend = ExecutorBackend::kIndexed;
  /// ETag/content-keyed parse cache in front of the feed layer: a probe
  /// whose response matches the cached entry replays the cached
  /// document instead of reparsing. Off by default; the report is
  /// byte-identical either way apart from the parse_cache_* counters.
  bool parse_cache = false;
  /// Read only by perfbench/; removed once perfbench/ stops naming it.
  TraceBackend trace_backend = TraceBackend::kInMemory;
  /// Read only by perfbench/; removed once perfbench/ stops naming it.
  int threads = 1;

  /// Range-checks the fault rates, the retry policy and the breaker.
  Status Validate() const;
};

/// One probe attempt, as FeedPullSession's observer sees it.
struct PullAttempt {
  ResourceId resource = 0;
  Chronon chronon = 0;
  /// A usable document arrived (a 304 included).
  bool success = false;
  bool not_modified = false;
  /// The items the attempt appended to current_items(); call-scoped.
  std::span<const FeedItem> items;
};

/// Resumable state of one FeedPullSession at a chronon boundary: the
/// per-resource validators plus the images of the optional fault plan
/// and parse cache. The report counters the session fills live in the
/// ProxyRunReport and are checkpointed by the recovery layer alongside.
struct PullSessionImage {
  std::vector<std::string> etags;
  std::optional<FaultPlanImage> fault_plan;
  std::optional<ParseCacheImage> parse_cache;
};

/// The physical pull leg of every MonitorRun (the proxy, churn, durable
/// and adaptive runs): conditional
/// fetches through an optional deterministic fault plan, arena-backed
/// parsing, and the optional ETag/content parse cache — one Probe() call
/// per scheduled probe, filling the transport counters of a
/// ProxyRunReport. Extracting it keeps churn runs byte-comparable to
/// proxy runs on every feeds/fault/cache counter.
class FeedPullSession {
 public:
  /// `network` and `report` must outlive the session; `options` must
  /// already be validated.
  FeedPullSession(FeedNetwork* network, int num_resources,
                  const ProxyOptions& options, ProxyRunReport* report);

  /// Executes the pull leg of one probe of `resource` at chronon `now`:
  /// returns false when a fault or parse failure delivered no usable
  /// document (the EI stays a candidate), true otherwise. The one way a
  /// probe attempt runs, on every backend.
  bool Probe(ResourceId resource, Chronon now);

  /// Makes Probe() the probe callback of `engine`: the run's
  /// DynamicMonitor, or a test's ReferenceExecutor oracle.
  template <typename Engine>
  void AttachTo(Engine* engine) {
    engine->set_probe_callback([this](ResourceId resource, Chronon now) {
      return Probe(resource, now);
    });
  }

  /// The probe path's one observation point: called by Probe() once per
  /// attempt, in the engine's attempt order (the durable WAL and the
  /// estimator attach).
  using Observer = std::function<void(const PullAttempt&)>;
  void set_observer(Observer observer) { observer_ = std::move(observer); }

  /// OK, or the first internal error of the pull leg (a restored
  /// parse-cache entry hit by a body its key does not describe). The
  /// probe that hit it reports failure; the run loop checks this after
  /// every chronon and stops.
  const Status& status() const { return status_; }

  /// The parse cache, or nullptr when the session runs without one.
  const ParseCache* parse_cache() const {
    return cache_.has_value() ? &*cache_ : nullptr;
  }

  /// Chronon of the most recent probe attempt, failed ones included.
  Chronon fetch_chronon() const { return fetch_chronon_; }
  /// Items pulled during the current chronon so far (notification
  /// payload): a prefix batch of the chronon's shared vector, valid
  /// after the session is gone. Each parsed item is materialized once,
  /// into that vector; later probes of the chronon append to it (see
  /// FeedItemBatch's lifetime rule).
  FeedItemBatch current_items() const {
    return FeedItemBatch(current_items_, current_items_->size());
  }

  /// Installs the scheduler's outcome as report.run, mirrors its retry
  /// counters and HealthStats block into the report, copies the
  /// FaultStats block (deriving corrupt_bodies from it) and the
  /// ParseCacheStats block; call once after the run.
  void FinishReport(OnlineRunResult run);

  /// Checkpoint support: Capture() at a chronon boundary freezes the
  /// validators and the fault/cache layers; Restore() resumes them on a
  /// session built from the same options. InvalidArgument when the
  /// image disagrees with the session's layers or resource count. The
  /// current-chronon item buffer is intentionally not captured: it is
  /// rebuilt by the first probe of the next chronon. Neither are the
  /// parse cache's documents: restored entries are pending
  /// (ParseCache::Lookup).
  PullSessionImage Capture() const;
  Status Restore(const PullSessionImage& image);

 private:
  /// Probe() after the clock advance; sets `*not_modified` on a 304.
  bool Fetch(ResourceId resource, bool* not_modified);

  FeedNetwork* network_;
  ProxyRunReport* report_;
  Observer observer_;
  Status status_;
  std::optional<FaultPlan> plan_;
  Chronon fetch_chronon_ = -1;
  /// The current chronon's items. A new chronon starts a fresh vector
  /// when a batch still shares the old one, and reuses it otherwise.
  std::shared_ptr<std::vector<FeedItem>> current_items_ =
      std::make_shared<std::vector<FeedItem>>();
  /// Per-resource validators for conditional fetches (HTTP
  /// If-None-Match semantics).
  std::vector<std::string> etags_;
  /// The probe hot path parses into one arena, Reset() per document.
  Arena arena_;
  std::optional<ParseCache> cache_;
};

/// The monitoring proxy: steps MonitorRun's static kind (the whole
/// problem submitted before chronon 0) over an epoch while performing
/// the *physical* data path — every scheduled probe pulls the
/// resource's feed document from the FeedNetwork (optionally through a
/// deterministic fault-injection layer), parses it, and captured
/// t-intervals are pushed to clients as notifications. This is the
/// end-to-end integration of scheduler and feed substrate used by
/// RunProxyOnce, the examples and integration tests.
class MonitoringProxy {
 public:
  /// All pointers must outlive the proxy; no ownership taken. The
  /// network's resources must cover the problem's.
  MonitoringProxy(const MonitoringProblem* problem, FeedNetwork* network,
                  Policy* policy, ExecutionMode mode,
                  ProxyOptions options = ProxyOptions{});

  Result<ProxyRunReport> Run();

  /// Notifications delivered during the last Run(), in delivery order.
  const std::vector<ProxyNotification>& notifications() const {
    return notifications_;
  }

 private:
  const MonitoringProblem* problem_;
  FeedNetwork* network_;
  Policy* policy_;
  ExecutionMode mode_;
  ProxyOptions options_;
  std::vector<ProxyNotification> notifications_;
};

}  // namespace pullmon

#endif  // PULLMON_SIM_PROXY_H_
