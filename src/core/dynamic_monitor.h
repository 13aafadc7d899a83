#ifndef PULLMON_CORE_DYNAMIC_MONITOR_H_
#define PULLMON_CORE_DYNAMIC_MONITOR_H_

#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/candidate_index.h"
#include "core/completeness.h"
#include "core/online_executor.h"
#include "core/policy.h"
#include "core/problem.h"
#include "core/resource_health.h"
#include "util/status.h"

namespace pullmon {

/// Outcome of one DynamicMonitor::Step() (one chronon).
struct StepResult {
  Chronon chronon = 0;
  /// Resources probed this chronon (<= budget).
  std::vector<ResourceId> probed;
  /// t-intervals fully captured this chronon: (profile, submission id).
  std::vector<std::pair<ProfileId, int>> captured;
  /// t-intervals that became impossible this chronon.
  std::vector<std::pair<ProfileId, int>> failed;
};

/// How the monitor maintains its candidate structures across churn
/// operations (Cancel / Edit / Unregister).
enum class MonitorIndexMode {
  /// Production path: every churn operation retires the affected EIs in
  /// place (CandidateIndex::Deactivate) — O(rank) per operation, no
  /// rebuild ever.
  kIncremental,
  /// Differential oracle: after every churn removal the candidate index
  /// is reconstructed from scratch from the monitor's parent bookkeeping
  /// (O(total EIs) per operation), mirroring the original "event lists
  /// are built once" design. Decision-identical to kIncremental — the
  /// churn differential suite and bench_churn enforce schedule-for-
  /// schedule equality.
  kRebuild,
};

/// Behavioral knobs of the monitor's probe path and index maintenance.
/// Defaults are the plain monitor: no retries, no breaker, incremental
/// maintenance.
struct MonitorOptions {
  /// Same-chronon retry/backoff for failed probes (needs a probe
  /// callback to ever fail).
  RetryPolicy retry;
  /// Circuit-breaker behavior of the resource-health tracking; disabled
  /// by default (byte-identical to no breaker).
  BreakerOptions breaker;
  /// Candidate-structure maintenance under churn.
  MonitorIndexMode maintenance = MonitorIndexMode::kIncremental;
};

/// Churn counters of one monitor lifetime (all zero in churn-free
/// runs). The probe-path counters are ProbeStats (core/online_executor.h).
struct ChurnStats {
  /// Accepted Submit() calls (edit replacements are counted under
  /// `churn_edited`, not here).
  std::size_t churn_submitted = 0;
  /// Accepted Cancel() calls plus per-submission cancellations performed
  /// by Unregister().
  std::size_t churn_cancelled = 0;
  /// Accepted Edit() calls.
  std::size_t churn_edited = 0;
  /// Accepted Unregister() calls.
  std::size_t churn_unregistered_profiles = 0;
  /// Probe work orphaned by churn: EI captures whose parent t-interval
  /// was cancelled or edited away before completing — pulls whose data
  /// no client ever received.
  std::size_t orphaned_probes = 0;

  bool operator==(const ChurnStats& other) const = default;
};

/// One submission of a MonitorImage, in flat t_id (arrival) order. The
/// definition is not part of the image: whoever submitted it rebuilds it
/// and hands it to Restore(). The runtime's derived fields
/// (num_captured, rank, the M-EDF aggregate) are reconstructed from the
/// definition and the capture flags on restore.
struct MonitorSubmissionImage {
  ProfileId profile = 0;
  std::vector<uint8_t> ei_captured;
  int num_expired = 0;
  uint8_t cancelled = 0;
  uint8_t fault_touched = 0;
  uint8_t failed = 0;
  uint8_t completed = 0;
  uint8_t selected = 0;
};

/// Resumable state of one DynamicMonitor at a chronon boundary, produced
/// by Capture() and consumed by Restore() on a freshly constructed
/// monitor with the same constructor parameters. The candidate index is
/// intentionally absent: Restore() reconstructs it from the parent
/// bookkeeping via the rebuild oracle, which the churn differential
/// suite proves decision-identical to the incrementally maintained
/// index (DESIGN.md sections 13 and 15).
struct MonitorImage {
  Chronon now = 0;
  std::vector<std::string> profile_names;
  std::vector<uint8_t> profile_unregistered;
  std::vector<MonitorSubmissionImage> submissions;
  /// Probes of the schedule so far, per chronon in [0, now).
  std::vector<std::vector<ResourceId>> probes_by_chronon;
  ProbeStats probe_stats;
  ChurnStats churn_stats;
  HealthImage health;
};

/// The chronon engine of the library — the one implementation of the
/// online semantics of Section 4.2.1, extended with the full churn
/// surface a deployed proxy serving volatile client populations needs:
/// clients subscribe, submit, cancel, and edit t-intervals *while the
/// epoch runs*. OnlineExecutor is a thin loop over it (submit the
/// whole workload, then step); ReferenceExecutor and
/// MonitorIndexMode::kRebuild are the differential oracles.
///
/// Online semantics:
///  * An EI becomes a candidate while active (start <= now <= finish)
///    and uncaptured, with a live parent.
///  * Each chronon the policy scores all candidates; the monitor probes
///    the resources of the best-scored EIs, at most C_j distinct
///    resources. A probe of resource r captures *every* active candidate
///    EI on r (intra-resource probe sharing).
///  * A t-interval fails permanently once too few EIs remain alive to
///    reach its required capture count; its remaining EIs stop
///    competing.
///  * Ties are broken by (np_class, score, EI deadline, flat id), where
///    flat ids are handed out in submission order.
///
/// One chronon (DESIGN.md section 16) runs serially: activation, the
/// window count into the parents' EdfAggregate, health begin, scoring
/// with one minimal key per resource, partial top-C_j selection, the
/// control pass (budget, probe callback, retries, breaker, capture
/// bookkeeping), and expiry in flat-id order. One CandidateIndex holds
/// every EI under its flat id.
///
/// Churn semantics (DESIGN.md section 13):
///  * Cancel(profile, submission) withdraws a live submission; its
///    remaining EIs stop competing immediately (this chronon's budget
///    flows to other candidates). Cancelling an unknown, completed,
///    failed, or already-cancelled submission is InvalidArgument.
///  * Edit(profile, submission, replacement) atomically cancels the old
///    submission and resubmits the replacement (new deadline/weight/
///    alternatives), returning the replacement's submission id. The
///    replacement must not start before now() (InvalidArgument).
///  * Unregister(profile) cancels every live submission of the profile
///    and refuses future submissions to it.
///  * Cancelled submissions leave the completeness denominator — they
///    were withdrawn, not missed. Captures they already consumed are
///    surfaced as ChurnStats::orphaned_probes.
///  * A profile's rank is exact: it is the maximum t-interval size over
///    the profile's non-withdrawn submissions, so cancelling or editing
///    away the submission that carried the maximum lowers it (rank-level
///    policies — including the explore/exploit scorer — see the current
///    complexity, not a stale high-water mark).
class DynamicMonitor {
 public:
  /// Invoked for every probe attempt: (resource, chronon) -> success.
  /// Without a callback every probe succeeds (the logical setting).
  using ProbeCallback = std::function<bool(ResourceId, Chronon)>;

  /// Invoked when a t-interval completes: (profile, submission id,
  /// chronon), in StepResult::captured order, right after the probe
  /// that completed it.
  using CaptureCallback = std::function<void(ProfileId, int, Chronon)>;

  /// `policy` must outlive the monitor; it is Reset() on construction.
  DynamicMonitor(int num_resources, Chronon epoch_length,
                 BudgetVector budget, Policy* policy, ExecutionMode mode,
                 MonitorOptions options = MonitorOptions{});

  void set_probe_callback(ProbeCallback callback) {
    probe_callback_ = std::move(callback);
  }

  void set_capture_callback(CaptureCallback callback) {
    capture_callback_ = std::move(callback);
  }

  /// Registers a client profile; its rank grows as t-intervals are
  /// submitted (rank-level policies see the current rank).
  ProfileId RegisterProfile(std::string name);

  /// Sizes the per-submission and per-EI tables for `t_intervals`
  /// submissions carrying `eis` EIs in total (counts include what is
  /// already registered), so a bulk registration does not grow them by
  /// doubling. A capacity hint only: wrong counts change no decision.
  void Reserve(std::size_t t_intervals, std::size_t eis);

  /// Submits a t-interval for a registered profile. The t-interval must
  /// be valid, lie within the epoch, and must not start before the
  /// current chronon (no retroactive arrivals). Returns a submission id
  /// unique within the profile, echoed in StepResult.
  Result<int> Submit(ProfileId profile, TInterval t_interval);

  /// Submit() without the copy: `t_interval` must outlive the monitor.
  /// For callers whose workload already lives in stable storage (the
  /// OnlineExecutor's problem instance).
  Result<int> SubmitStable(ProfileId profile, const TInterval* t_interval);

  /// Withdraws a live submission mid-epoch; see the churn semantics
  /// above. O(rank) incremental delete — no rebuild.
  Status Cancel(ProfileId profile, int submission_id);

  /// Cancels every live submission of `profile` and bars future ones.
  /// Unknown or already-unregistered profiles are InvalidArgument.
  /// Returns the number of submissions cancelled.
  Result<int> Unregister(ProfileId profile);

  /// Cancel + resubmit in one atomic operation: validation failures
  /// (dead target, invalid or retroactive replacement) leave the old
  /// submission untouched. Returns the replacement's submission id.
  Result<int> Edit(ProfileId profile, int submission_id,
                   TInterval replacement);

  /// Executes the current chronon (probe selection, captures, expiry)
  /// and advances time. FailedPrecondition once the epoch is over.
  Result<StepResult> Step();

  /// Runs the remaining chronons; returns the final completeness.
  Result<CompletenessReport> RunToEnd();

  /// The next chronon Step() will execute (== number of steps so far).
  Chronon now() const { return now_; }
  Chronon epoch_length() const { return epoch_length_; }

  /// Probes issued so far.
  const Schedule& schedule() const { return schedule_; }

  std::size_t t_intervals_submitted() const { return runtimes_.size(); }
  std::size_t t_intervals_completed() const { return completed_; }
  std::size_t t_intervals_failed() const { return failed_; }

  const ProbeStats& probe_stats() const { return probe_stats_; }
  const ChurnStats& churn_stats() const { return churn_stats_; }
  const ResourceHealthTracker& health() const { return health_; }

  /// Completeness of the schedule so far against everything submitted
  /// and not withdrawn (cancelled submissions are excluded).
  CompletenessReport Completeness() const;

  /// The run so far as an OnlineRunResult: schedule, the probe/fault
  /// counters and health telemetry. completeness and elapsed_seconds
  /// are the caller's to fill: it knows which t-intervals the run is
  /// scored against.
  OnlineRunResult RunResult() const;

  /// Audits the candidate index's lazy structures plus the monitor's
  /// parent bookkeeping (dead parents hold no live EIs, capture counts
  /// consistent, every runtime's EdfAggregate equal to
  /// ScanEdfAggregate() over the chronons executed so far) — the churn
  /// fuzz suite runs this after every op.
  Status CheckInvariants() const;

  /// Checkpoint support. Capture() freezes everything a resumed run
  /// needs at a chronon boundary (call between Step()s, never inside
  /// one) but the submissions' definitions. Restore() resumes the image
  /// on a *fresh* monitor built with the same constructor parameters,
  /// with `definitions` holding each image submission's definition in
  /// the same order — FailedPrecondition if this monitor has already
  /// registered, submitted, or stepped.
  MonitorImage Capture() const;
  Status Restore(const MonitorImage& image,
                 std::vector<TInterval> definitions);

 private:
  /// True when the submission can still be mutated (not completed,
  /// failed, or cancelled).
  bool IsLive(int t_id) const {
    const TIntervalRuntime& rt = runtimes_[static_cast<std::size_t>(t_id)];
    return !rt.completed && !rt.failed &&
           !cancelled_[static_cast<std::size_t>(t_id)];
  }

  /// Resolves (profile, submission) to a flat t_id, or InvalidArgument.
  Result<int> ResolveSubmission(ProfileId profile, int submission_id) const;

  /// Validates a new submission: a registered, still-subscribed profile
  /// and a t-interval accepted by ValidateArrival().
  Status CheckSubmit(ProfileId profile, const TInterval& t_interval) const;

  /// Validates a t-interval against the epoch, the resource range, and
  /// the current chronon. A start before now() is FailedPrecondition for
  /// a submission and InvalidArgument for an edit replacement.
  Status ValidateArrival(const TInterval& t_interval, bool edit) const;

  /// Records a pre-validated t-interval held in stable storage (shared
  /// tail of Submit, SubmitStable and Edit); returns the submission id
  /// within the profile. EIs get contiguous flat ids.
  int AppendSubmission(ProfileId profile, const TInterval* stored);

  /// Removes a dead (completed/failed/cancelled) parent's remaining EIs
  /// from the candidate index.
  void RetireParent(int t_id);

  /// Marks a live submission cancelled: orphan accounting, retire, rank
  /// recompute when the withdrawn submission carried the profile's
  /// maximum, and — under MonitorIndexMode::kRebuild — the from-scratch
  /// rebuild.
  void CancelLive(int t_id);

  /// Recomputes `profile`'s rank as the maximum t-interval size over its
  /// non-cancelled submissions and refreshes every sibling runtime's
  /// cached profile_rank when the value changed.
  void RecomputeProfileRank(ProfileId profile);

  /// The rebuild oracle: reconstructs the candidate index from the
  /// monitor's parent bookkeeping (flat ids, live/dead state, activation
  /// replay), exactly as if every surviving EI had been registered into a
  /// fresh index.
  void RebuildIndex();

  /// Serial capture bookkeeping of a successful probe of `resource`
  /// (parent accounting + retire + capture-event recording + capture
  /// callback).
  void CaptureOnProbe(ResourceId resource, StepResult* step);

  /// Expires the EIs whose windows close at now_, in flat-id order.
  void ExpireEnding(StepResult* step);

  int num_resources_;
  Chronon epoch_length_;
  BudgetVector budget_;
  Policy* policy_;
  ExecutionMode mode_;
  MonitorOptions options_;
  ProbeCallback probe_callback_;
  CaptureCallback capture_callback_;
  ResourceHealthTracker health_;
  bool validated_options_ = false;

  /// Every EI, under its flat id.
  CandidateIndex index_;

  Chronon now_ = 0;
  Schedule schedule_;
  std::size_t completed_ = 0;
  std::size_t failed_ = 0;
  ProbeStats probe_stats_;
  ChurnStats churn_stats_;

  /// Stable storage of copied submissions: TIntervalRuntime::source
  /// points into this deque (or at a SubmitStable() caller's object).
  std::deque<TInterval> submitted_;
  std::vector<TIntervalRuntime> runtimes_;
  std::vector<int> first_flat_;      // per runtime: first flat id
  std::vector<uint8_t> cancelled_;   // per runtime: withdrawn by client
  std::vector<uint8_t> fault_touched_;  // per runtime: failed probe seen
  std::vector<int> submission_id_;   // per runtime, unique in profile
  std::vector<int> rank_of_profile_;  // current rank per profile
  std::vector<uint8_t> profile_unregistered_;
  std::vector<std::vector<int>> runtimes_of_profile_;
  std::vector<std::string> profile_names_;

  /// Per-chronon candidate entries (sized once, reused).
  std::vector<ResourceCandidate> entries_;
};

}  // namespace pullmon

#endif  // PULLMON_CORE_DYNAMIC_MONITOR_H_
