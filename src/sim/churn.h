#ifndef PULLMON_SIM_CHURN_H_
#define PULLMON_SIM_CHURN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/chronon.h"
#include "core/dynamic_monitor.h"
#include "core/problem.h"
#include "core/t_interval.h"
#include "sim/proxy.h"
#include "util/status.h"

namespace pullmon {

/// Knobs of the mid-epoch profile-churn workload (ISSUE: "Profile churn
/// at client scale"). Churn models a volatile client population: while
/// the epoch runs, clients cancel pending submissions, edit their
/// deadlines/weights, and occasionally unregister outright — on top of
/// the t-interval arrivals the online setting already has. Client
/// activity is Zipf-skewed (a few heavy clients drive most churn), as in
/// the paper's eBay workload skew.
struct ChurnOptions {
  /// Master switch; when off the run path is churn-free.
  bool enabled = false;
  /// Mean churn operations per chronon (Poisson-distributed count).
  double ops_per_chronon = 0.0;
  /// Operation mix; the three fractions must sum to 1.
  double cancel_fraction = 0.60;
  double edit_fraction = 0.35;
  double unregister_fraction = 0.05;
  /// Zipf skew of the per-client activity (0 = uniform; 1.37 matches
  /// the Web-feed popularity skew of [10]).
  double zipf_theta = 1.37;
  /// Base seed of the churn stream; mixed with the repetition seed so
  /// churn never consumes randomness shared with trace, profile, fault
  /// or policy streams.
  uint64_t seed = 0xC4A2;

  /// Range-checks the knobs (rates non-negative, fractions summing to
  /// 1); the CLI surfaces violations as clean InvalidArgument.
  Status Validate() const;
};

/// One pre-drawn churn operation. Events carry raw random material
/// (`pick`) instead of resolved submission ids: which submissions exist
/// at replay time depends on the run, so the runner resolves the target
/// deterministically against the state then current.
struct ChurnEvent {
  enum class Kind { kCancel, kEdit, kUnregister };

  Chronon chronon = 0;
  Kind kind = Kind::kCancel;
  /// Zipf-selected client driving the operation.
  int profile = 0;
  /// Uniform 64-bit draw; the runner maps it onto the profile's
  /// submissions (pick % count).
  uint64_t pick = 0;
  /// Edit mutation: chronons added to every remaining EI deadline
  /// (clamped to the epoch) ...
  Chronon deadline_delta = 0;
  /// ... and the factor applied to the t-interval's weight.
  double weight_factor = 1.0;
};

/// A full epoch's churn stream, sorted by chronon (events within one
/// chronon apply in generation order, before that chronon executes).
struct ChurnWorkload {
  std::vector<ChurnEvent> events;
  std::size_t cancels = 0;
  std::size_t edits = 0;
  std::size_t unregisters = 0;
};

/// Draws the churn stream for one run: per chronon a Poisson(ops)
/// event count, per event a kind (categorical over the mix), a client
/// (Zipf over profiles), and the mutation material. Deterministic in
/// (options, num_profiles, epoch_length, seed); `options` must already
/// validate.
ChurnWorkload GenerateChurnWorkload(const ChurnOptions& options,
                                    int num_profiles, Chronon epoch_length,
                                    uint64_t seed);

/// Builds an Edit replacement from the submission's current definition:
/// the EIs whose window has not yet opened survive, with their deadlines
/// pushed out by `delta` (clamped to the epoch) and the weight rescaled.
/// When every EI has already opened the replacement comes back empty and
/// the monitor rejects the edit — the deliberate edit-to-past-deadline
/// error path.
TInterval BuildEditReplacement(const TInterval& current, Chronon now,
                               Chronon epoch_length, Chronon delta,
                               double weight_factor);

/// Where one accepted submission's definition came from, so a snapshot
/// can name it instead of copying it: a true t-interval arriving, or an
/// accepted edit.
struct SubmissionOrigin {
  /// False: an arrival, and `index` is the t-interval's index within
  /// its profile. True: an edit, and `index` is the ChurnEvent's index
  /// within the workload.
  bool edit = false;
  std::size_t index = 0;
};

/// The churn-driven workload of one run, applied chronon by chronon:
/// each t-interval is submitted the chronon its earliest EI opens, then
/// the chronon's generated churn events are resolved against the
/// submissions made so far (`pick % count`) and applied. Operations
/// apply synchronously, in order: each resolution depends on every
/// earlier operation having landed. MonitorRun (sim/monitor_run.h)
/// applies it for RunChurnOnce and the durable runner, so both resolve
/// churn identically; bench_churn drives it directly.
class ChurnStream {
 public:
  /// One applied operation, in application order.
  struct Op {
    /// A ChurnEvent::Kind value, or kArrival (the WAL's kind codes).
    int kind = 0;
    ProfileId profile = 0;
    /// The targeted submission; for arrivals the accepted submission
    /// id, or -1 when the monitor rejected it.
    int submission = 0;
    bool accepted = false;
  };
  static constexpr int kArrival = 3;

  /// Buckets the arrivals of `problem` (profile i is ProfileId i) and
  /// draws the churn stream from `churn` and the run seed. `problem`
  /// must outlive the stream.
  ChurnStream(const MonitoringProblem& problem, const ChurnOptions& churn,
              uint64_t seed);

  /// The origin of every submission accepted so far, in acceptance
  /// (flat) order: what a snapshot keeps of the definitions.
  const std::vector<SubmissionOrigin>& origins() const { return origins_; }

  /// Resumes at chronon `start` on a fresh stream, for a monitor image
  /// whose `submissions` (acceptance order) came from `origins`.
  /// Rebuilds every definition from its origin — an edit's from its
  /// source, `pick % count` over the profile's earlier submissions — and
  /// returns them in acceptance order for DynamicMonitor::Restore.
  /// InvalidArgument when an origin names no arrival or accepted edit
  /// the run could have made before `start`.
  Result<std::vector<TInterval>> Resume(
      Chronon start, const std::vector<MonitorSubmissionImage>& submissions,
      std::vector<SubmissionOrigin> origins);

  /// Applies chronon `now`'s arrivals and churn events to `monitor`
  /// (before its Step()). Rejected operations count into
  /// report->churn_rejected_ops; `on_op`, when set, sees every
  /// operation.
  void ApplyChronon(Chronon now, DynamicMonitor* monitor,
                    ProxyRunReport* report,
                    const std::function<void(const Op&)>& on_op = {});

 private:
  /// The t-interval of an arrival origin of `profile`, or nullptr.
  const TInterval* ArrivalAt(ProfileId profile, std::size_t index) const;

  const MonitoringProblem* problem_;
  Chronon epoch_length_;
  /// Per chronon, the (profile, t-interval index) pairs arriving.
  std::vector<std::vector<std::pair<ProfileId, std::size_t>>> arrivals_;
  ChurnWorkload workload_;
  std::size_t next_event_ = 0;
  /// The definition currently live under each submission id, per
  /// profile: resolves churn targets and builds edit replacements.
  std::vector<std::vector<TInterval>> defs_;
  std::vector<SubmissionOrigin> origins_;
};

}  // namespace pullmon

#endif  // PULLMON_SIM_CHURN_H_
