#include "core/dynamic_monitor.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace pullmon {

DynamicMonitor::DynamicMonitor(int num_resources, Chronon epoch_length,
                               BudgetVector budget, Policy* policy,
                               ExecutionMode mode, MonitorOptions options)
    : num_resources_(num_resources),
      epoch_length_(epoch_length),
      budget_(std::move(budget)),
      policy_(policy),
      mode_(mode),
      options_(options),
      health_(num_resources, options.breaker),
      index_(num_resources, epoch_length),
      schedule_(epoch_length) {
  policy_->Reset();
  policy_->AttachHealth(&health_);
}

ProfileId DynamicMonitor::RegisterProfile(std::string name) {
  profile_names_.push_back(std::move(name));
  rank_of_profile_.push_back(0);
  profile_unregistered_.push_back(0);
  runtimes_of_profile_.emplace_back();
  return static_cast<ProfileId>(profile_names_.size()) - 1;
}

void DynamicMonitor::Reserve(std::size_t t_intervals, std::size_t eis) {
  runtimes_.reserve(t_intervals);
  first_flat_.reserve(t_intervals);
  cancelled_.reserve(t_intervals);
  fault_touched_.reserve(t_intervals);
  submission_id_.reserve(t_intervals);
  index_.Reserve(eis);
}

Result<int> DynamicMonitor::ResolveSubmission(ProfileId profile,
                                              int submission_id) const {
  if (profile < 0 ||
      profile >= static_cast<ProfileId>(profile_names_.size())) {
    return Status::InvalidArgument(
        StringFormat("unknown profile id %d", profile));
  }
  const auto& subs =
      runtimes_of_profile_[static_cast<std::size_t>(profile)];
  if (submission_id < 0 ||
      submission_id >= static_cast<int>(subs.size())) {
    return Status::InvalidArgument(
        StringFormat("profile %d has no submission %d", profile,
                     submission_id));
  }
  return subs[static_cast<std::size_t>(submission_id)];
}

Status DynamicMonitor::ValidateArrival(const TInterval& t_interval,
                                       bool edit) const {
  PULLMON_RETURN_NOT_OK(t_interval.Validate(Epoch{epoch_length_}));
  for (const auto& ei : t_interval.eis()) {
    if (ei.resource >= num_resources_) {
      return Status::OutOfRange(
          StringFormat("EI resource %d outside [0,%d)", ei.resource,
                       num_resources_));
    }
    if (ei.start >= now_) continue;
    if (edit) {
      return Status::InvalidArgument(StringFormat(
          "edited EI starts at %d but the monitor is already at chronon "
          "%d (edits cannot reach into the past)",
          ei.start, now_));
    }
    return Status::FailedPrecondition(StringFormat(
        "EI starts at %d but the monitor is already at chronon %d",
        ei.start, now_));
  }
  return Status::OK();
}

Status DynamicMonitor::CheckSubmit(ProfileId profile,
                                   const TInterval& t_interval) const {
  if (profile < 0 ||
      profile >= static_cast<ProfileId>(profile_names_.size())) {
    return Status::InvalidArgument(
        StringFormat("unknown profile id %d", profile));
  }
  if (profile_unregistered_[static_cast<std::size_t>(profile)]) {
    return Status::InvalidArgument(
        StringFormat("profile %d is unregistered", profile));
  }
  return ValidateArrival(t_interval, /*edit=*/false);
}

Result<int> DynamicMonitor::Submit(ProfileId profile,
                                   TInterval t_interval) {
  PULLMON_RETURN_NOT_OK(CheckSubmit(profile, t_interval));
  ++churn_stats_.churn_submitted;
  submitted_.push_back(std::move(t_interval));
  return AppendSubmission(profile, &submitted_.back());
}

Result<int> DynamicMonitor::SubmitStable(ProfileId profile,
                                         const TInterval* t_interval) {
  PULLMON_RETURN_NOT_OK(CheckSubmit(profile, *t_interval));
  ++churn_stats_.churn_submitted;
  return AppendSubmission(profile, t_interval);
}

int DynamicMonitor::AppendSubmission(ProfileId profile,
                                     const TInterval* stored) {
  const int t_id = static_cast<int>(runtimes_.size());
  auto& siblings = runtimes_of_profile_[static_cast<std::size_t>(profile)];

  // Grow the profile's rank; siblings already carry the old value, so
  // they need a refresh only when it actually grew.
  auto& rank = rank_of_profile_[static_cast<std::size_t>(profile)];
  if (static_cast<int>(stored->size()) > rank) {
    rank = static_cast<int>(stored->size());
    for (int other : siblings) {
      runtimes_[static_cast<std::size_t>(other)].profile_rank = rank;
    }
  }
  siblings.push_back(t_id);

  TIntervalRuntime rt;
  rt.profile = profile;
  rt.profile_rank = rank;
  rt.source = stored;
  rt.ei_captured.assign(stored->size(), 0);
  // Windows opened so far are those of chronons before now_ (none, for a
  // validated arrival); Step() counts the later ones as they open.
  rt.edf = ScanEdfAggregate(rt, now_ - 1);
  runtimes_.push_back(std::move(rt));
  cancelled_.push_back(0);
  fault_touched_.push_back(0);
  const int submission = static_cast<int>(siblings.size()) - 1;
  submission_id_.push_back(submission);

  // Register the EIs under contiguous flat ids.
  first_flat_.push_back(static_cast<int>(index_.size()));
  for (std::size_t i = 0; i < stored->eis().size(); ++i) {
    index_.AddEi(stored->eis()[i], t_id, static_cast<int>(i));
  }
  return submission;
}

void DynamicMonitor::RetireParent(int t_id) {
  const int first = first_flat_[static_cast<std::size_t>(t_id)];
  const int end = first + runtimes_[static_cast<std::size_t>(t_id)].NumEis();
  for (int flat_id = first; flat_id < end; ++flat_id) {
    index_.Deactivate(flat_id);
  }
}

void DynamicMonitor::RecomputeProfileRank(ProfileId profile) {
  auto& rank = rank_of_profile_[static_cast<std::size_t>(profile)];
  int exact = 0;
  for (int other :
       runtimes_of_profile_[static_cast<std::size_t>(profile)]) {
    if (cancelled_[static_cast<std::size_t>(other)]) continue;
    exact = std::max(
        exact,
        static_cast<int>(
            runtimes_[static_cast<std::size_t>(other)].source->size()));
  }
  if (exact == rank) return;
  rank = exact;
  for (int other :
       runtimes_of_profile_[static_cast<std::size_t>(profile)]) {
    runtimes_[static_cast<std::size_t>(other)].profile_rank = rank;
  }
}

void DynamicMonitor::CancelLive(int t_id) {
  TIntervalRuntime& rt = runtimes_[static_cast<std::size_t>(t_id)];
  // Captures already spent on a submission the client is withdrawing
  // served nobody: account them as orphaned probe work.
  churn_stats_.orphaned_probes += static_cast<std::size_t>(rt.num_captured);
  cancelled_[static_cast<std::size_t>(t_id)] = 1;
  RetireParent(t_id);
  // Rank is exact, not a high-water mark: withdrawing the submission
  // that carried the profile's maximum size may lower it.
  if (static_cast<int>(rt.source->size()) >=
      rank_of_profile_[static_cast<std::size_t>(rt.profile)]) {
    RecomputeProfileRank(rt.profile);
  }
  if (options_.maintenance == MonitorIndexMode::kRebuild) RebuildIndex();
}

Status DynamicMonitor::Cancel(ProfileId profile, int submission_id) {
  PULLMON_ASSIGN_OR_RETURN(int t_id,
                           ResolveSubmission(profile, submission_id));
  if (!IsLive(t_id)) {
    const TIntervalRuntime& rt = runtimes_[static_cast<std::size_t>(t_id)];
    const char* state = cancelled_[static_cast<std::size_t>(t_id)]
                            ? "already cancelled"
                            : (rt.completed ? "already completed"
                                            : "already failed");
    return Status::InvalidArgument(
        StringFormat("submission %d of profile %d is %s", submission_id,
                     profile, state));
  }
  CancelLive(t_id);
  ++churn_stats_.churn_cancelled;
  return Status::OK();
}

Result<int> DynamicMonitor::Unregister(ProfileId profile) {
  if (profile < 0 ||
      profile >= static_cast<ProfileId>(profile_names_.size())) {
    return Status::InvalidArgument(
        StringFormat("unknown profile id %d", profile));
  }
  if (profile_unregistered_[static_cast<std::size_t>(profile)]) {
    return Status::InvalidArgument(
        StringFormat("profile %d is already unregistered", profile));
  }
  profile_unregistered_[static_cast<std::size_t>(profile)] = 1;
  int cancelled = 0;
  for (int t_id :
       runtimes_of_profile_[static_cast<std::size_t>(profile)]) {
    if (!IsLive(t_id)) continue;
    CancelLive(t_id);
    ++churn_stats_.churn_cancelled;
    ++cancelled;
  }
  ++churn_stats_.churn_unregistered_profiles;
  return cancelled;
}

Result<int> DynamicMonitor::Edit(ProfileId profile, int submission_id,
                                 TInterval replacement) {
  PULLMON_ASSIGN_OR_RETURN(int t_id,
                           ResolveSubmission(profile, submission_id));
  if (profile_unregistered_[static_cast<std::size_t>(profile)]) {
    return Status::InvalidArgument(
        StringFormat("profile %d is unregistered", profile));
  }
  if (!IsLive(t_id)) {
    return Status::InvalidArgument(StringFormat(
        "submission %d of profile %d is no longer live", submission_id,
        profile));
  }
  // Validate the replacement in full *before* touching the old
  // submission, so a rejected edit is a no-op.
  PULLMON_RETURN_NOT_OK(ValidateArrival(replacement, /*edit=*/true));
  CancelLive(t_id);
  ++churn_stats_.churn_edited;
  submitted_.push_back(std::move(replacement));
  return AppendSubmission(profile, &submitted_.back());
}

void DynamicMonitor::RebuildIndex() {
  // The from-scratch oracle: re-register every EI in original flat-id
  // order (selection tie-breaks depend on flat ids), mark everything
  // that has left play dead — captured EIs, expired windows, and whole
  // parents that completed, failed, or were withdrawn — then replay the
  // activations of already-opened windows. Dead EIs are skipped by the
  // replay, so the rebuilt live lists hold exactly the surviving
  // candidates in activation order, matching the incremental index's
  // observable state (its lists may additionally carry dead entries
  // awaiting lazy compaction, which nothing observes).
  CandidateIndex fresh(num_resources_, epoch_length_);
  for (std::size_t t = 0; t < runtimes_.size(); ++t) {
    const TIntervalRuntime& rt = runtimes_[t];
    const bool parent_dead =
        rt.completed || rt.failed || cancelled_[t] != 0;
    const auto& eis = rt.source->eis();
    for (std::size_t i = 0; i < eis.size(); ++i) {
      const int flat_id =
          fresh.AddEi(eis[i], static_cast<int>(t), static_cast<int>(i));
      PULLMON_CHECK(flat_id == first_flat_[t] + static_cast<int>(i));
      if (parent_dead || rt.ei_captured[i] != 0 ||
          eis[i].finish < now_) {
        fresh.Deactivate(flat_id);
      }
    }
  }
  for (Chronon t = 0; t < now_; ++t) {
    fresh.ActivateArrivals(t);
  }
  index_ = std::move(fresh);
}

void DynamicMonitor::CaptureOnProbe(ResourceId resource, StepResult* step) {
  index_.CaptureResource(resource, [&](int, const IndexedEi& hit) {
    TIntervalRuntime& parent = runtimes_[static_cast<std::size_t>(hit.t_id)];
    parent.ei_captured[static_cast<std::size_t>(hit.ei_index)] = 1;
    ++parent.num_captured;
    parent.edf.uncaptured_finish_sum -= hit.ei.finish;
    parent.selected = true;
    if (parent.num_captured < parent.Required()) return;
    // The probe completed the parent: its other EIs leave play.
    parent.completed = true;
    ++completed_;
    RetireParent(hit.t_id);
    const int submission = submission_id_[static_cast<std::size_t>(hit.t_id)];
    step->captured.emplace_back(parent.profile, submission);
    if (capture_callback_) {
      capture_callback_(parent.profile, submission, now_);
    }
  });
}

void DynamicMonitor::ExpireEnding(StepResult* step) {
  // The parent fails once too few EIs remain alive to reach its
  // required capture count (with the all-required default, any
  // uncaptured expiry fails it).
  auto expire_fn = [&](int, const IndexedEi& flat) {
    TIntervalRuntime& parent =
        runtimes_[static_cast<std::size_t>(flat.t_id)];
    if (parent.failed || parent.completed ||
        cancelled_[static_cast<std::size_t>(flat.t_id)]) {
      return;
    }
    ++parent.num_expired;
    if (parent.num_captured + parent.NumAlive() >= parent.Required()) return;
    parent.failed = true;
    ++failed_;
    RetireParent(flat.t_id);
    if (fault_touched_[static_cast<std::size_t>(flat.t_id)]) {
      ++probe_stats_.t_intervals_lost_to_faults;
    }
    step->failed.emplace_back(
        parent.profile, submission_id_[static_cast<std::size_t>(flat.t_id)]);
  };
  for (int flat_id : index_.EndingAt(now_)) {
    index_.ExpireOne(flat_id, expire_fn);
  }
}

Result<StepResult> DynamicMonitor::Step() {
  if (!validated_options_) {
    PULLMON_RETURN_NOT_OK(options_.retry.Validate());
    PULLMON_RETURN_NOT_OK(options_.breaker.Validate());
    validated_options_ = true;
  }
  if (now_ >= epoch_length_) {
    return Status::FailedPrecondition("the epoch is over");
  }
  StepResult step;
  step.chronon = now_;

  // 1. Reveal EIs starting now (dead parents were retired eagerly) and
  // count the opened windows into their parents' M-EDF aggregates.
  index_.ActivateArrivals(now_);
  for (int flat_id : index_.StartingAt(now_)) {
    ++runtimes_[static_cast<std::size_t>(index_.at(flat_id).t_id)]
          .edf.num_started;
  }

  // Expired cool-downs move to probation before scoring, so a half-open
  // resource competes in this chronon's selection.
  health_.BeginChronon(now_);

  // 2. Score, one minimal key per resource. Open-circuit resources are
  // skipped, so their would-be budget flows to the next-ranked
  // candidates.
  const std::size_t scored = index_.CollectResourceCandidates(
      [&](const IndexedEi& flat) {
        const TIntervalRuntime& parent =
            runtimes_[static_cast<std::size_t>(flat.t_id)];
        int np_class =
            (mode_ == ExecutionMode::kNonPreemptive && !parent.selected)
                ? 1
                : 0;
        return std::make_pair(
            np_class, policy_->Score(flat.ei, parent, flat.ei_index, now_));
      },
      [&](ResourceId r) { return health_.IsSuppressed(r); },
      [&](ResourceId r, int live) { health_.NoteSuppressed(r, live); },
      &entries_);
  probe_stats_.candidates_scored += scored;
  probe_stats_.max_concurrent_candidates =
      std::max(probe_stats_.max_concurrent_candidates, scored);

  // 3. Control pass: select the top resources against the budget, then
  // run the budget/retry/breaker loop over them best first, each attempt
  // through the probe callback.
  auto attempt = [&](ResourceId r) {
    ++probe_stats_.probes_used;
    const bool success = !probe_callback_ || probe_callback_(r, now_);
    health_.RecordProbe(r, now_, success);
    if (!success) ++probe_stats_.probes_failed;
    return success;
  };

  const int budget = budget_.at(now_);
  if (budget > 0) {
    const std::size_t take =
        CandidateIndex::SelectTopResources(&entries_, budget);
    int probes_this_chronon = 0;
    for (std::size_t i = 0; i < take; ++i) {
      if (probes_this_chronon >= budget) break;
      const ResourceId r = entries_[i].resource;
      ++probes_this_chronon;
      bool success = attempt(r);
      // Same-chronon retries with exponential backoff, each charged one
      // budget unit; abandoned when the accumulated wait would cross the
      // chronon boundary, the budget runs dry, or the breaker opens the
      // resource's circuit mid-loop (retrying a resource the breaker
      // just gave up on wastes budget).
      double waited = 0.0;
      double backoff = options_.retry.backoff_base;
      for (int retry = 0; !success && retry < options_.retry.max_retries &&
                          probes_this_chronon < budget &&
                          !health_.IsSuppressed(r);
           ++retry) {
        waited += backoff;
        if (waited > options_.retry.backoff_budget) break;
        backoff *= options_.retry.backoff_multiplier;
        ++probes_this_chronon;
        ++probe_stats_.retries_issued;
        ++probe_stats_.retry_probes_spent;
        success = attempt(r);
      }
      if (!success) {
        // The probe never delivered: nothing is captured, candidates on
        // r stay candidates for later chronons. Record which parents the
        // failure touched for loss attribution.
        index_.ForEachLiveOnResource(r, [&](int, const IndexedEi& miss) {
          fault_touched_[static_cast<std::size_t>(miss.t_id)] = 1;
        });
        continue;
      }
      step.probed.push_back(r);
      PULLMON_CHECK_OK(schedule_.AddProbe(r, now_));
      // 4. The probe captures every live candidate EI on resource r.
      CaptureOnProbe(r, &step);
    }
    // Reclaim accounting: at most probes_this_chronon of the budget
    // units a suppressed resource would have taken actually flowed to
    // other resources this chronon (an upper bound; see HealthStats).
    health_.NoteBudgetReclaimed(
        std::min(health_.SuppressedThisChronon(),
                 static_cast<std::size_t>(probes_this_chronon)));
  }

  // 5. Expire EIs whose window ends now.
  ExpireEnding(&step);

  ++now_;
  return step;
}

Result<CompletenessReport> DynamicMonitor::RunToEnd() {
  while (now_ < epoch_length_) {
    PULLMON_ASSIGN_OR_RETURN(StepResult step, Step());
    (void)step;
  }
  return Completeness();
}

CompletenessReport DynamicMonitor::Completeness() const {
  const ProbeIndex probes(schedule_);
  CompletenessReport report;
  report.per_profile.resize(profile_names_.size());
  for (std::size_t t = 0; t < runtimes_.size(); ++t) {
    // Withdrawn submissions leave the denominator: the client no longer
    // wants them, so they are neither captured nor missed.
    if (cancelled_[t]) continue;
    const TIntervalRuntime& rt = runtimes_[t];
    auto& pc = report.per_profile[static_cast<std::size_t>(rt.profile)];
    ++pc.total;
    ++report.total_t_intervals;
    report.total_weight += rt.source->weight();
    if (probes.Captures(*rt.source)) {
      ++pc.captured;
      ++report.captured_t_intervals;
      report.captured_weight += rt.source->weight();
    }
  }
  return report;
}

OnlineRunResult DynamicMonitor::RunResult() const {
  OnlineRunResult result;
  result.schedule = schedule_;
  static_cast<ProbeStats&>(result) = probe_stats_;
  static_cast<HealthStats&>(result) = health_.stats();
  result.t_intervals_completed = completed_;
  result.t_intervals_failed = failed_;
  if (options_.breaker.enabled) {
    result.open_chronons_by_resource = health_.OpenChrononsByResource();
  }

  return result;
}

MonitorImage DynamicMonitor::Capture() const {
  MonitorImage image;
  image.now = now_;
  image.profile_names = profile_names_;
  image.profile_unregistered = profile_unregistered_;
  image.submissions.reserve(runtimes_.size());
  for (std::size_t t = 0; t < runtimes_.size(); ++t) {
    const TIntervalRuntime& rt = runtimes_[t];
    MonitorSubmissionImage sub;
    sub.profile = rt.profile;
    sub.ei_captured = rt.ei_captured;
    sub.num_expired = rt.num_expired;
    sub.cancelled = cancelled_[t];
    sub.fault_touched = fault_touched_[t];
    sub.failed = rt.failed ? 1 : 0;
    sub.completed = rt.completed ? 1 : 0;
    sub.selected = rt.selected ? 1 : 0;
    image.submissions.push_back(std::move(sub));
  }
  image.probes_by_chronon.reserve(static_cast<std::size_t>(now_));
  for (Chronon t = 0; t < now_; ++t) {
    image.probes_by_chronon.push_back(schedule_.ProbesAt(t));
  }
  image.probe_stats = probe_stats_;
  image.churn_stats = churn_stats_;
  image.health = health_.Capture();
  return image;
}

Status DynamicMonitor::Restore(const MonitorImage& image,
                               std::vector<TInterval> definitions) {
  if (now_ != 0 || !runtimes_.empty() || !profile_names_.empty()) {
    return Status::FailedPrecondition(
        "Restore() requires a freshly constructed monitor");
  }
  if (image.now < 0 || image.now > epoch_length_) {
    return Status::InvalidArgument(StringFormat(
        "image chronon %d outside epoch of length %d", image.now,
        epoch_length_));
  }
  if (image.profile_unregistered.size() != image.profile_names.size()) {
    return Status::InvalidArgument(
        "image profile arrays disagree on the profile count");
  }
  if (definitions.size() != image.submissions.size()) {
    return Status::InvalidArgument(
        "restore needs one definition per image submission");
  }
  if (image.probes_by_chronon.size() !=
      static_cast<std::size_t>(image.now)) {
    return Status::InvalidArgument(
        "image schedule does not cover exactly the chronons before now");
  }
  // The profile registry first, so submissions can validate against it.
  for (const std::string& name : image.profile_names) {
    RegisterProfile(name);
  }
  profile_unregistered_ = image.profile_unregistered;

  // Replay every submission through the AppendSubmission bookkeeping
  // (rank high-water marks, per-profile submission ids, flat EI ids come
  // out exactly as the original run produced them), then lay the
  // captured/expired/terminal state of the image over the runtimes.
  for (std::size_t i = 0; i < image.submissions.size(); ++i) {
    const MonitorSubmissionImage& sub = image.submissions[i];
    TInterval& definition = definitions[i];
    if (sub.profile < 0 ||
        sub.profile >= static_cast<ProfileId>(profile_names_.size())) {
      return Status::InvalidArgument(StringFormat(
          "image submission names unknown profile %d", sub.profile));
    }
    PULLMON_RETURN_NOT_OK(definition.Validate(Epoch{epoch_length_}));
    for (const auto& ei : definition.eis()) {
      if (ei.resource >= num_resources_) {
        return Status::InvalidArgument(StringFormat(
            "image EI resource %d outside [0,%d)", ei.resource,
            num_resources_));
      }
    }
    if (sub.ei_captured.size() != definition.size()) {
      return Status::InvalidArgument(
          "image capture flags do not match the definition's EI count");
    }
    int t_id = static_cast<int>(runtimes_.size());
    submitted_.push_back(std::move(definition));
    AppendSubmission(sub.profile, &submitted_.back());
    TIntervalRuntime& rt = runtimes_[static_cast<std::size_t>(t_id)];
    rt.ei_captured = sub.ei_captured;
    rt.num_captured = 0;
    for (uint8_t flag : sub.ei_captured) rt.num_captured += flag != 0;
    rt.num_expired = sub.num_expired;
    rt.failed = sub.failed != 0;
    rt.completed = sub.completed != 0;
    rt.selected = sub.selected != 0;
    rt.edf = ScanEdfAggregate(rt, image.now - 1);
    cancelled_[static_cast<std::size_t>(t_id)] = sub.cancelled;
    fault_touched_[static_cast<std::size_t>(t_id)] = sub.fault_touched;
    if (rt.completed) ++completed_;
    if (rt.failed) ++failed_;
  }
  // The replay lays cancelled flags after AppendSubmission's high-water
  // growth already ran, so bring every profile's rank back to the exact
  // (non-cancelled) value the interrupted run was carrying.
  for (ProfileId p = 0;
       p < static_cast<ProfileId>(profile_names_.size()); ++p) {
    RecomputeProfileRank(p);
  }

  now_ = image.now;
  for (Chronon t = 0; t < image.now; ++t) {
    for (ResourceId r :
         image.probes_by_chronon[static_cast<std::size_t>(t)]) {
      PULLMON_RETURN_NOT_OK(schedule_.AddProbe(r, t));
    }
  }
  probe_stats_ = image.probe_stats;
  churn_stats_ = image.churn_stats;
  PULLMON_RETURN_NOT_OK(health_.Restore(image.health));

  // The candidate structures come back through the rebuild oracle:
  // decision-identical to the incrementally maintained index (the churn
  // differential suite enforces it), so a restored run schedules exactly
  // what the uninterrupted run would have.
  RebuildIndex();
  return CheckInvariants();
}

Status DynamicMonitor::CheckInvariants() const {
  PULLMON_RETURN_NOT_OK(index_.CheckInvariants());
  for (std::size_t t = 0; t < runtimes_.size(); ++t) {
    const TIntervalRuntime& rt = runtimes_[t];
    int captured = 0;
    for (uint8_t flag : rt.ei_captured) captured += flag != 0;
    if (captured != rt.num_captured) {
      return Status::InvalidArgument(StringFormat(
          "t-interval %zu capture counter %d != %d flagged EIs", t,
          rt.num_captured, captured));
    }
    // The maintained M-EDF terms against the scan, over the windows
    // opened by the chronons executed so far.
    const EdfAggregate scan = ScanEdfAggregate(rt, now_ - 1);
    if (rt.edf != scan) {
      return Status::InvalidArgument(StringFormat(
          "t-interval %zu M-EDF aggregate (finish sum %lld, %d started) != "
          "scan (%lld, %d)",
          t, static_cast<long long>(rt.edf.uncaptured_finish_sum),
          rt.edf.num_started,
          static_cast<long long>(scan.uncaptured_finish_sum),
          scan.num_started));
    }
    if (rt.completed && rt.num_captured < rt.Required()) {
      return Status::InvalidArgument(StringFormat(
          "t-interval %zu completed with %d of %d required captures", t,
          rt.num_captured, rt.Required()));
    }
    // ExpireEnding counts each uncaptured EI whose window closes while
    // the parent is live, so num_expired is at most the uncaptured EIs
    // closed before now_, and exactly that while the parent lives.
    const bool dead = rt.completed || rt.failed || cancelled_[t] != 0;
    int closed = 0;
    for (std::size_t i = 0; i < rt.ei_captured.size(); ++i) {
      if (rt.ei_captured[i] == 0 && rt.source->eis()[i].finish < now_) {
        ++closed;
      }
    }
    if (rt.num_expired < 0 || rt.num_expired > closed ||
        (!dead && rt.num_expired != closed)) {
      return Status::InvalidArgument(StringFormat(
          "%s t-interval %zu expiry counter %d against %d uncaptured EIs "
          "closed before chronon %d",
          dead ? "dead" : "live", t, rt.num_expired, closed, now_));
    }
    if (!dead) continue;
    const int first = first_flat_[t];
    for (int flat_id = first; flat_id < first + rt.NumEis(); ++flat_id) {
      if (!index_.at(flat_id).dead) {
        return Status::InvalidArgument(StringFormat(
            "dead t-interval %zu still holds a live EI (flat id %d)", t,
            flat_id));
      }
    }
  }
  return Status::OK();
}

}  // namespace pullmon
