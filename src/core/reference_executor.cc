#include "core/reference_executor.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "util/logging.h"

namespace pullmon {

namespace {

/// One flattened execution interval with its runtime capture flag.
struct FlatEi {
  ExecutionInterval ei;
  int t_id = 0;      // index into the flattened t-interval array
  int ei_index = 0;  // index within the parent t-interval
  bool captured = false;
};

/// A scored candidate, ready for selection.
struct ScoredCandidate {
  int flat_id;
  int np_class;  // 0 = previously selected parent, 1 = new (NP mode only)
  double score;
  Chronon deadline;
};

}  // namespace

ReferenceExecutor::ReferenceExecutor(const MonitoringProblem* problem,
                                     Policy* policy, ExecutionMode mode)
    : problem_(problem), policy_(policy), mode_(mode) {}

Result<OnlineRunResult> ReferenceExecutor::Run() {
  PULLMON_RETURN_NOT_OK(problem_->Validate());
  PULLMON_RETURN_NOT_OK(retry_.Validate());
  PULLMON_RETURN_NOT_OK(breaker_.Validate());
  policy_->Reset();

  // Mirrors the indexed path exactly: the tracker is a pure function of
  // the probe-attempt sequence, which both backends issue identically.
  ResourceHealthTracker health(problem_->num_resources, breaker_);
  policy_->AttachHealth(&health);

  const Chronon epoch_len = problem_->epoch.length;
  const int num_resources = problem_->num_resources;

  // --- Flatten the profile hierarchy into runtime arrays. ---------------
  std::vector<TIntervalRuntime> runtimes;
  std::vector<std::size_t> t_index_in_profile;  // parallel to runtimes
  std::vector<FlatEi> eis;
  for (ProfileId pid = 0;
       pid < static_cast<ProfileId>(problem_->profiles.size()); ++pid) {
    const Profile& p = problem_->profiles[static_cast<std::size_t>(pid)];
    int rank = static_cast<int>(p.rank());
    for (std::size_t ti = 0; ti < p.t_intervals().size(); ++ti) {
      const TInterval& eta = p.t_intervals()[ti];
      TIntervalRuntime rt;
      rt.profile = pid;
      rt.profile_rank = rank;
      rt.source = &eta;
      rt.ei_captured.assign(eta.size(), 0);
      int t_id = static_cast<int>(runtimes.size());
      runtimes.push_back(std::move(rt));
      t_index_in_profile.push_back(ti);
      for (std::size_t ei_idx = 0; ei_idx < eta.eis().size(); ++ei_idx) {
        FlatEi flat;
        flat.ei = eta.eis()[ei_idx];
        flat.t_id = t_id;
        flat.ei_index = static_cast<int>(ei_idx);
        eis.push_back(flat);
      }
    }
  }

  // Event lists: EIs indexed by start and finish chronon.
  std::vector<std::vector<int>> starting_at(
      static_cast<std::size_t>(epoch_len));
  std::vector<std::vector<int>> ending_at(
      static_cast<std::size_t>(epoch_len));
  for (int id = 0; id < static_cast<int>(eis.size()); ++id) {
    starting_at[static_cast<std::size_t>(eis[id].ei.start)].push_back(id);
    ending_at[static_cast<std::size_t>(eis[id].ei.finish)].push_back(id);
  }

  // Active candidate structures with lazy removal.
  std::vector<int> active_ids;
  std::vector<std::vector<int>> active_by_resource(
      static_cast<std::size_t>(num_resources));
  // Per-chronon "probed" markers without O(n) clearing.
  std::vector<Chronon> probed_stamp(static_cast<std::size_t>(num_resources),
                                    -1);
  // Per-chronon "suppression noted" markers, same trick: NoteSuppressed
  // fires once per (open-circuit resource, chronon) with live
  // candidates, matching the indexed path's per-resource reduction.
  std::vector<Chronon> suppressed_stamp(
      static_cast<std::size_t>(num_resources), -1);

  OnlineRunResult result;
  result.schedule = Schedule(epoch_len);

  // Parents that had a live candidate EI hit by a failed probe — failure
  // attribution for t_intervals_lost_to_faults.
  std::vector<uint8_t> fault_touched(runtimes.size(), 0);

  auto is_live = [&](const FlatEi& flat, Chronon now) {
    if (flat.captured) return false;
    const TIntervalRuntime& parent =
        runtimes[static_cast<std::size_t>(flat.t_id)];
    if (parent.failed || parent.completed) return false;
    return flat.ei.finish >= now;
  };

  std::vector<ScoredCandidate> candidates;
  std::vector<int> capture_buffer;

  const auto run_start = std::chrono::steady_clock::now();

  for (Chronon now = 0; now < epoch_len; ++now) {
    // 1. Reveal EIs that start now (skip those of already-dead parents).
    for (int id : starting_at[static_cast<std::size_t>(now)]) {
      const FlatEi& flat = eis[static_cast<std::size_t>(id)];
      const TIntervalRuntime& parent =
          runtimes[static_cast<std::size_t>(flat.t_id)];
      if (parent.failed || parent.completed) continue;
      active_ids.push_back(id);
      active_by_resource[static_cast<std::size_t>(flat.ei.resource)]
          .push_back(id);
    }

    // Expired cool-downs move to probation before scoring, so a
    // half-open resource competes in this chronon's selection.
    health.BeginChronon(now);

    // 2. Compact the live candidate list and score it. Candidates on
    //    open-circuit resources stay live but are neither scored nor
    //    eligible for selection this chronon.
    candidates.clear();
    std::size_t write = 0;
    for (std::size_t read = 0; read < active_ids.size(); ++read) {
      int id = active_ids[read];
      FlatEi& flat = eis[static_cast<std::size_t>(id)];
      if (!is_live(flat, now)) continue;
      active_ids[write++] = id;
      ResourceId res = flat.ei.resource;
      if (health.IsSuppressed(res)) {
        if (suppressed_stamp[static_cast<std::size_t>(res)] != now) {
          suppressed_stamp[static_cast<std::size_t>(res)] = now;
          health.NoteSuppressed(res, 1);
        }
        continue;
      }
      // The oracle fills the M-EDF aggregate from scratch for every
      // candidate, so the differential suites check the monitor's
      // maintained one against the scan.
      TIntervalRuntime& parent =
          runtimes[static_cast<std::size_t>(flat.t_id)];
      parent.edf = ScanEdfAggregate(parent, now);
      ScoredCandidate cand;
      cand.flat_id = id;
      cand.np_class = (mode_ == ExecutionMode::kNonPreemptive &&
                       !parent.selected)
                          ? 1
                          : 0;
      cand.score = policy_->Score(flat.ei, parent, flat.ei_index, now);
      cand.deadline = flat.ei.finish;
      candidates.push_back(cand);
    }
    active_ids.resize(write);
    result.candidates_scored += candidates.size();
    result.max_concurrent_candidates =
        std::max(result.max_concurrent_candidates, candidates.size());

    // 3. Select up to C_now distinct resources, best candidates first —
    //    the full sort the indexed executor exists to avoid.
    int budget = problem_->budget.at(now);
    if (budget > 0 && !candidates.empty()) {
      std::sort(candidates.begin(), candidates.end(),
                [&](const ScoredCandidate& a, const ScoredCandidate& b) {
                  if (a.np_class != b.np_class) return a.np_class < b.np_class;
                  if (a.score != b.score) return a.score < b.score;
                  if (a.deadline != b.deadline) return a.deadline < b.deadline;
                  return a.flat_id < b.flat_id;
                });
      int probes_this_chronon = 0;
      for (const auto& cand : candidates) {
        if (probes_this_chronon >= budget) break;
        const FlatEi& flat = eis[static_cast<std::size_t>(cand.flat_id)];
        if (flat.captured) continue;  // freebie from an earlier probe
        ResourceId r = flat.ei.resource;
        if (probed_stamp[static_cast<std::size_t>(r)] == now) continue;
        probed_stamp[static_cast<std::size_t>(r)] = now;
        ++probes_this_chronon;
        ++result.probes_used;
        bool success = probe_callback_ ? probe_callback_(r, now) : true;
        health.RecordProbe(r, now, success);
        if (!success) {
          ++result.probes_failed;
          // Same-chronon retries with exponential backoff, each charged
          // one budget unit; abandoned when the accumulated wait would
          // cross the chronon boundary, the budget runs dry, or the
          // breaker opens the resource's circuit mid-loop (retrying a
          // resource the breaker just gave up on wastes budget).
          double waited = 0.0;
          double backoff = retry_.backoff_base;
          for (int attempt = 0; attempt < retry_.max_retries &&
                                probes_this_chronon < budget &&
                                !health.IsSuppressed(r);
               ++attempt) {
            waited += backoff;
            if (waited > retry_.backoff_budget) break;
            backoff *= retry_.backoff_multiplier;
            ++probes_this_chronon;
            ++result.probes_used;
            ++result.retries_issued;
            ++result.retry_probes_spent;
            success = probe_callback_(r, now);
            health.RecordProbe(r, now, success);
            if (success) break;
            ++result.probes_failed;
          }
        }
        if (!success) {
          // The probe never delivered: nothing is captured, candidates
          // on r stay candidates for later chronons. Record which
          // parents the failure touched for loss attribution.
          for (int id :
               active_by_resource[static_cast<std::size_t>(r)]) {
            const FlatEi& miss = eis[static_cast<std::size_t>(id)];
            if (!is_live(miss, now)) continue;
            fault_touched[static_cast<std::size_t>(miss.t_id)] = 1;
          }
          continue;
        }
        PULLMON_CHECK_OK(result.schedule.AddProbe(r, now));

        // 4. The probe captures every live candidate EI on resource r.
        capture_buffer.clear();
        capture_buffer.swap(
            active_by_resource[static_cast<std::size_t>(r)]);
        for (int id : capture_buffer) {
          FlatEi& hit = eis[static_cast<std::size_t>(id)];
          if (!is_live(hit, now)) continue;
          hit.captured = true;
          TIntervalRuntime& parent =
              runtimes[static_cast<std::size_t>(hit.t_id)];
          parent.ei_captured[static_cast<std::size_t>(hit.ei_index)] = 1;
          ++parent.num_captured;
          parent.selected = true;
          if (parent.num_captured >= parent.Required()) {
            parent.completed = true;
            ++result.t_intervals_completed;
            if (capture_callback_) {
              capture_callback_(
                  parent.profile,
                  t_index_in_profile[static_cast<std::size_t>(hit.t_id)],
                  now);
            }
          }
        }
      }
      // Reclaim accounting: at most probes_this_chronon of the budget
      // units a suppressed resource would have taken actually flowed to
      // other resources this chronon (an upper bound; see HealthStats).
      health.NoteBudgetReclaimed(
          std::min(health.SuppressedThisChronon(),
                   static_cast<std::size_t>(probes_this_chronon)));
    }

    // 5. Expire EIs whose window ends now; the parent fails once too few
    //    EIs remain alive to reach its required capture count (with the
    //    all-required default, any uncaptured expiry fails it).
    for (int id : ending_at[static_cast<std::size_t>(now)]) {
      const FlatEi& flat = eis[static_cast<std::size_t>(id)];
      if (flat.captured) continue;
      TIntervalRuntime& parent =
          runtimes[static_cast<std::size_t>(flat.t_id)];
      if (parent.failed || parent.completed) continue;
      ++parent.num_expired;
      if (parent.num_captured + parent.NumAlive() < parent.Required()) {
        parent.failed = true;
        ++result.t_intervals_failed;
        if (fault_touched[static_cast<std::size_t>(flat.t_id)]) {
          ++result.t_intervals_lost_to_faults;
        }
      }
    }
  }

  const auto run_end = std::chrono::steady_clock::now();
  result.elapsed_seconds =
      std::chrono::duration<double>(run_end - run_start).count();

  static_cast<HealthStats&>(result) = health.stats();
  if (breaker_.enabled) {
    result.open_chronons_by_resource = health.OpenChrononsByResource();
  }

  result.completeness =
      EvaluateCompleteness(problem_->profiles, result.schedule);
  // Internal consistency: the executor's own capture accounting must agree
  // with the schedule-based evaluation.
  PULLMON_CHECK(result.completeness.captured_t_intervals ==
                result.t_intervals_completed);
  return result;
}

}  // namespace pullmon
