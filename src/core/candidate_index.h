#ifndef PULLMON_CORE_CANDIDATE_INDEX_H_
#define PULLMON_CORE_CANDIDATE_INDEX_H_

#include <cstddef>
#include <vector>

#include "core/chronon.h"
#include "core/execution_interval.h"
#include "util/logging.h"
#include "util/status.h"

namespace pullmon {

/// Runtime state of one execution interval registered with the index.
/// `t_id` and `ei_index` are opaque caller handles (the executor's parent
/// t-interval bookkeeping); the index only manages EI lifecycle.
struct IndexedEi {
  ExecutionInterval ei;
  int t_id = 0;
  int ei_index = 0;
  /// Permanently out of play (captured, expired, or parent dead).
  bool dead = false;
};

/// The per-resource reduction of one chronon's candidates: the minimal
/// selection key among the resource's live EIs. Probing the resource
/// serves this candidate (and, by probe sharing, every other live
/// candidate on the resource).
struct ResourceCandidate {
  ResourceId resource = 0;
  int flat_id = 0;
  int np_class = 0;
  double score = 0.0;
  Chronon deadline = 0;
};

/// Incremental candidate index of the online execution semantics
/// (DESIGN.md section 9). Replaces the per-chronon rebuild-and-sort of
/// the scan-based executor with structures that are *maintained* as EIs
/// arrive, get captured, and expire:
///
///  * start/expiry event lists bucketed by chronon (built once);
///  * per-resource live-candidate lists with lazy compaction: a capture,
///    expiry or deactivation only marks the EI dead, and the next
///    CollectResourceCandidates pass drops it;
///  * a compact list of resources that currently hold candidates, so a
///    chronon's selection touches O(active resources), not O(n).
///
/// Selection contract: ordering candidates by (np_class, score,
/// deadline, flat_id) and probing best-first with per-chronon resource
/// dedup is equivalent to ordering *resources* by their minimal
/// candidate key — the form this index serves. SelectTopResources()
/// partially selects the best C_j of those keys instead of sorting all
/// candidates, which is what makes the indexed executor decision-
/// identical to ReferenceExecutor (a differential test enforces this).
///
/// Per-chronon cost: O(A) scoring for A live candidates, plus
/// O(R_active + C_j log C_j) selection, plus O(1) amortized per EI
/// lifecycle event — against the reference path's O(total EIs +
/// A log A) rebuild, re-sort and rescan. Scores depend on `now` and are
/// recomputed every chronon, but each one is O(1) for the shipped
/// policies: what a score needs beyond the EI lives in its parent's
/// TIntervalRuntime, which the monitor maintains at lifecycle events
/// (num_captured for MRSF, the EdfAggregate for M-EDF).
class CandidateIndex {
 public:
  CandidateIndex(int num_resources, Chronon epoch_length);

  /// Registers an EI; returns its flat id (dense, in registration
  /// order). Must be called before the chronon `ei.start` is activated;
  /// DynamicMonitor calls this from Submit() (which forbids retroactive
  /// arrivals).
  int AddEi(const ExecutionInterval& ei, int t_id, int ei_index);

  /// Sizes the EI table for `eis` registrations in total, so a bulk
  /// registration does not grow it by doubling.
  void Reserve(std::size_t eis) { eis_.reserve(eis); }

  std::size_t size() const { return eis_.size(); }
  const IndexedEi& at(int flat_id) const {
    return eis_[static_cast<std::size_t>(flat_id)];
  }

  /// Activates the EIs whose window opens at `now`, skipping dead ones
  /// (a dead parent's unstarted EIs were retired by Deactivate()), and
  /// moves the activation watermark to now + 1. Chronons are activated
  /// in ascending order.
  void ActivateArrivals(Chronon now);

  /// Scores every live candidate and reduces to one ResourceCandidate
  /// per resource holding the minimal key. `scorer` is a callable
  /// (const IndexedEi&) -> std::pair<int, double> returning (np_class,
  /// score). Also lazily compacts the per-resource lists and the
  /// active-resource list. Returns the number of candidates scored (the
  /// executor's work measure).
  ///
  /// Suppression (DESIGN.md section 10): resources for which
  /// `suppressed` (a callable ResourceId -> bool) returns true are
  /// excluded from scoring and from `out` but stay fully indexed — their
  /// buckets are still compacted and they keep their slot in the
  /// active-resource list, so lifting the suppression next chronon needs
  /// no rebuild. Each suppressed resource still holding live candidates
  /// is reported to `on_suppressed` (a callable (ResourceId, int
  /// live_count)) for telemetry.
  template <typename Scorer, typename Suppressed, typename OnSuppressed>
  std::size_t CollectResourceCandidates(Scorer&& scorer,
                                        Suppressed&& suppressed,
                                        OnSuppressed&& on_suppressed,
                                        std::vector<ResourceCandidate>* out) {
    out->clear();
    std::size_t scored = 0;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < active_resources_.size(); ++i) {
      ResourceId r = active_resources_[i];
      auto& bucket = live_on_resource_[static_cast<std::size_t>(r)];
      const bool skip = suppressed(r);
      std::size_t write = 0;
      ResourceCandidate best;
      bool have_best = false;
      for (std::size_t read = 0; read < bucket.size(); ++read) {
        int id = bucket[read];
        const IndexedEi& flat = eis_[static_cast<std::size_t>(id)];
        if (flat.dead) continue;
        bucket[write++] = id;
        if (skip) continue;
        const auto [np_class, score] = scorer(flat);
        ++scored;
        if (!have_best ||
            Better(np_class, score, flat.ei.finish, id, best)) {
          best.resource = r;
          best.flat_id = id;
          best.np_class = np_class;
          best.score = score;
          best.deadline = flat.ei.finish;
          have_best = true;
        }
      }
      bucket.resize(write);
      if (write == 0) {
        in_play_[static_cast<std::size_t>(r)] = false;
        continue;  // drop r from the active-resource list
      }
      active_resources_[keep++] = r;
      if (skip) {
        on_suppressed(r, static_cast<int>(write));
      } else if (have_best) {
        out->push_back(best);
      }
    }
    active_resources_.resize(keep);
    return scored;
  }

  /// Partially orders `entries` so that its first min(budget, size)
  /// elements are the best resources in ascending key order; elements
  /// beyond that prefix are unspecified. Returns the usable prefix
  /// length. O(R_active + C log C) versus sorting everything.
  static std::size_t SelectTopResources(
      std::vector<ResourceCandidate>* entries, int budget);

  /// Takes every live candidate on `resource` out of play (a successful
  /// probe: intra-resource probe sharing) and empties the resource's
  /// list. `on_capture` is a callable (int flat_id, const IndexedEi&)
  /// invoked per captured EI — parent accounting, including the capture
  /// flag, lives in the caller, which may Deactivate() sibling EIs
  /// reentrantly (a sibling on this same resource is then skipped as
  /// dead).
  template <typename OnCapture>
  void CaptureResource(ResourceId resource, OnCapture&& on_capture) {
    auto& bucket = live_on_resource_[static_cast<std::size_t>(resource)];
    capture_scratch_.clear();
    capture_scratch_.swap(bucket);
    for (int id : capture_scratch_) {
      IndexedEi& flat = eis_[static_cast<std::size_t>(id)];
      if (flat.dead) continue;
      flat.dead = true;
      on_capture(id, const_cast<const IndexedEi&>(flat));
    }
  }

  /// Visits every live candidate on `resource` without mutating it —
  /// the failed-probe path (fault attribution).
  template <typename Visitor>
  void ForEachLiveOnResource(ResourceId resource, Visitor&& visit) const {
    for (int id : live_on_resource_[static_cast<std::size_t>(resource)]) {
      const IndexedEi& flat = eis_[static_cast<std::size_t>(id)];
      if (flat.dead) continue;
      visit(id, flat);
    }
  }

  /// Removes an EI from play because its parent died (completed,
  /// failed, or withdrawn by a client cancel/edit) — the "interval
  /// departs" event of dynamic interval scheduling. This is the
  /// incremental-delete primitive: it only marks the EI dead. The
  /// pending start/expiry bucket entries and the live-list slot are
  /// retired *lazily* (skipped as dead, compacted on the next
  /// CollectResourceCandidates pass), so no churn operation ever
  /// rebuilds the index. Safe on any state: an unstarted EI is never
  /// activated, and an already dead one is left as it is.
  void Deactivate(int flat_id) {
    eis_[static_cast<std::size_t>(flat_id)].dead = true;
  }

  /// The flat ids whose windows open at `now`, in registration order
  /// (every EI ever added, dead or not: the lists are never compacted).
  /// DynamicMonitor walks them serially to count opened windows into
  /// each parent's EdfAggregate.
  const std::vector<int>& StartingAt(Chronon now) const {
    return starting_at_[static_cast<std::size_t>(now)];
  }

  /// The flat ids whose windows close at `now`, in registration order
  /// (dead entries included — callers filter through ExpireOne).
  /// DynamicMonitor applies ExpireOne() entry by entry in this order.
  const std::vector<int>& EndingAt(Chronon now) const {
    return ending_at_[static_cast<std::size_t>(now)];
  }

  /// Expires a single EI if it is still live: removes it from the index
  /// and reports it to `on_expire` (a callable (int flat_id, const
  /// IndexedEi&)) for parent accounting, which may reentrantly
  /// Deactivate() siblings (including ones expiring at this same
  /// chronon — they are then skipped as dead, matching the reference
  /// semantics where a dead parent's later expiries are ignored). False
  /// when the EI was already dead (nothing happened).
  template <typename OnExpire>
  bool ExpireOne(int flat_id, OnExpire&& on_expire) {
    IndexedEi& flat = eis_[static_cast<std::size_t>(flat_id)];
    if (flat.dead) return false;
    flat.dead = true;
    on_expire(flat_id, const_cast<const IndexedEi&>(flat));
    return true;
  }

  /// Exhaustive O(total EIs) audit of the lazy structures, run by the
  /// churn fuzz suite after every operation. Verifies: live-list entries
  /// are filed under their own resource; every non-dead EI whose window
  /// opened below the activation watermark fills exactly one live-list
  /// slot, and no other EI fills one (dead EIs may still sit in a slot
  /// awaiting lazy compaction); and a resource holding live candidates
  /// is on the active list. Returns InvalidArgument naming the first
  /// violated invariant.
  Status CheckInvariants() const;

 private:
  static bool Better(int np_class, double score, Chronon deadline, int id,
                     const ResourceCandidate& best) {
    if (np_class != best.np_class) return np_class < best.np_class;
    if (score != best.score) return score < best.score;
    if (deadline != best.deadline) return deadline < best.deadline;
    return id < best.flat_id;
  }

  int num_resources_;
  Chronon epoch_length_;
  /// The chronon after the last ActivateArrivals(): every EI that
  /// starts below it has been activated (or skipped as dead).
  Chronon activated_until_ = 0;
  std::vector<IndexedEi> eis_;
  std::vector<std::vector<int>> starting_at_;  // chronon -> flat ids
  std::vector<std::vector<int>> ending_at_;
  std::vector<std::vector<int>> live_on_resource_;
  std::vector<bool> in_play_;  // resource present in active_resources_
  std::vector<ResourceId> active_resources_;
  std::vector<int> capture_scratch_;
};

}  // namespace pullmon

#endif  // PULLMON_CORE_CANDIDATE_INDEX_H_
