#ifndef PULLMON_ESTIMATION_ESTIMATION_SESSION_H_
#define PULLMON_ESTIMATION_ESTIMATION_SESSION_H_

#include <optional>
#include <vector>

#include "core/chronon.h"
#include "estimation/periodic_detector.h"
#include "estimation/rate_estimator.h"

namespace pullmon {

/// One probe outcome as the proxy observed it. Unlike the full-history
/// traces the offline forecaster consumes, these observations are
/// censored by the probe schedule: the session only learns about the
/// updates whose items were still in the feed buffer when a probe
/// landed, and a not-modified response only says "nothing new since the
/// last successful fetch".
struct ProbeObservation {
  ResourceId resource = 0;
  Chronon probed_at = 0;
  /// Whether the probe attempt succeeded (failed probes deliver no
  /// evidence beyond their timestamp).
  bool success = false;
  /// The probe returned 304-not-modified (success, no new items).
  bool not_modified = false;
  /// Publication chronons of the *new* items this probe delivered,
  /// ascending. Derived from the items' published timestamps via
  /// ChrononClock by the caller.
  std::vector<Chronon> update_chronons;
};

/// Knobs of the closed-loop estimator.
struct EstimationOptions {
  /// Half-life (chronons) of the per-resource DecayingRateTracker.
  double half_life = 32.0;
  /// Below this events-per-chronon rate a pattern-less resource is
  /// predicted silent (mirrors ForecasterOptions::min_rate).
  double min_rate = 1e-4;
  /// Periodic-pattern detection knobs (shared with the offline path).
  PeriodicDetectorOptions periodic;
};

/// Deterministic counters of one estimation session (a base of
/// ProxyRunReport; all zero under the oracle knowledge model).
struct EstimationStats {
  /// Probe outcomes ingested (successes and failures).
  std::size_t estimation_probes_observed = 0;
  /// Distinct update events learned from item diffs.
  std::size_t estimation_update_events = 0;
  /// 304-not-modified responses observed (censored negatives).
  std::size_t estimation_not_modified = 0;
  /// Item timestamps skipped because the event was already known (feed
  /// buffers overlap across probes).
  std::size_t estimation_duplicate_events = 0;

  bool operator==(const EstimationStats& other) const = default;
};

/// The closed-loop, per-resource online update model (DESIGN.md
/// section 17). Feed it ProbeObservations as the proxy issues probes;
/// it maintains a DecayingRateTracker plus periodic-pattern state per
/// resource and answers deterministic event forecasts that the
/// adaptive runner turns into predicted execution intervals.
///
/// Everything here is a pure function of the ingested observation
/// sequence — no RNG, no wall clock — so runs are bit-identical across
/// repeats and thread counts as long as observations are ingested in
/// the canonical serial attempt order.
class EstimationSession {
 public:
  EstimationSession(int num_resources, Chronon epoch_length,
                    EstimationOptions options = EstimationOptions{});

  /// Ingests one probe outcome. Observations must arrive in
  /// non-decreasing probed_at order per resource (the serial control
  /// pass guarantees it); update chronons already known are dropped.
  void Ingest(const ProbeObservation& observation);

  /// Predicted update chronons of `resource` within [from, to), in
  /// ascending order. Uses the detected periodic grid when one exists,
  /// else deterministic rate-spaced events from the decaying tracker;
  /// resources whose rate sits below min_rate are predicted silent.
  std::vector<Chronon> PredictEvents(ResourceId resource, Chronon from,
                                     Chronon to) const;

  /// Current events-per-chronon estimate of `resource` as of `now`.
  double RateAt(ResourceId resource, Chronon now) const;

  /// Last chronon a probe of `resource` was ingested; -1 when never
  /// probed (the explore scorer routes epsilon probes to the coldest).
  Chronon LastProbe(ResourceId resource) const;

  /// The detected pattern of `resource`, if any.
  const std::optional<PeriodicPattern>& PatternFor(
      ResourceId resource) const;

  /// Resources currently carrying a detected periodic pattern.
  std::size_t PeriodicResources() const { return periodic_resources_; }

  const EstimationStats& stats() const { return stats_; }
  int num_resources() const;
  Chronon epoch_length() const { return epoch_length_; }

 private:
  struct ResourceModel {
    DecayingRateTracker tracker;
    /// Distinct observed update chronons, ascending.
    std::vector<Chronon> events;
    Chronon last_event = -1;
    Chronon last_probe = -1;
    std::optional<PeriodicPattern> pattern;

    explicit ResourceModel(double half_life) : tracker(half_life) {}
  };

  Chronon epoch_length_;
  EstimationOptions options_;
  std::vector<ResourceModel> models_;
  EstimationStats stats_;
  std::size_t periodic_resources_ = 0;
};

}  // namespace pullmon

#endif  // PULLMON_ESTIMATION_ESTIMATION_SESSION_H_
