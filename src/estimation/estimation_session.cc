#include "estimation/estimation_session.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace pullmon {

EstimationSession::EstimationSession(int num_resources,
                                     Chronon epoch_length,
                                     EstimationOptions options)
    : epoch_length_(epoch_length), options_(options) {
  assert(num_resources >= 0);
  assert(options.half_life > 0.0);
  models_.reserve(static_cast<std::size_t>(num_resources));
  for (int r = 0; r < num_resources; ++r) {
    models_.emplace_back(options.half_life);
  }
}

int EstimationSession::num_resources() const {
  return static_cast<int>(models_.size());
}

void EstimationSession::Ingest(const ProbeObservation& observation) {
  assert(observation.resource >= 0 &&
         observation.resource < num_resources());
  ResourceModel& model =
      models_[static_cast<std::size_t>(observation.resource)];
  ++stats_.estimation_probes_observed;
  model.last_probe = std::max(model.last_probe, observation.probed_at);
  if (!observation.success) return;
  if (observation.not_modified) {
    // Censored negative evidence: no update since the last successful
    // fetch. The decaying tracker already encodes it — silence lowers
    // RateAt as time passes without Observe() calls.
    ++stats_.estimation_not_modified;
    return;
  }
  bool learned = false;
  for (Chronon u : observation.update_chronons) {
    if (u <= model.last_event) {
      // Feed buffers overlap across probes; the event is already known.
      ++stats_.estimation_duplicate_events;
      continue;
    }
    model.events.push_back(u);
    model.last_event = u;
    model.tracker.Observe(u);
    ++stats_.estimation_update_events;
    learned = true;
  }
  if (!learned) return;
  // Refresh the periodic hypothesis from everything observed so far.
  // Detection runs on the censored event list, so a pattern only
  // emerges once probe coverage has revealed enough of the grid.
  bool had = model.pattern.has_value();
  model.pattern = DetectPeriodicPattern(model.events, options_.periodic);
  if (model.pattern.has_value() != had) {
    periodic_resources_ += model.pattern.has_value() ? 1 : -1;
  }
}

std::vector<Chronon> EstimationSession::PredictEvents(ResourceId resource,
                                                      Chronon from,
                                                      Chronon to) const {
  std::vector<Chronon> predicted;
  if (resource < 0 || resource >= num_resources() || from >= to) {
    return predicted;
  }
  const ResourceModel& model =
      models_[static_cast<std::size_t>(resource)];
  if (model.pattern.has_value()) {
    // Continue the detected grid through the horizon.
    const Chronon period = model.pattern->period;
    const Chronon phase = model.pattern->phase;
    Chronon first = phase;
    if (first < from) {
      first += ((from - phase) + period - 1) / period * period;
    }
    for (Chronon t = first; t < to; t += period) {
      predicted.push_back(t);
    }
    return predicted;
  }
  // No pattern: deterministic rate-spaced events anchored at the last
  // observed update (a uniform-intensity stand-in for the Poisson
  // fallback that keeps runs bit-identical — no RNG draw).
  const double rate = model.tracker.RateAt(from);
  if (rate < options_.min_rate) return predicted;
  const Chronon spacing = std::max<Chronon>(
      1, static_cast<Chronon>(std::lround(1.0 / rate)));
  Chronon t = model.last_event >= 0 ? model.last_event + spacing : from;
  if (t < from) t += (from - t + spacing - 1) / spacing * spacing;
  for (; t < to; t += spacing) {
    predicted.push_back(t);
  }
  return predicted;
}

double EstimationSession::RateAt(ResourceId resource, Chronon now) const {
  if (resource < 0 || resource >= num_resources()) return 0.0;
  return models_[static_cast<std::size_t>(resource)].tracker.RateAt(now);
}

Chronon EstimationSession::LastProbe(ResourceId resource) const {
  if (resource < 0 || resource >= num_resources()) return -1;
  return models_[static_cast<std::size_t>(resource)].last_probe;
}

const std::optional<PeriodicPattern>& EstimationSession::PatternFor(
    ResourceId resource) const {
  assert(resource >= 0 && resource < num_resources());
  return models_[static_cast<std::size_t>(resource)].pattern;
}

}  // namespace pullmon
