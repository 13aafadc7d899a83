#ifndef PULLMON_TRACE_UPDATE_TRACE_H_
#define PULLMON_TRACE_UPDATE_TRACE_H_

#include <cstddef>
#include <vector>

#include "core/chronon.h"
#include "util/status.h"

namespace pullmon {

/// Read only by perfbench/; removed once perfbench/ stops naming it.
enum class TraceBackend { kInMemory };

/// A single update event: resource r_i changed state at chronon t.
struct UpdateEvent {
  ResourceId resource = 0;
  Chronon chronon = 0;

  bool operator==(const UpdateEvent& other) const = default;
};

/// A trace of update events over an epoch: the raw volatile-source
/// activity from which execution intervals are derived (Section 5.1).
/// Events are stored per resource in ascending chronon order with at most
/// one event per (resource, chronon) — a chronon is indivisible, so
/// multiple updates within one collapse.
class UpdateTrace {
 public:
  UpdateTrace(int num_resources, Chronon epoch_length);

  int num_resources() const { return num_resources_; }
  Chronon epoch_length() const { return epoch_length_; }

  /// Records an update; duplicates are collapsed. OutOfRange /
  /// InvalidArgument on events outside the epoch or resource range.
  Status AddEvent(ResourceId resource, Chronon t);

  /// Ascending update chronons of one resource.
  const std::vector<Chronon>& EventsFor(ResourceId resource) const;

  /// Total number of events across resources.
  std::size_t TotalEvents() const { return total_events_; }

  /// Average events per resource (the lambda actually realized).
  double MeanIntensity() const;

  /// All events flattened, ordered by (chronon, resource) — the order a
  /// live monitor would observe them.
  std::vector<UpdateEvent> ChronologicalEvents() const;

 private:
  int num_resources_;
  Chronon epoch_length_;
  std::size_t total_events_ = 0;
  std::vector<std::vector<Chronon>> events_by_resource_;
};

}  // namespace pullmon

#endif  // PULLMON_TRACE_UPDATE_TRACE_H_
