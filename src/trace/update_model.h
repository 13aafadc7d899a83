#ifndef PULLMON_TRACE_UPDATE_MODEL_H_
#define PULLMON_TRACE_UPDATE_MODEL_H_

#include <vector>

#include "core/execution_interval.h"
#include "trace/update_trace.h"

namespace pullmon {

/// Data delivery restrictions (Section 5.1) that determine the length of
/// the execution interval opened by each update event.
enum class LengthRestriction {
  /// Overwrite: the update must be delivered before the next update to
  /// the same resource overwrites it — EI = [u_i, u_{i+1} - 1] (the last
  /// update's EI extends to the end of the epoch). Models a preference
  /// for data completeness.
  kOverwrite,
  /// Window(W): the update must be delivered within W chronons —
  /// EI = [u, min(u + W, K-1)]. W = 0 yields unit-width EIs (P^[1]).
  /// Models tolerance to staleness.
  kWindow,
};

const char* LengthRestrictionToString(LengthRestriction restriction);

struct EiDerivationOptions {
  LengthRestriction restriction = LengthRestriction::kWindow;
  /// W for LengthRestriction::kWindow; ignored for kOverwrite.
  Chronon window = 0;
};

/// FPN(1) update model ([14] via Section 5.1): assumes perfect knowledge
/// of the real update trace, so every update event deterministically
/// opens one execution interval on its resource per the restriction.
/// Returned EIs are in ascending start order.
std::vector<ExecutionInterval> DeriveExecutionIntervals(
    const UpdateTrace& trace, ResourceId resource,
    const EiDerivationOptions& options);

/// Derivation from a resource's raw ascending update chronons (the
/// estimator derives predicted EIs from forecast chronons this way).
std::vector<ExecutionInterval> DeriveExecutionIntervalsFromEvents(
    const std::vector<Chronon>& updates, ResourceId resource,
    Chronon epoch_length, const EiDerivationOptions& options);

/// Derivation over all resources, concatenated in resource order.
std::vector<ExecutionInterval> DeriveAllExecutionIntervals(
    const UpdateTrace& trace, const EiDerivationOptions& options);

}  // namespace pullmon

#endif  // PULLMON_TRACE_UPDATE_MODEL_H_
