#ifndef PULLMON_TRACE_PERTURB_H_
#define PULLMON_TRACE_PERTURB_H_

#include "trace/update_trace.h"
#include "util/random.h"
#include "util/status.h"

namespace pullmon {

/// Degradations applied to a true update trace to model an *estimated*
/// update process. The paper's evaluation assumes the FPN(1) model —
/// perfect knowledge of the update trace ([14]); real proxies predict
/// updates from history and err in three ways, each modeled here:
struct TracePerturbationOptions {
  /// Gaussian time error (in chronons) added to each predicted event.
  double jitter_stddev = 0.0;
  /// Probability that a true update is missed entirely.
  double miss_probability = 0.0;
  /// Expected number of spurious (false-positive) predicted events per
  /// resource, placed uniformly over the epoch.
  double spurious_rate = 0.0;
};

/// Produces the estimated trace a predictor with the given error profile
/// would emit for `truth`. Jittered events are clamped to the epoch and
/// collapsed per chronon like any trace. Deterministic given `rng`.
Result<UpdateTrace> PerturbTrace(const UpdateTrace& truth,
                                 const TracePerturbationOptions& options,
                                 Rng* rng);

}  // namespace pullmon

#endif  // PULLMON_TRACE_PERTURB_H_
