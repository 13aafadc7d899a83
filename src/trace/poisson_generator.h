#ifndef PULLMON_TRACE_POISSON_GENERATOR_H_
#define PULLMON_TRACE_POISSON_GENERATOR_H_

#include "trace/update_trace.h"
#include "util/random.h"
#include "util/status.h"

namespace pullmon {

/// Parameters of the synthetic Poisson(lambda) update model of
/// Section 5.1: lambda is the *average number of updates per resource
/// over the whole epoch* (the paper's "average updates intensity per
/// resource"; e.g. lambda = 20 or 50 in Figure 5).
struct PoissonTraceOptions {
  int num_resources = 0;
  Chronon epoch_length = 0;
  double lambda = 0.0;
  /// When > 0, per-resource intensities are heterogeneous: resource i's
  /// intensity is drawn log-normally around `lambda` with this sigma,
  /// modelling mixed-activity sources. 0 keeps all resources at lambda.
  double heterogeneity = 0.0;
};

/// Draws a trace: for each resource a Poisson(lambda_i) number of events
/// placed uniformly over the epoch (equivalently, a homogeneous Poisson
/// process conditioned on its count), collapsed to one event per chronon.
Result<UpdateTrace> GeneratePoissonTrace(const PoissonTraceOptions& options,
                                         Rng* rng);

}  // namespace pullmon

#endif  // PULLMON_TRACE_POISSON_GENERATOR_H_
