#ifndef PULLMON_PULLMON_H_
#define PULLMON_PULLMON_H_

/// \file
/// Umbrella header: the full public API of the pullmon library —
/// pull-based online monitoring of volatile data sources (reproduction
/// of Roitman, Gal & Raschid, ICDE 2008). Include individual module
/// headers instead when compile time matters.

#define PULLMON_VERSION_MAJOR 1
#define PULLMON_VERSION_MINOR 0
#define PULLMON_VERSION_PATCH 0
#define PULLMON_VERSION_STRING "1.0.0"

// Core model and execution.
#include "core/chronon.h"              // IWYU pragma: export
#include "core/completeness.h"         // IWYU pragma: export
#include "core/dynamic_monitor.h"      // IWYU pragma: export
#include "core/execution_interval.h"   // IWYU pragma: export
#include "core/online_executor.h"      // IWYU pragma: export
#include "core/overlap_analysis.h"     // IWYU pragma: export
#include "core/policy.h"               // IWYU pragma: export
#include "core/problem.h"              // IWYU pragma: export
#include "core/profile.h"              // IWYU pragma: export
#include "core/schedule.h"             // IWYU pragma: export
#include "core/schedule_io.h"          // IWYU pragma: export
#include "core/t_interval.h"           // IWYU pragma: export

// Online policies.
#include "policies/baselines.h"        // IWYU pragma: export
#include "policies/m_edf.h"            // IWYU pragma: export
#include "policies/mrsf.h"             // IWYU pragma: export
#include "policies/policy_factory.h"   // IWYU pragma: export
#include "policies/s_edf.h"            // IWYU pragma: export
#include "policies/weighted.h"         // IWYU pragma: export

// Offline solvers.
#include "offline/exact_solver.h"      // IWYU pragma: export
#include "offline/greedy_offline.h"    // IWYU pragma: export
#include "offline/incremental_edf.h"   // IWYU pragma: export
#include "offline/local_ratio.h"       // IWYU pragma: export
#include "offline/probe_assignment.h"  // IWYU pragma: export
#include "offline/simplex.h"           // IWYU pragma: export
#include "offline/transform.h"         // IWYU pragma: export

// Update traces, generators, estimation.
#include "estimation/forecaster.h"         // IWYU pragma: export
#include "estimation/periodic_detector.h"  // IWYU pragma: export
#include "estimation/rate_estimator.h"     // IWYU pragma: export
#include "trace/auction_generator.h"       // IWYU pragma: export
#include "trace/feed_workload.h"           // IWYU pragma: export
#include "trace/perturb.h"                 // IWYU pragma: export
#include "trace/poisson_generator.h"       // IWYU pragma: export
#include "trace/trace_io.h"                // IWYU pragma: export
#include "trace/update_model.h"            // IWYU pragma: export
#include "trace/update_trace.h"            // IWYU pragma: export

// Web feed substrate.
#include "feeds/atom.h"             // IWYU pragma: export
#include "feeds/ebay_feed.h"        // IWYU pragma: export
#include "feeds/fault_injection.h"  // IWYU pragma: export
#include "feeds/feed_item.h"        // IWYU pragma: export
#include "feeds/feed_server.h"      // IWYU pragma: export
#include "feeds/parse_cache.h"      // IWYU pragma: export
#include "feeds/rss.h"              // IWYU pragma: export
#include "feeds/xml.h"              // IWYU pragma: export

// Profile generation and simulation harness.
#include "profilegen/auction_watch.h"      // IWYU pragma: export
#include "profilegen/profile_generator.h"  // IWYU pragma: export
#include "sim/churn.h"                     // IWYU pragma: export
#include "sim/config.h"                    // IWYU pragma: export
#include "sim/experiment.h"                // IWYU pragma: export
#include "sim/proxy.h"                     // IWYU pragma: export
#include "sim/report.h"                    // IWYU pragma: export

// Utilities.
#include "util/arena.h"          // IWYU pragma: export
#include "util/csv.h"            // IWYU pragma: export
#include "util/datetime.h"       // IWYU pragma: export
#include "util/flags.h"          // IWYU pragma: export
#include "util/hash.h"           // IWYU pragma: export
#include "util/logging.h"        // IWYU pragma: export
#include "util/random.h"         // IWYU pragma: export
#include "util/stats.h"          // IWYU pragma: export
#include "util/status.h"         // IWYU pragma: export
#include "util/string_util.h"    // IWYU pragma: export
#include "util/table_printer.h"  // IWYU pragma: export
#include "util/zipf.h"           // IWYU pragma: export

#endif  // PULLMON_PULLMON_H_
