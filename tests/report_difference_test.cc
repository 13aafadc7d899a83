// ReportDifference is the one equality check every report suite and
// bench uses, so it must see a change in any block or loose field of a
// ProxyRunReport, name it, and skip exactly the blocks its options say.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "sim/proxy.h"

namespace pullmon {
namespace {

/// A report with every compared block and field non-zero.
ProxyRunReport RichReport() {
  ProxyRunReport r;
  r.run.schedule = Schedule(4);
  EXPECT_TRUE(r.run.schedule.AddProbe(1, 0).ok());
  EXPECT_TRUE(r.run.schedule.AddProbe(3, 2).ok());
  r.run.completeness.captured_t_intervals = 3;
  r.run.completeness.total_t_intervals = 5;
  r.run.elapsed_seconds = 0.25;
  r.run.probes_used = 9;
  r.run.max_concurrent_candidates = 4;
  r.run.t_intervals_completed = 3;
  r.run.t_intervals_failed = 2;
  r.run.circuits_opened = 1;
  r.run.open_chronons_by_resource = {0, 2, 0, 1};
  r.feeds_fetched = 9;
  r.timeouts = 2;
  r.probes_failed = 2;
  r.retries_issued = 1;
  r.retry_probes_spent = 1;
  r.etag_invalidations = 1;
  r.gc_lost_to_faults = 0.2;
  r.circuits_opened = 1;
  r.parse_cache_hits = 3;
  r.churn_submitted = 4;
  r.recovery_snapshots_written = 2;
  r.estimation_probes_observed = 9;
  r.estimation_explore_probes = 2;
  return r;
}

struct Mutation {
  /// What ReportDifference must answer for the mutated copy.
  std::string name;
  std::function<void(ProxyRunReport*)> apply;
};

/// One change per block and per loose field of the report.
std::vector<Mutation> Mutations() {
  return {
      {"run.schedule at chronon 3",
       [](ProxyRunReport* r) {
         ASSERT_TRUE(r->run.schedule.AddProbe(0, 3).ok());
       }},
      {"run.schedule length",
       [](ProxyRunReport* r) {
         Schedule longer(5);
         ASSERT_TRUE(longer.AddProbe(1, 0).ok());
         ASSERT_TRUE(longer.AddProbe(3, 2).ok());
         r->run.schedule = longer;
       }},
      {"run.completeness",
       [](ProxyRunReport* r) { ++r->run.completeness.captured_t_intervals; }},
      {"run.ProbeStats",
       [](ProxyRunReport* r) { ++r->run.max_concurrent_candidates; }},
      {"run.t_intervals_completed",
       [](ProxyRunReport* r) { ++r->run.t_intervals_completed; }},
      {"run.t_intervals_failed",
       [](ProxyRunReport* r) { ++r->run.t_intervals_failed; }},
      {"run.HealthStats",
       [](ProxyRunReport* r) { ++r->run.probation_successes; }},
      {"run.open_chronons_by_resource",
       [](ProxyRunReport* r) { ++r->run.open_chronons_by_resource[1]; }},
      {"LiveReportCounters",
       [](ProxyRunReport* r) { ++r->churn_rejected_ops; }},
      {"probes_failed", [](ProxyRunReport* r) { ++r->probes_failed; }},
      {"corrupt_bodies", [](ProxyRunReport* r) { ++r->corrupt_bodies; }},
      {"retries_issued", [](ProxyRunReport* r) { ++r->retries_issued; }},
      {"retry_probes_spent",
       [](ProxyRunReport* r) { ++r->retry_probes_spent; }},
      {"gc_lost_to_faults",
       [](ProxyRunReport* r) { r->gc_lost_to_faults += 0.1; }},
      {"FaultStats", [](ProxyRunReport* r) { ++r->timeouts; }},
      {"FaultStats", [](ProxyRunReport* r) { ++r->server_errors; }},
      {"FaultStats", [](ProxyRunReport* r) { ++r->outage_probes; }},
      {"FaultStats", [](ProxyRunReport* r) { ++r->etag_invalidations; }},
      {"FaultStats", [](ProxyRunReport* r) { r->latency_max += 0.5; }},
      {"HealthStats", [](ProxyRunReport* r) { ++r->open_chronons_total; }},
      {"ParseCacheStats",
       [](ProxyRunReport* r) { ++r->parse_cache_bytes_saved; }},
      {"ChurnStats", [](ProxyRunReport* r) { ++r->orphaned_probes; }},
      {"EstimationStats",
       [](ProxyRunReport* r) { ++r->estimation_duplicate_events; }},
      {"AdaptiveRunStats",
       [](ProxyRunReport* r) { ++r->estimation_predicted_eis; }},
  };
}

TEST(ReportDifferenceTest, EqualReportsHaveNoDifference) {
  EXPECT_EQ(ReportDifference(RichReport(), RichReport()), "");
}

TEST(ReportDifferenceTest, NamesTheChangedBlockOrField) {
  const ProxyRunReport rich = RichReport();
  for (const Mutation& m : Mutations()) {
    ProxyRunReport copy = rich;
    m.apply(&copy);
    EXPECT_EQ(ReportDifference(rich, copy), m.name);
    EXPECT_EQ(ReportDifference(copy, rich), m.name);
  }
}

TEST(ReportDifferenceTest, TimingRecoveryAndCompatFieldsAreNotCompared) {
  const ProxyRunReport rich = RichReport();
  ProxyRunReport copy = rich;
  copy.run.elapsed_seconds += 1.0;
  copy.shard_count = 1;
  copy.shard_merge_entries = 1;
  copy.recovery_snapshots_written = 0;
  copy.recovery_snapshots_loaded = 1;
  copy.recovery_snapshots_rejected = 2;
  copy.recovery_wal_records_logged = 3;
  copy.recovery_wal_records_replayed = 4;
  copy.recovery_torn_tail_truncated = 5;
  EXPECT_EQ(ReportDifference(rich, copy), "");
}

TEST(ReportDifferenceTest, SkipTogglesSkipOnlyTheirBlock) {
  const ProxyRunReport rich = RichReport();
  const struct {
    ReportEqualityOptions options;
    std::string skipped_prefix;
  } toggles[] = {
      {{.parse_cache_stats = false}, "ParseCacheStats"},
  };
  for (const auto& toggle : toggles) {
    for (const Mutation& m : Mutations()) {
      ProxyRunReport copy = rich;
      m.apply(&copy);
      const bool skipped = m.name.rfind(toggle.skipped_prefix, 0) == 0;
      EXPECT_EQ(ReportDifference(rich, copy, toggle.options),
                skipped ? "" : m.name)
          << "skipping " << toggle.skipped_prefix;
    }
  }
}

}  // namespace
}  // namespace pullmon
