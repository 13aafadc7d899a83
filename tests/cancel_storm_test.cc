// Cancel-storm regression for the candidate index's lazy deletes: a
// client hammering cancellations marks EIs dead without touching the
// live lists, which the next selection pass compacts. The suite checks
// that those deletes are decision-invisible (CheckInvariants after the
// storm plus a selection differential against a freshly built index
// and the DynamicMonitor rebuild oracle).

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/candidate_index.h"
#include "core/dynamic_monitor.h"
#include "policies/s_edf.h"
#include "util/random.h"

namespace pullmon {
namespace {

TEST(CancelStormTest, CompactionIsDecisionInvisible) {
  // Storm a multi-resource index, then compare its per-chronon
  // selection output against a fresh index built from only the
  // surviving EIs: lazy deletion must not change a single decision
  // input.
  constexpr int kResources = 8;
  constexpr Chronon kEpoch = 50;
  constexpr int kEis = 2000;
  Rng rng(0xDEC1DE);

  CandidateIndex stormed(kResources, kEpoch);
  std::vector<ExecutionInterval> eis;
  std::vector<int> flat_ids;
  for (int i = 0; i < kEis; ++i) {
    ExecutionInterval ei;
    ei.resource = static_cast<ResourceId>(rng.NextInt(0, kResources - 1));
    ei.start = 0;
    ei.finish = static_cast<Chronon>(rng.NextInt(0, kEpoch - 1));
    eis.push_back(ei);
    flat_ids.push_back(stormed.AddEi(ei, i, 0));
  }
  stormed.ActivateArrivals(0);

  std::vector<bool> alive(kEis, true);
  for (int i = 0; i < kEis; ++i) {
    if (rng.NextInt(0, 9) < 8) {  // cancel 80%
      stormed.Deactivate(flat_ids[static_cast<std::size_t>(i)]);
      alive[static_cast<std::size_t>(i)] = false;
    }
  }
  Status audit = stormed.CheckInvariants();
  ASSERT_TRUE(audit.ok()) << audit.ToString();

  CandidateIndex fresh(kResources, kEpoch);
  for (int i = 0; i < kEis; ++i) {
    if (!alive[static_cast<std::size_t>(i)]) continue;
    fresh.AddEi(eis[static_cast<std::size_t>(i)], i, 0);
  }
  fresh.ActivateArrivals(0);

  // Selection differential. The scorer keys on EI content only, so the
  // two indexes' flat-id tie-breaks resolve to the same EI (survivors
  // registered in the same relative order).
  auto scorer = [](const IndexedEi& flat) {
    return std::make_pair(0, static_cast<double>(flat.ei.finish));
  };
  auto never_suppressed = [](ResourceId) { return false; };
  auto no_telemetry = [](ResourceId, int) {};
  std::vector<ResourceCandidate> from_stormed;
  std::vector<ResourceCandidate> from_fresh;
  stormed.CollectResourceCandidates(scorer, never_suppressed, no_telemetry,
                                    &from_stormed);
  fresh.CollectResourceCandidates(scorer, never_suppressed, no_telemetry,
                                  &from_fresh);
  auto by_resource = [](const ResourceCandidate& a,
                        const ResourceCandidate& b) {
    return a.resource < b.resource;
  };
  std::sort(from_stormed.begin(), from_stormed.end(), by_resource);
  std::sort(from_fresh.begin(), from_fresh.end(), by_resource);
  ASSERT_EQ(from_stormed.size(), from_fresh.size());
  for (std::size_t i = 0; i < from_stormed.size(); ++i) {
    EXPECT_EQ(from_stormed[i].resource, from_fresh[i].resource);
    EXPECT_EQ(from_stormed[i].np_class, from_fresh[i].np_class);
    EXPECT_EQ(from_stormed[i].score, from_fresh[i].score);
    EXPECT_EQ(from_stormed[i].deadline, from_fresh[i].deadline);
  }
}

TEST(CancelStormTest, MonitorStormMatchesRebuildOracle) {
  // End-to-end: a DynamicMonitor absorbing a cancel storm with the
  // incremental index (compaction active) must produce the exact
  // probe-for-probe schedule of the from-scratch rebuild oracle.
  constexpr int kResources = 4;
  constexpr Chronon kEpoch = 20;
  auto run = [&](MonitorIndexMode maintenance) {
    SEdfPolicy policy;
    MonitorOptions options;
    options.maintenance = maintenance;
    DynamicMonitor monitor(kResources, kEpoch,
                           BudgetVector::Uniform(2, kEpoch), &policy,
                           ExecutionMode::kPreemptive, options);
    ProfileId client = monitor.RegisterProfile("storm");
    Rng rng(0x570B);
    std::vector<int> live_subs;
    for (Chronon t = 0; t < kEpoch; ++t) {
      for (int i = 0; i < 12; ++i) {
        ExecutionInterval ei;
        ei.resource = static_cast<ResourceId>(rng.NextInt(0, kResources - 1));
        ei.start = static_cast<Chronon>(rng.NextInt(t, kEpoch - 1));
        ei.finish = static_cast<Chronon>(rng.NextInt(
            ei.start, std::min<Chronon>(ei.start + 6, kEpoch - 1)));
        auto sub = monitor.Submit(client, TInterval({ei}));
        EXPECT_TRUE(sub.ok()) << sub.status().ToString();
        if (sub.ok()) live_subs.push_back(*sub);
      }
      // Storm: cancel ~ten submissions per chronon, newest first (the
      // never-probed pattern — most never reach a selection pass).
      for (int i = 0; i < 10 && !live_subs.empty(); ++i) {
        std::size_t pick = static_cast<std::size_t>(rng.NextInt(
            0, static_cast<int>(live_subs.size()) - 1));
        (void)monitor.Cancel(client, live_subs[pick]);
        live_subs.erase(live_subs.begin() +
                        static_cast<std::ptrdiff_t>(pick));
      }
      Status audit = monitor.CheckInvariants();
      EXPECT_TRUE(audit.ok()) << audit.ToString();
      auto step = monitor.Step();
      EXPECT_TRUE(step.ok()) << step.status().ToString();
    }
    return std::make_tuple(monitor.schedule().ToString(),
                           monitor.Completeness().GainedCompleteness(),
                           monitor.churn_stats().churn_cancelled,
                           monitor.t_intervals_completed());
  };
  auto incremental = run(MonitorIndexMode::kIncremental);
  auto rebuild = run(MonitorIndexMode::kRebuild);
  EXPECT_EQ(std::get<0>(incremental), std::get<0>(rebuild));
  EXPECT_EQ(std::get<1>(incremental), std::get<1>(rebuild));
  EXPECT_EQ(std::get<2>(incremental), std::get<2>(rebuild));
  EXPECT_EQ(std::get<3>(incremental), std::get<3>(rebuild));
}

}  // namespace
}  // namespace pullmon
