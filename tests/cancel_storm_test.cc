// Cancel-storm regression for the deadline-heap compaction (churn
// residual of ISSUE 6, closed by ISSUE 7): a client hammering
// cancellations against a resource the policy never queries used to
// park one corpse per cancelled EI in that resource's deadline heap
// for the rest of the epoch — EarliestDeadline()'s lazy pops only
// clean the top, and a never-queried resource never pops. The suite
// asserts the heap stays bounded by the live population through a
// storm, that capture sweeps compact outright, and that compaction is
// decision-invisible (CheckInvariants after every phase plus a
// selection differential against a freshly built index and the
// DynamicMonitor rebuild oracle).

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

/// The compaction guarantee at a public-API boundary: corpses never
/// exceed max(kHeapCompactionMinCorpses, 2 * live).
void ExpectHeapBounded(const CandidateIndex& index, ResourceId r) {
  const int live = index.LiveCount(r);
  const int corpse_cap =
      std::max(CandidateIndex::kHeapCompactionMinCorpses, 2 * live);
  EXPECT_LE(index.DeadlineHeapCorpses(r), corpse_cap)
      << "resource " << r << " live " << live << " heap "
      << index.DeadlineHeapSize(r);
}

TEST(CancelStormTest, StormAgainstNeverQueriedResourceStaysBounded) {
  constexpr int kEis = 5000;
  constexpr Chronon kEpoch = 100;
  CandidateIndex index(1, kEpoch);
  Rng rng(0xCA11ED);

  std::vector<int> ids;
  ids.reserve(kEis);
  for (int i = 0; i < kEis; ++i) {
    ExecutionInterval ei;
    ei.resource = 0;
    ei.start = 0;
    ei.finish = static_cast<Chronon>(rng.NextInt(0, kEpoch - 1));
    ids.push_back(index.AddEi(ei, /*t_id=*/i, /*ei_index=*/0));
  }
  index.ActivateArrivals(0, [](int) { return true; });
  ASSERT_EQ(index.LiveCount(0), kEis);
  ASSERT_EQ(index.DeadlineHeapSize(0), static_cast<std::size_t>(kEis));

  // The storm: cancel all but a handful in random order. The resource
  // is never queried (no EarliestDeadline calls), so lazy pops never
  // run — only MaybeCompactHeap stands between the heap and kEis
  // corpses.
  std::vector<int> order = ids;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1],
              order[static_cast<std::size_t>(rng.NextInt(
                  0, static_cast<int>(i) - 1))]);
  }
  constexpr int kSurvivors = 10;
  for (std::size_t i = 0; i + kSurvivors < order.size(); ++i) {
    index.Deactivate(order[i]);
    ExpectHeapBounded(index, 0);
    if (i % 500 == 0) {
      Status audit = index.CheckInvariants();
      ASSERT_TRUE(audit.ok()) << audit.ToString();
    }
  }
  Status audit = index.CheckInvariants();
  ASSERT_TRUE(audit.ok()) << audit.ToString();
  EXPECT_EQ(index.LiveCount(0), kSurvivors);
  // After ~4990 cancellations the heap holds the survivors plus at
  // most max(64, 2 * 10) corpses — not thousands.
  EXPECT_LE(index.DeadlineHeapSize(0),
            static_cast<std::size_t>(
                kSurvivors + CandidateIndex::kHeapCompactionMinCorpses));

  // The compacted heap still answers correctly: brute-force earliest
  // deadline over the survivors.
  Chronon expected = -1;
  for (std::size_t i = order.size() - kSurvivors; i < order.size(); ++i) {
    const IndexedEi& flat = index.at(order[i]);
    if (expected < 0 || flat.ei.finish < expected) expected = flat.ei.finish;
  }
  EXPECT_EQ(index.EarliestDeadline(0), expected);
}

TEST(CancelStormTest, CaptureSweepCompactsOutright) {
  constexpr int kEis = 1000;
  CandidateIndex index(1, 10);
  for (int i = 0; i < kEis; ++i) {
    ExecutionInterval ei;
    ei.resource = 0;
    ei.start = 0;
    ei.finish = 9;
    index.AddEi(ei, i, 0);
  }
  index.ActivateArrivals(0, [](int) { return true; });
  ASSERT_EQ(index.DeadlineHeapSize(0), static_cast<std::size_t>(kEis));

  int captured = 0;
  index.CaptureResource(0, [&](int, const IndexedEi&) { ++captured; });
  EXPECT_EQ(captured, kEis);
  // Zero live candidates, kEis corpses: the capture-path compaction
  // empties the heap on the spot.
  EXPECT_EQ(index.DeadlineHeapSize(0), 0u);
  EXPECT_EQ(index.LiveCount(0), 0);
  Status audit = index.CheckInvariants();
  ASSERT_TRUE(audit.ok()) << audit.ToString();
}

TEST(CancelStormTest, CompactionIsDecisionInvisible) {
  // Storm a multi-resource index, then compare its per-chronon
  // selection output and urgency counters against a fresh index built
  // from only the surviving EIs: compaction must not change a single
  // decision input.
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
  stormed.ActivateArrivals(0, [](int) { return true; });

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
  fresh.ActivateArrivals(0, [](int) { return true; });

  for (ResourceId r = 0; r < kResources; ++r) {
    EXPECT_EQ(stormed.LiveCount(r), fresh.LiveCount(r)) << "resource " << r;
    EXPECT_EQ(stormed.EarliestDeadline(r), fresh.EarliestDeadline(r))
        << "resource " << r;
    ExpectHeapBounded(stormed, r);
  }

  // Selection differential. The scorer keys on EI content only, so the
  // two indexes' flat-id tie-breaks resolve to the same EI (survivors
  // registered in the same relative order).
  auto scorer = [](const IndexedEi& flat) {
    return std::make_pair(0, static_cast<double>(flat.ei.finish));
  };
  std::vector<ResourceCandidate> from_stormed;
  std::vector<ResourceCandidate> from_fresh;
  stormed.CollectResourceCandidates(0, scorer, &from_stormed);
  fresh.CollectResourceCandidates(0, scorer, &from_fresh);
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
