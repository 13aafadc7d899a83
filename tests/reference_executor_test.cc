// Differential test: a deliberately naive reference implementation of
// the online execution semantics (recompute everything from scratch at
// every chronon, no incremental state) must produce exactly the same
// probe schedule as the optimized OnlineExecutor for every policy, mode
// and seed. Divergence would mean the optimized candidate bookkeeping
// (lazy deletion, per-resource lists, expiry handling) changed the
// semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/online_executor.h"
#include "policies/m_edf.h"
#include "policies/mrsf.h"
#include "policies/s_edf.h"
#include "test_instances.h"
#include "util/random.h"

namespace pullmon {
namespace {

/// Naive executor: O(K * EIs) per chronon, no incremental structures.
Schedule ReferenceRun(const MonitoringProblem& problem, Policy* policy,
                      ExecutionMode mode) {
  policy->Reset();
  struct RefEi {
    ExecutionInterval ei;
    int t_id;
    int ei_index;
    bool captured = false;
  };
  std::vector<TIntervalRuntime> runtimes;
  std::vector<RefEi> eis;
  for (ProfileId pid = 0;
       pid < static_cast<ProfileId>(problem.profiles.size()); ++pid) {
    const Profile& p = problem.profiles[static_cast<std::size_t>(pid)];
    for (const auto& eta : p.t_intervals()) {
      TIntervalRuntime rt;
      rt.profile = pid;
      rt.profile_rank = static_cast<int>(p.rank());
      rt.source = &eta;
      rt.ei_captured.assign(eta.size(), 0);
      int t_id = static_cast<int>(runtimes.size());
      runtimes.push_back(std::move(rt));
      for (std::size_t i = 0; i < eta.eis().size(); ++i) {
        eis.push_back(RefEi{eta.eis()[i], t_id, static_cast<int>(i)});
      }
    }
  }

  Schedule schedule(problem.epoch.length);
  for (Chronon now = 0; now < problem.epoch.length; ++now) {
    // Gather and score every live candidate from scratch.
    struct Cand {
      int flat_id;
      int np_class;
      double score;
      Chronon deadline;
    };
    std::vector<Cand> cands;
    for (int id = 0; id < static_cast<int>(eis.size()); ++id) {
      RefEi& flat = eis[static_cast<std::size_t>(id)];
      TIntervalRuntime& parent =
          runtimes[static_cast<std::size_t>(flat.t_id)];
      if (flat.captured || parent.failed || parent.completed) continue;
      if (!flat.ei.Contains(now)) continue;
      parent.edf = ScanEdfAggregate(parent, now);
      Cand cand;
      cand.flat_id = id;
      cand.np_class = (mode == ExecutionMode::kNonPreemptive &&
                       !parent.selected)
                          ? 1
                          : 0;
      cand.score = policy->Score(flat.ei, parent, flat.ei_index, now);
      cand.deadline = flat.ei.finish;
      cands.push_back(cand);
    }
    std::sort(cands.begin(), cands.end(),
              [](const Cand& a, const Cand& b) {
                if (a.np_class != b.np_class) return a.np_class < b.np_class;
                if (a.score != b.score) return a.score < b.score;
                if (a.deadline != b.deadline) return a.deadline < b.deadline;
                return a.flat_id < b.flat_id;
              });
    int budget = problem.budget.at(now);
    std::vector<ResourceId> probed;
    for (const auto& cand : cands) {
      if (static_cast<int>(probed.size()) >= budget) break;
      const RefEi& flat = eis[static_cast<std::size_t>(cand.flat_id)];
      if (flat.captured) continue;
      if (std::find(probed.begin(), probed.end(), flat.ei.resource) !=
          probed.end()) {
        continue;
      }
      probed.push_back(flat.ei.resource);
      EXPECT_TRUE(schedule.AddProbe(flat.ei.resource, now).ok());
      // Capture every live candidate on this resource.
      for (auto& hit : eis) {
        TIntervalRuntime& parent =
            runtimes[static_cast<std::size_t>(hit.t_id)];
        if (hit.captured || parent.failed || parent.completed) continue;
        if (hit.ei.resource != flat.ei.resource || !hit.ei.Contains(now)) {
          continue;
        }
        hit.captured = true;
        parent.ei_captured[static_cast<std::size_t>(hit.ei_index)] = 1;
        ++parent.num_captured;
        parent.selected = true;
        if (parent.num_captured >= parent.Required()) {
          parent.completed = true;
        }
      }
    }
    // Expiry at end of chronon.
    for (const auto& flat : eis) {
      if (flat.ei.finish != now || flat.captured) continue;
      TIntervalRuntime& parent =
          runtimes[static_cast<std::size_t>(flat.t_id)];
      if (parent.failed || parent.completed) continue;
      ++parent.num_expired;
      if (parent.num_captured + parent.NumAlive() < parent.Required()) {
        parent.failed = true;
      }
    }
  }
  return schedule;
}

class DifferentialTest : public testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         testing::Range<uint64_t>(1, 21));

TEST_P(DifferentialTest, OptimizedExecutorMatchesReference) {
  Rng rng(GetParam() * 2654435761ULL + 17);
  RandomInstanceOptions options;
  options.num_resources = 6;
  options.epoch_length = 25;
  options.num_t_intervals = 18;
  options.max_rank = 3;
  options.max_width = 5;
  options.budget = static_cast<int>(rng.NextInt(1, 3));
  MonitoringProblem problem = MakeRandomInstance(options, &rng, 3);

  SEdfPolicy s_edf;
  MEdfPolicy m_edf;
  MrsfPolicy mrsf;
  for (Policy* policy :
       std::initializer_list<Policy*>{&s_edf, &m_edf, &mrsf}) {
    for (ExecutionMode mode :
         {ExecutionMode::kPreemptive, ExecutionMode::kNonPreemptive}) {
      Schedule reference = ReferenceRun(problem, policy, mode);

      OnlineExecutor executor(&problem, policy, mode);
      auto result = executor.Run();
      ASSERT_TRUE(result.ok());

      // Probe-for-probe identical schedules.
      ASSERT_EQ(result->schedule.TotalProbes(), reference.TotalProbes())
          << policy->name() << " " << ExecutionModeToString(mode);
      for (Chronon t = 0; t < problem.epoch.length; ++t) {
        EXPECT_EQ(result->schedule.ProbesAt(t), reference.ProbesAt(t))
            << policy->name() << " " << ExecutionModeToString(mode)
            << " at t=" << t;
      }
    }
  }
}

TEST_P(DifferentialTest, MatchesReferenceWithAlternativesAndWeights) {
  Rng rng(GetParam() * 40503 + 23);
  RandomInstanceOptions options;
  options.num_resources = 5;
  options.epoch_length = 20;
  options.num_t_intervals = 12;
  options.max_rank = 3;
  options.max_width = 4;
  MonitoringProblem problem = MakeRandomInstance(options, &rng, 2);
  // Randomize weights and required counts.
  for (auto& profile : problem.profiles) {
    std::vector<TInterval> adjusted = profile.t_intervals();
    for (auto& eta : adjusted) {
      eta.set_weight(1.0 + rng.NextDouble() * 4.0);
      eta.set_required(static_cast<std::size_t>(
          rng.NextInt(1, static_cast<int64_t>(eta.size()))));
    }
    profile = Profile(std::move(adjusted));
  }

  MrsfPolicy mrsf;
  Schedule reference =
      ReferenceRun(problem, &mrsf, ExecutionMode::kPreemptive);
  OnlineExecutor executor(&problem, &mrsf, ExecutionMode::kPreemptive);
  auto result = executor.Run();
  ASSERT_TRUE(result.ok());
  for (Chronon t = 0; t < problem.epoch.length; ++t) {
    EXPECT_EQ(result->schedule.ProbesAt(t), reference.ProbesAt(t))
        << " at t=" << t;
  }
}

}  // namespace
}  // namespace pullmon
