#include "core/completeness.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamic_monitor.h"
#include "policies/m_edf.h"
#include "util/random.h"

namespace pullmon {
namespace {

TEST(IsCapturedEiTest, ProbeInsideWindowCaptures) {
  Schedule s(10);
  ASSERT_TRUE(s.AddProbe(0, 4).ok());
  EXPECT_TRUE(IsCaptured(ExecutionInterval(0, 2, 6), s));
  EXPECT_FALSE(IsCaptured(ExecutionInterval(0, 5, 6), s));
  EXPECT_FALSE(IsCaptured(ExecutionInterval(1, 2, 6), s));
}

TEST(IsCapturedEiTest, BoundaryChronons) {
  Schedule s(10);
  ASSERT_TRUE(s.AddProbe(0, 2).ok());
  ASSERT_TRUE(s.AddProbe(1, 6).ok());
  EXPECT_TRUE(IsCaptured(ExecutionInterval(0, 2, 6), s));  // at start
  EXPECT_TRUE(IsCaptured(ExecutionInterval(1, 2, 6), s));  // at finish
}

TEST(IsCapturedTIntervalTest, AllEisRequired) {
  Schedule s(10);
  ASSERT_TRUE(s.AddProbe(0, 3).ok());
  TInterval eta({{0, 2, 5}, {1, 2, 5}});
  EXPECT_FALSE(IsCaptured(eta, s));
  ASSERT_TRUE(s.AddProbe(1, 5).ok());
  EXPECT_TRUE(IsCaptured(eta, s));
}

TEST(IsCapturedTIntervalTest, EmptyTIntervalIsNotCaptured) {
  Schedule s(10);
  EXPECT_FALSE(IsCaptured(TInterval(), s));
}

TEST(IsCapturedTIntervalTest, SharedProbeSatisfiesSiblings) {
  // Two EIs of the same resource with overlapping windows: one probe in
  // the intersection captures both (intra-resource overlap).
  Schedule s(10);
  ASSERT_TRUE(s.AddProbe(0, 4).ok());
  TInterval eta({{0, 1, 5}, {0, 3, 8}});
  EXPECT_TRUE(IsCaptured(eta, s));
}

TEST(GainedCompletenessTest, CountsCapturedFraction) {
  std::vector<Profile> profiles{
      Profile("a", {TInterval({{0, 0, 2}}), TInterval({{0, 5, 7}})}),
      Profile("b", {TInterval({{1, 1, 3}, {2, 1, 3}})}),
  };
  Schedule s(10);
  ASSERT_TRUE(s.AddProbe(0, 1).ok());   // captures a's first
  ASSERT_TRUE(s.AddProbe(1, 2).ok());   // half of b's pair
  CompletenessReport report = EvaluateCompleteness(profiles, s);
  EXPECT_EQ(report.total_t_intervals, 3u);
  EXPECT_EQ(report.captured_t_intervals, 1u);
  EXPECT_NEAR(report.GainedCompleteness(), 1.0 / 3.0, 1e-12);
  ASSERT_EQ(report.per_profile.size(), 2u);
  EXPECT_EQ(report.per_profile[0].captured, 1u);
  EXPECT_EQ(report.per_profile[1].captured, 0u);
  EXPECT_NEAR(report.per_profile[0].Fraction(), 0.5, 1e-12);
}

TEST(GainedCompletenessTest, EmptyProfilesYieldZero) {
  Schedule s(5);
  EXPECT_DOUBLE_EQ(GainedCompleteness({}, s), 0.0);
}

TEST(GainedCompletenessTest, FullCapture) {
  std::vector<Profile> profiles{
      Profile("a", {TInterval({{0, 0, 0}}), TInterval({{1, 1, 1}})})};
  Schedule s(3);
  ASSERT_TRUE(s.AddProbe(0, 0).ok());
  ASSERT_TRUE(s.AddProbe(1, 1).ok());
  EXPECT_DOUBLE_EQ(GainedCompleteness(profiles, s), 1.0);
}

// Field-by-field equality of two reports; the weights must agree exactly,
// since both sides sum the same weights in the same order.
void ExpectSameReport(const CompletenessReport& got,
                      const CompletenessReport& want) {
  EXPECT_EQ(got.captured_t_intervals, want.captured_t_intervals);
  EXPECT_EQ(got.total_t_intervals, want.total_t_intervals);
  EXPECT_EQ(got.captured_weight, want.captured_weight);
  EXPECT_EQ(got.total_weight, want.total_weight);
  ASSERT_EQ(got.per_profile.size(), want.per_profile.size());
  for (std::size_t p = 0; p < want.per_profile.size(); ++p) {
    EXPECT_EQ(got.per_profile[p].captured, want.per_profile[p].captured)
        << "profile " << p;
    EXPECT_EQ(got.per_profile[p].total, want.per_profile[p].total)
        << "profile " << p;
  }
}

// The probe-index evaluator against the per-chronon scan oracle on random
// instances: alternatives (including required() above the size, which
// clamps), empty t-intervals, probes on resources no EI names, probes
// added out of chronon order, and windows touching chronons 0 and K-1.
TEST(ProbeIndexTest, MatchesScanOracleOnRandomInstances) {
  Rng rng(0xC0FFEE);
  std::size_t captured_seen = 0;
  std::size_t missed_seen = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const auto epoch = static_cast<Chronon>(rng.NextInt(1, 24));
    const auto resources = static_cast<int>(rng.NextInt(1, 5));
    auto draw_ei = [&](int resource_limit) {
      ExecutionInterval ei;
      ei.resource = static_cast<ResourceId>(rng.NextInt(0, resource_limit));
      ei.start = rng.NextBool(0.2)
                     ? 0
                     : static_cast<Chronon>(rng.NextInt(0, epoch - 1));
      ei.finish = rng.NextBool(0.2) ? epoch - 1
                                    : static_cast<Chronon>(
                                          rng.NextInt(ei.start, epoch - 1));
      return ei;
    };
    std::vector<Profile> profiles;
    const int num_profiles = static_cast<int>(rng.NextInt(0, 4));
    for (int p = 0; p < num_profiles; ++p) {
      Profile profile;
      const int num_t = static_cast<int>(rng.NextInt(0, 5));
      for (int t = 0; t < num_t; ++t) {
        TInterval eta;
        const int size = static_cast<int>(rng.NextInt(0, 4));
        for (int i = 0; i < size; ++i) eta.AddEi(draw_ei(resources - 1));
        eta.set_weight(0.25 * static_cast<double>(rng.NextInt(1, 16)));
        if (size >= 2 && rng.NextBool(0.4)) {
          eta.set_required(static_cast<std::size_t>(rng.NextInt(1, size + 2)));
        }
        profile.AddTInterval(std::move(eta));
      }
      profiles.push_back(std::move(profile));
    }
    Schedule schedule(epoch);
    const int num_probes = static_cast<int>(rng.NextInt(0, 2 * epoch));
    for (int i = 0; i < num_probes; ++i) {
      ASSERT_TRUE(schedule
                      .AddProbe(static_cast<ResourceId>(
                                    rng.NextInt(0, resources + 2)),
                                static_cast<Chronon>(
                                    rng.NextInt(0, epoch - 1)))
                      .ok());
    }

    CompletenessReport oracle;
    for (const Profile& p : profiles) {
      ProfileCompleteness pc;
      pc.total = p.size();
      for (const TInterval& eta : p.t_intervals()) {
        oracle.total_weight += eta.weight();
        if (IsCaptured(eta, schedule)) {
          ++pc.captured;
          oracle.captured_weight += eta.weight();
        }
      }
      oracle.captured_t_intervals += pc.captured;
      oracle.total_t_intervals += pc.total;
      oracle.per_profile.push_back(pc);
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectSameReport(EvaluateCompleteness(profiles, schedule), oracle);

    // Single EIs, on probed and unprobed resources alike (ids up to
    // resources + 4 lie beyond every probe).
    const ProbeIndex index(schedule);
    for (int i = 0; i < 20; ++i) {
      const ExecutionInterval ei = draw_ei(resources + 4);
      const bool captured = IsCaptured(ei, schedule);
      ASSERT_EQ(index.Captures(ei), captured)
          << "EI " << ei.ToString();
      ++(captured ? captured_seen : missed_seen);
    }
  }
  // Both outcomes were exercised.
  EXPECT_GT(captured_seen, 1000u);
  EXPECT_GT(missed_seen, 1000u);
}

// DynamicMonitor::Completeness() against the scan oracle over the
// submissions a random churn stream leaves standing. The test keeps its
// own ledger of which submissions were withdrawn, from the accepted
// Cancel/Edit/Unregister calls and the per-step outcomes.
TEST(ProbeIndexTest, MonitorCompletenessMatchesOracleAfterChurn) {
  constexpr int kResources = 5;
  constexpr Chronon kEpoch = 30;
  constexpr int kProfiles = 3;
  struct Sub {
    ProfileId profile;
    int submission;
    TInterval definition;
    bool withdrawn = false;
    bool decided = false;  // completed or failed
  };
  std::size_t withdrawn_seen = 0;
  std::size_t captured_seen = 0;
  for (int seed = 1; seed <= 24; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 7919);
    MEdfPolicy policy;
    MonitorOptions options;
    options.shards = seed % 2 == 0 ? MonitorOptions::kParallelShards : 1;
    DynamicMonitor monitor(
        kResources, kEpoch,
        BudgetVector::Uniform(static_cast<int>(rng.NextInt(1, 2)), kEpoch),
        &policy, ExecutionMode::kPreemptive, options);
    for (int p = 0; p < kProfiles; ++p) {
      monitor.RegisterProfile("p" + std::to_string(p));
    }
    std::vector<Sub> subs;  // in the monitor's submission (t_id) order
    std::map<std::pair<ProfileId, int>, std::size_t> by_key;
    auto draw = [&](Chronon from) {
      TInterval eta;
      const int size = static_cast<int>(rng.NextInt(1, 3));
      for (int i = 0; i < size; ++i) {
        const auto start = static_cast<Chronon>(rng.NextInt(from, kEpoch - 1));
        eta.AddEi(ExecutionInterval(
            static_cast<ResourceId>(rng.NextInt(0, kResources - 1)), start,
            static_cast<Chronon>(
                rng.NextInt(start, std::min(kEpoch - 1, start + 6)))));
      }
      eta.set_weight(0.5 * static_cast<double>(rng.NextInt(1, 6)));
      if (size >= 2 && rng.NextBool(0.3)) eta.set_required(1);
      return eta;
    };
    auto live = [](const Sub& s) { return !s.withdrawn && !s.decided; };
    auto check = [&]() {
      CompletenessReport oracle;
      oracle.per_profile.resize(kProfiles);
      for (const Sub& s : subs) {
        if (s.withdrawn) continue;
        auto& pc = oracle.per_profile[static_cast<std::size_t>(s.profile)];
        ++pc.total;
        ++oracle.total_t_intervals;
        oracle.total_weight += s.definition.weight();
        if (IsCaptured(s.definition, monitor.schedule())) {
          ++pc.captured;
          ++oracle.captured_t_intervals;
          oracle.captured_weight += s.definition.weight();
        }
      }
      SCOPED_TRACE("seed " + std::to_string(seed) + " chronon " +
                   std::to_string(monitor.now()));
      ExpectSameReport(monitor.Completeness(), oracle);
    };

    while (monitor.now() < kEpoch) {
      const Chronon now = monitor.now();
      const int ops = static_cast<int>(rng.NextInt(0, 4));
      for (int op = 0; op < ops; ++op) {
        const int kind = static_cast<int>(rng.NextInt(0, 19));
        const auto profile =
            static_cast<ProfileId>(rng.NextInt(0, kProfiles - 1));
        if (kind < 10 || subs.empty()) {
          TInterval eta = draw(now);
          auto id = monitor.Submit(profile, eta);
          if (!id.ok()) continue;  // an unregistered profile
          by_key[{profile, *id}] = subs.size();
          subs.push_back(Sub{profile, *id, std::move(eta)});
          continue;
        }
        const std::size_t target = static_cast<std::size_t>(
            rng.NextInt(0, static_cast<int64_t>(subs.size()) - 1));
        const ProfileId owner = subs[target].profile;
        const int submission = subs[target].submission;
        if (kind < 15) {
          const bool accepted = monitor.Cancel(owner, submission).ok();
          ASSERT_EQ(accepted, live(subs[target])) << "seed " << seed;
          if (accepted) subs[target].withdrawn = true;
        } else if (kind < 19) {
          TInterval replacement = draw(now);
          auto id = monitor.Edit(owner, submission, replacement);
          if (!id.ok()) continue;
          subs[target].withdrawn = true;
          by_key[{owner, *id}] = subs.size();
          subs.push_back(Sub{owner, *id, std::move(replacement)});
        } else if (monitor.Unregister(profile).ok()) {
          for (Sub& s : subs) {
            if (s.profile == profile && live(s)) s.withdrawn = true;
          }
        }
      }
      auto step = monitor.Step();
      ASSERT_TRUE(step.ok()) << step.status().ToString();
      for (const auto& outcomes : {step->captured, step->failed}) {
        for (const auto& key : outcomes) subs[by_key.at(key)].decided = true;
      }
      if (now % 7 == 0) check();
    }
    check();
    ASSERT_TRUE(monitor.CheckInvariants().ok());
    for (const Sub& s : subs) withdrawn_seen += s.withdrawn;
    captured_seen += monitor.Completeness().captured_t_intervals;
  }
  // The stream withdrew submissions and the monitor captured some.
  EXPECT_GT(withdrawn_seen, 100u);
  EXPECT_GT(captured_seen, 100u);
}

}  // namespace
}  // namespace pullmon
