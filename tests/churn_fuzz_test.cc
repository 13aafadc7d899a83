// Churn op-sequence fuzz: random interleavings of
// submit/cancel/edit/unregister/step against DynamicMonitor, auditing
// the CandidateIndex live-list invariants and the monitor's parent
// bookkeeping (capture and expiry counters, the M-EDF aggregate) after
// EVERY operation (CheckInvariants is an exhaustive
// O(total EIs) sweep). Directed cases pin the named edge conditions:
// double-cancel, cancel-after-capture, cancel-at-deadline-chronon,
// edit-to-past-deadline, and unregister-mid-retry. The whole file runs
// under the asan preset like every other test.

#include <string>

#include <gtest/gtest.h>

#include "core/dynamic_monitor.h"
#include "policies/s_edf.h"
#include "policies/mrsf.h"
#include "util/random.h"

namespace pullmon {
namespace {

#define CHECK_MONITOR(monitor)                        \
  do {                                                \
    Status audit = (monitor).CheckInvariants();       \
    ASSERT_TRUE(audit.ok()) << audit.ToString();      \
  } while (0)

TEST(ChurnFuzzTest, DoubleCancelIsRejected) {
  SEdfPolicy policy;
  DynamicMonitor monitor(2, 10, BudgetVector::Uniform(1, 10), &policy,
                         ExecutionMode::kPreemptive);
  ProfileId client = monitor.RegisterProfile("client");
  auto sub = monitor.Submit(client, TInterval({{0, 2, 6}}));
  ASSERT_TRUE(sub.ok());
  CHECK_MONITOR(monitor);

  ASSERT_TRUE(monitor.Cancel(client, *sub).ok());
  CHECK_MONITOR(monitor);
  EXPECT_EQ(monitor.churn_stats().churn_cancelled, 1u);

  Status again = monitor.Cancel(client, *sub);
  EXPECT_EQ(again.code(), StatusCode::kInvalidArgument);
  CHECK_MONITOR(monitor);
  EXPECT_EQ(monitor.churn_stats().churn_cancelled, 1u);

  // Unknown submission and unknown profile are InvalidArgument too.
  EXPECT_EQ(monitor.Cancel(client, 99).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(monitor.Cancel(42, 0).code(), StatusCode::kInvalidArgument);
  CHECK_MONITOR(monitor);
}

TEST(ChurnFuzzTest, CancelAfterCaptureIsRejected) {
  SEdfPolicy policy;
  DynamicMonitor monitor(2, 10, BudgetVector::Uniform(1, 10), &policy,
                         ExecutionMode::kPreemptive);
  ProfileId client = monitor.RegisterProfile("client");
  auto sub = monitor.Submit(client, TInterval({{0, 0, 3}}));
  ASSERT_TRUE(sub.ok());
  auto step = monitor.Step();
  ASSERT_TRUE(step.ok());
  ASSERT_EQ(step->captured.size(), 1u);
  CHECK_MONITOR(monitor);

  Status cancel = monitor.Cancel(client, *sub);
  EXPECT_EQ(cancel.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(cancel.message().find("completed"), std::string::npos);
  CHECK_MONITOR(monitor);
  // The capture stands: no orphaned work, nothing cancelled.
  EXPECT_EQ(monitor.churn_stats().orphaned_probes, 0u);
  EXPECT_EQ(monitor.churn_stats().churn_cancelled, 0u);
}

TEST(ChurnFuzzTest, CancelAtDeadlineChronon) {
  // Two candidates, budget 1: r1's t-interval would expire at chronon 2
  // uncaptured. Cancelling it at exactly its deadline chronon (before
  // the step executes) must retire it as cancelled, not failed.
  SEdfPolicy policy;
  DynamicMonitor monitor(2, 6, BudgetVector::Uniform(1, 6), &policy,
                         ExecutionMode::kPreemptive);
  ProfileId client = monitor.RegisterProfile("client");
  ASSERT_TRUE(monitor.Submit(client, TInterval({{0, 0, 2}})).ok());
  auto doomed = monitor.Submit(client, TInterval({{1, 2, 2}}));
  ASSERT_TRUE(doomed.ok());
  ASSERT_TRUE(monitor.Step().ok());  // t=0: captures r0
  ASSERT_TRUE(monitor.Step().ok());  // t=1
  CHECK_MONITOR(monitor);

  // now() == 2 == the doomed EI's deadline: still live, still
  // cancellable.
  EXPECT_EQ(monitor.now(), 2);
  ASSERT_TRUE(monitor.Cancel(client, *doomed).ok());
  CHECK_MONITOR(monitor);
  auto step2 = monitor.Step();
  ASSERT_TRUE(step2.ok());
  EXPECT_TRUE(step2->failed.empty());
  EXPECT_EQ(monitor.t_intervals_failed(), 0u);
  // A cancelled t-interval leaves the completeness denominator.
  EXPECT_EQ(monitor.Completeness().total_t_intervals, 1u);
  CHECK_MONITOR(monitor);

  // One chronon later the same cancel would be rejected (expired ->
  // failed -> not live)... here it is already cancelled.
  EXPECT_EQ(monitor.Cancel(client, *doomed).code(),
            StatusCode::kInvalidArgument);
}

TEST(ChurnFuzzTest, EditToPastDeadlineIsRejectedAtomically) {
  SEdfPolicy policy;
  DynamicMonitor monitor(2, 10, BudgetVector::Uniform(1, 10), &policy,
                         ExecutionMode::kPreemptive);
  ProfileId client = monitor.RegisterProfile("client");
  auto sub = monitor.Submit(client, TInterval({{0, 4, 8}}));
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(monitor.Step().ok());
  ASSERT_TRUE(monitor.Step().ok());
  EXPECT_EQ(monitor.now(), 2);

  // Replacement reaching into the past: InvalidArgument (not the
  // FailedPrecondition Submit uses), and the old submission stays live.
  auto bad = monitor.Edit(client, *sub, TInterval({{0, 1, 8}}));
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  CHECK_MONITOR(monitor);
  EXPECT_EQ(monitor.churn_stats().churn_edited, 0u);
  EXPECT_EQ(monitor.churn_stats().churn_cancelled, 0u);

  // An empty replacement (every EI already opened) is rejected too.
  auto empty = monitor.Edit(client, *sub, TInterval{});
  EXPECT_FALSE(empty.ok());
  CHECK_MONITOR(monitor);

  // The target is untouched: a valid edit still goes through.
  auto good = monitor.Edit(client, *sub, TInterval({{1, 3, 9}}));
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 1);
  CHECK_MONITOR(monitor);
  EXPECT_EQ(monitor.churn_stats().churn_edited, 1u);
  // Editing the now-cancelled original again is rejected.
  EXPECT_EQ(monitor.Edit(client, *sub, TInterval({{1, 5, 9}}))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ChurnFuzzTest, UnregisterMidRetry) {
  // Probes always fail; retries burn budget every chronon. Unregister
  // the client while its submissions sit mid-retry-storm: the index
  // must retire them cleanly and later probes must stop targeting them.
  SEdfPolicy policy;
  MonitorOptions options;
  options.retry.max_retries = 3;
  options.retry.backoff_base = 0.05;
  DynamicMonitor monitor(2, 12, BudgetVector::Uniform(2, 12), &policy,
                         ExecutionMode::kPreemptive, options);
  monitor.set_probe_callback([](ResourceId, Chronon) { return false; });
  ProfileId client = monitor.RegisterProfile("client");
  ASSERT_TRUE(monitor.Submit(client, TInterval({{0, 0, 10}})).ok());
  ASSERT_TRUE(monitor.Submit(client, TInterval({{1, 1, 10}})).ok());
  ASSERT_TRUE(monitor.Step().ok());
  ASSERT_TRUE(monitor.Step().ok());
  CHECK_MONITOR(monitor);
  EXPECT_GT(monitor.probe_stats().retries_issued, 0u);

  auto cancelled = monitor.Unregister(client);
  ASSERT_TRUE(cancelled.ok());
  EXPECT_EQ(*cancelled, 2);
  CHECK_MONITOR(monitor);

  std::size_t probes_before = monitor.probe_stats().probes_used;
  ASSERT_TRUE(monitor.Step().ok());
  // No live candidates remain, so no probes are spent.
  EXPECT_EQ(monitor.probe_stats().probes_used, probes_before);
  CHECK_MONITOR(monitor);

  // The profile is dead for good.
  EXPECT_EQ(monitor.Submit(client, TInterval({{0, 5, 9}})).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(monitor.Unregister(client).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(monitor.churn_stats().churn_unregistered_profiles, 1u);
}

TEST(ChurnFuzzTest, RandomInterleavingsKeepInvariants) {
  constexpr int kResources = 5;
  constexpr Chronon kEpoch = 16;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(seed * 7919 + 3);
    SEdfPolicy s_edf;
    MrsfPolicy mrsf;
    MonitorOptions options;
    if (seed % 2 == 1) {
      options.retry.max_retries = 2;
      options.retry.backoff_base = 0.1;
      options.breaker.enabled = true;
      options.breaker.failure_threshold = 2;
      options.breaker.cooldown_base = 2;
    }
    options.maintenance = seed % 5 == 0 ? MonitorIndexMode::kRebuild
                                        : MonitorIndexMode::kIncremental;
    Policy* policy = seed % 3 == 0 ? static_cast<Policy*>(&mrsf)
                                   : static_cast<Policy*>(&s_edf);
    DynamicMonitor monitor(kResources, kEpoch,
                           BudgetVector::Uniform(2, kEpoch), policy,
                           seed % 4 == 0 ? ExecutionMode::kNonPreemptive
                                         : ExecutionMode::kPreemptive,
                           options);
    uint64_t fail_seed = seed;
    monitor.set_probe_callback([&](ResourceId r, Chronon t) {
      uint64_t state = fail_seed ^ (static_cast<uint64_t>(r) << 32) ^
                       static_cast<uint64_t>(t);
      return SplitMix64(&state) % 4 != 0;  // 25% failures
    });
    ProfileId a = monitor.RegisterProfile("a");
    ProfileId b = monitor.RegisterProfile("b");

    for (Chronon t = 0; t < kEpoch; ++t) {
      int ops = static_cast<int>(rng.NextInt(0, 3));
      for (int i = 0; i < ops; ++i) {
        ProfileId p = rng.NextBool() ? a : b;
        int sub = static_cast<int>(rng.NextInt(0, 5));
        switch (rng.NextInt(0, 3)) {
          case 0: {
            TInterval eta;
            int rank = static_cast<int>(rng.NextInt(1, 2));
            for (int e = 0; e < rank; ++e) {
              ExecutionInterval ei;
              ei.resource = static_cast<ResourceId>(
                  rng.NextInt(0, kResources - 1));
              // Deliberately allow starts in the past (rejected) and at
              // the epoch edge.
              ei.start = static_cast<Chronon>(
                  rng.NextInt(std::max<Chronon>(0, t - 1), kEpoch - 1));
              ei.finish = static_cast<Chronon>(rng.NextInt(
                  ei.start, std::min<Chronon>(ei.start + 5, kEpoch - 1)));
              eta.AddEi(ei);
            }
            (void)monitor.Submit(p, eta);
            break;
          }
          case 1:
            (void)monitor.Cancel(p, sub);
            break;
          case 2: {
            TInterval replacement;
            ExecutionInterval ei;
            ei.resource = static_cast<ResourceId>(
                rng.NextInt(0, kResources - 1));
            ei.start = static_cast<Chronon>(rng.NextInt(t, kEpoch - 1));
            ei.finish = static_cast<Chronon>(rng.NextInt(
                ei.start, std::min<Chronon>(ei.start + 5, kEpoch - 1)));
            replacement.AddEi(ei);
            (void)monitor.Edit(p, sub, replacement);
            break;
          }
          default:
            (void)monitor.Unregister(p);
            break;
        }
        CHECK_MONITOR(monitor);
        if (HasFatalFailure()) return;
      }
      ASSERT_TRUE(monitor.Step().ok());
      CHECK_MONITOR(monitor);
      if (HasFatalFailure()) return;
    }
    // End-of-epoch audit plus the schedule-vs-runtime consistency the
    // churn runner enforces.
    EXPECT_EQ(monitor.Completeness().captured_t_intervals,
              monitor.t_intervals_completed())
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace pullmon
