#include "core/resource_health.h"

#include <gtest/gtest.h>

namespace pullmon {
namespace {

BreakerOptions Enabled() {
  BreakerOptions options;
  options.enabled = true;
  return options;
}

TEST(BreakerOptionsTest, DefaultsValidateAndStayDisabled) {
  BreakerOptions options;
  EXPECT_FALSE(options.enabled);
  EXPECT_TRUE(options.Validate().ok());
}

TEST(BreakerOptionsTest, ValidationRejectsMalformedValues) {
  BreakerOptions options;
  options.failure_threshold = 0;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options = BreakerOptions{};
  options.cooldown_base = 0;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options = BreakerOptions{};
  options.cooldown_multiplier = 0.5;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options = BreakerOptions{};
  options.max_cooldown = options.cooldown_base - 1;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options = BreakerOptions{};
  options.ewma_alpha = 0.0;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options = BreakerOptions{};
  options.ewma_alpha = 1.5;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(ResourceHealthTrackerTest, DisabledBreakerNeverSuppresses) {
  ResourceHealthTracker tracker(2, BreakerOptions{});
  for (Chronon t = 0; t < 50; ++t) {
    tracker.BeginChronon(t);
    tracker.RecordProbe(0, t, /*success=*/false);
    EXPECT_FALSE(tracker.IsSuppressed(0));
    EXPECT_EQ(tracker.state(0), CircuitState::kClosed);
  }
  // Health estimation still runs so health-aware policies work.
  EXPECT_GT(tracker.FailureRate(0), 0.9);
  EXPECT_EQ(tracker.ConsecutiveFailures(0), 50);
  EXPECT_EQ(tracker.stats(), HealthStats{});
}

TEST(ResourceHealthTrackerTest, ThresholdConsecutiveFailuresTrip) {
  BreakerOptions options = Enabled();
  options.failure_threshold = 3;
  ResourceHealthTracker tracker(1, options);
  tracker.BeginChronon(0);
  tracker.RecordProbe(0, 0, false);
  tracker.RecordProbe(0, 0, false);
  // A success in between resets the consecutive count.
  tracker.RecordProbe(0, 0, true);
  EXPECT_EQ(tracker.ConsecutiveFailures(0), 0);
  EXPECT_EQ(tracker.state(0), CircuitState::kClosed);
  tracker.RecordProbe(0, 0, false);
  tracker.RecordProbe(0, 0, false);
  EXPECT_EQ(tracker.state(0), CircuitState::kClosed);
  tracker.RecordProbe(0, 0, false);
  EXPECT_EQ(tracker.state(0), CircuitState::kOpen);
  EXPECT_TRUE(tracker.IsSuppressed(0));
  EXPECT_EQ(tracker.stats().circuits_opened, 1u);
}

TEST(ResourceHealthTrackerTest, OpenCircuitSuppressesExactlyCooldown) {
  BreakerOptions options = Enabled();
  options.failure_threshold = 1;
  options.cooldown_base = 4;
  ResourceHealthTracker tracker(1, options);
  tracker.BeginChronon(0);
  tracker.RecordProbe(0, 0, false);  // trips at chronon 0
  // Suppressed for chronons 1..4, half-open at 5.
  for (Chronon t = 1; t <= 4; ++t) {
    tracker.BeginChronon(t);
    EXPECT_TRUE(tracker.IsSuppressed(0)) << "chronon " << t;
  }
  tracker.BeginChronon(5);
  EXPECT_FALSE(tracker.IsSuppressed(0));
  EXPECT_TRUE(tracker.IsProbation(0));
  EXPECT_EQ(tracker.stats().open_chronons_total, 4u);
  EXPECT_EQ(tracker.OpenChrononsByResource()[0], 4u);
}

TEST(ResourceHealthTrackerTest, ProbationSuccessClosesAndResetsCooldown) {
  BreakerOptions options = Enabled();
  options.failure_threshold = 1;
  options.cooldown_base = 2;
  options.cooldown_multiplier = 2.0;
  options.max_cooldown = 64;
  ResourceHealthTracker tracker(1, options);
  tracker.BeginChronon(0);
  tracker.RecordProbe(0, 0, false);
  tracker.BeginChronon(3);  // past the 2-chronon cool-down
  ASSERT_TRUE(tracker.IsProbation(0));
  tracker.RecordProbe(0, 3, true);
  EXPECT_EQ(tracker.state(0), CircuitState::kClosed);
  EXPECT_EQ(tracker.stats().probation_probes, 1u);
  EXPECT_EQ(tracker.stats().probation_successes, 1u);
  // The next trip starts from the base cool-down again: suppressed for
  // chronons 5..6, probation at 7.
  tracker.RecordProbe(0, 4, false);
  tracker.BeginChronon(5);
  EXPECT_TRUE(tracker.IsSuppressed(0));
  tracker.BeginChronon(7);
  EXPECT_TRUE(tracker.IsProbation(0));
}

TEST(ResourceHealthTrackerTest, ProbationFailureDoublesCooldownToCap) {
  BreakerOptions options = Enabled();
  options.failure_threshold = 1;
  options.cooldown_base = 2;
  options.cooldown_multiplier = 2.0;
  options.max_cooldown = 8;
  ResourceHealthTracker tracker(1, options);
  Chronon now = 0;
  tracker.BeginChronon(now);
  tracker.RecordProbe(0, now, false);  // open, cool-down 2
  // Expected cool-downs per consecutive probation failure: 4, 8, 8
  // (capped).
  std::vector<Chronon> expected = {4, 8, 8};
  for (std::size_t round = 0; round < expected.size(); ++round) {
    // Step chronon by chronon until probation.
    while (true) {
      ++now;
      tracker.BeginChronon(now);
      if (tracker.IsProbation(0)) break;
      ASSERT_TRUE(tracker.IsSuppressed(0));
    }
    tracker.RecordProbe(0, now, false);  // probation fails; reopen
    ASSERT_EQ(tracker.state(0), CircuitState::kOpen);
    // Count the suppressed chronons of this round.
    Chronon dark = 0;
    while (true) {
      ++now;
      tracker.BeginChronon(now);
      if (!tracker.IsSuppressed(0)) break;
      ++dark;
    }
    EXPECT_EQ(dark, expected[round]) << "round " << round;
    // The break left us on the probation chronon; the next round's
    // stepping loop sees the circuit still half-open and probes it.
  }
  EXPECT_EQ(tracker.stats().circuits_opened, 1u);
  EXPECT_EQ(tracker.stats().circuits_reopened, 3u);
}

TEST(ResourceHealthTrackerTest, EwmaTracksFailureRate) {
  BreakerOptions options;  // disabled: EWMA must still update
  options.ewma_alpha = 0.5;
  ResourceHealthTracker tracker(1, options);
  EXPECT_DOUBLE_EQ(tracker.FailureRate(0), 0.0);
  EXPECT_DOUBLE_EQ(tracker.SuccessProbability(0), 1.0);
  tracker.RecordProbe(0, 0, false);
  EXPECT_DOUBLE_EQ(tracker.FailureRate(0), 0.5);
  tracker.RecordProbe(0, 0, false);
  EXPECT_DOUBLE_EQ(tracker.FailureRate(0), 0.75);
  tracker.RecordProbe(0, 0, true);
  EXPECT_DOUBLE_EQ(tracker.FailureRate(0), 0.375);
  EXPECT_DOUBLE_EQ(tracker.SuccessProbability(0), 0.625);
}

TEST(ResourceHealthTrackerTest, SuppressionTelemetryCountsLiveOnly) {
  ResourceHealthTracker tracker(3, Enabled());
  tracker.BeginChronon(0);
  tracker.NoteSuppressed(0, 2);
  tracker.NoteSuppressed(1, 0);  // no live candidates: not counted
  EXPECT_EQ(tracker.SuppressedThisChronon(), 1u);
  tracker.NoteBudgetReclaimed(1);
  tracker.BeginChronon(1);  // resets the per-chronon count
  EXPECT_EQ(tracker.SuppressedThisChronon(), 0u);
  EXPECT_EQ(tracker.stats().probes_suppressed, 1u);
  EXPECT_EQ(tracker.stats().budget_reclaimed, 1u);
}

TEST(ResourceHealthTrackerTest, CircuitsAreIndependentAcrossResources) {
  BreakerOptions options = Enabled();
  options.failure_threshold = 2;
  ResourceHealthTracker tracker(2, options);
  tracker.BeginChronon(0);
  tracker.RecordProbe(0, 0, false);
  tracker.RecordProbe(0, 0, false);
  tracker.RecordProbe(1, 0, true);
  EXPECT_TRUE(tracker.IsSuppressed(0));
  EXPECT_FALSE(tracker.IsSuppressed(1));
  EXPECT_EQ(tracker.OpenChrononsByResource().size(), 2u);
}

TEST(CircuitStateTest, ToStringNamesEveryState) {
  EXPECT_STREQ(CircuitStateToString(CircuitState::kClosed), "closed");
  EXPECT_STREQ(CircuitStateToString(CircuitState::kOpen), "open");
  EXPECT_STREQ(CircuitStateToString(CircuitState::kHalfOpen),
               "half-open");
}

}  // namespace
}  // namespace pullmon
