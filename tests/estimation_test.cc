#include <gtest/gtest.h>

#include <cmath>

#include "estimation/estimation_session.h"
#include "estimation/forecaster.h"
#include "estimation/periodic_detector.h"
#include "estimation/rate_estimator.h"
#include "trace/poisson_generator.h"

namespace pullmon {
namespace {

// --- PoissonRateEstimator ------------------------------------------------

TEST(PoissonRateEstimatorTest, MleOnKnownCounts) {
  UpdateTrace trace(2, 100);
  for (Chronon t : {10, 20, 30, 40}) {
    ASSERT_TRUE(trace.AddEvent(0, t).ok());
  }
  PoissonRateEstimator estimator(/*smoothing=*/0.0);
  auto rate = estimator.EstimateRate(trace, 0, 0, 99);
  ASSERT_TRUE(rate.ok());
  EXPECT_DOUBLE_EQ(*rate, 0.04);
  // Sub-window.
  auto windowed = estimator.EstimateRate(trace, 0, 0, 24);
  ASSERT_TRUE(windowed.ok());
  EXPECT_DOUBLE_EQ(*windowed, 2.0 / 25.0);
}

TEST(PoissonRateEstimatorTest, SmoothingKeepsSilentResourcesAlive) {
  UpdateTrace trace(1, 50);
  PoissonRateEstimator estimator(/*smoothing=*/0.5);
  auto rate = estimator.EstimateRate(trace, 0, 0, 49);
  ASSERT_TRUE(rate.ok());
  EXPECT_DOUBLE_EQ(*rate, 0.01);
}

TEST(PoissonRateEstimatorTest, RejectsBadInput) {
  UpdateTrace trace(1, 50);
  PoissonRateEstimator estimator;
  EXPECT_FALSE(estimator.EstimateRate(trace, 0, 10, 5).ok());
  EXPECT_FALSE(estimator.EstimateRate(trace, 5, 0, 10).ok());
}

TEST(PoissonRateEstimatorTest, EmptyWindowYieldsSmoothingRate) {
  UpdateTrace trace(1, 50);
  PoissonRateEstimator estimator(/*smoothing=*/0.5);
  // [from, from-1] is the canonical empty window, not a malformed one.
  auto rate = estimator.EstimateRate(trace, 0, 0, -1);
  ASSERT_TRUE(rate.ok());
  EXPECT_DOUBLE_EQ(*rate, 0.5);
  auto mid = estimator.EstimateRate(trace, 0, 10, 9);
  ASSERT_TRUE(mid.ok());
  EXPECT_DOUBLE_EQ(*mid, 0.5);
}

TEST(PoissonRateEstimatorTest, AllRatesOnEmptyEpochHistory) {
  // epoch_length == 0 used to turn into EstimateRate(r, 0, -1) ->
  // InvalidArgument; the documented behavior is the smoothing-only rate.
  UpdateTrace trace(3, 0);
  PoissonRateEstimator estimator(/*smoothing=*/0.5);
  auto rates = estimator.EstimateAllRates(trace);
  ASSERT_TRUE(rates.ok());
  ASSERT_EQ(rates->size(), 3u);
  for (double r : *rates) EXPECT_DOUBLE_EQ(r, 0.5);
}

TEST(PoissonRateEstimatorTest, AllRatesRecoverTrueLambda) {
  Rng rng(3);
  auto trace = GeneratePoissonTrace({200, 2000, 30.0, 0.0}, &rng);
  ASSERT_TRUE(trace.ok());
  PoissonRateEstimator estimator(0.0);
  auto rates = estimator.EstimateAllRates(*trace);
  ASSERT_TRUE(rates.ok());
  double mean = 0.0;
  for (double r : *rates) mean += r;
  mean /= static_cast<double>(rates->size());
  // True per-chronon rate is 30/2000 = 0.015 (minus collapse losses).
  EXPECT_NEAR(mean, 0.015, 0.001);
}

// --- DecayingRateTracker ---------------------------------------------------

TEST(DecayingRateTrackerTest, EmptyIsZero) {
  DecayingRateTracker tracker(20.0);
  EXPECT_DOUBLE_EQ(tracker.RateAt(100), 0.0);
}

TEST(DecayingRateTrackerTest, SteadyStreamConvergesToRate) {
  DecayingRateTracker tracker(50.0);
  // One event every 4 chronons -> rate 0.25.
  for (Chronon t = 0; t <= 800; t += 4) tracker.Observe(t);
  EXPECT_NEAR(tracker.RateAt(800), 0.25, 0.05);
}

TEST(DecayingRateTrackerTest, RateDecaysAfterSilence) {
  DecayingRateTracker tracker(10.0);
  for (Chronon t = 0; t <= 100; t += 2) tracker.Observe(t);
  double at_end = tracker.RateAt(100);
  double later = tracker.RateAt(150);
  EXPECT_LT(later, at_end / 8.0);  // five half-lives -> 1/32
  EXPECT_GT(later, 0.0);
}

TEST(DecayingRateTrackerTest, AdaptsToRateChange) {
  DecayingRateTracker tracker(20.0);
  for (Chronon t = 0; t < 200; t += 10) tracker.Observe(t);  // rate 0.1
  for (Chronon t = 200; t < 400; t += 2) tracker.Observe(t);  // rate 0.5
  EXPECT_NEAR(tracker.RateAt(400), 0.5, 0.12);
}

// --- DetectPeriodicPattern ---------------------------------------------------

std::vector<Chronon> PeriodicEvents(Chronon phase, Chronon period,
                                    int count, double jitter, Rng* rng) {
  std::vector<Chronon> events;
  for (int i = 0; i < count; ++i) {
    double t = static_cast<double>(phase + i * period);
    if (jitter > 0.0) t += rng->NextGaussian() * jitter;
    events.push_back(static_cast<Chronon>(std::lround(std::max(0.0, t))));
  }
  std::sort(events.begin(), events.end());
  events.erase(std::unique(events.begin(), events.end()), events.end());
  return events;
}

TEST(PeriodicDetectorTest, ExactPeriodDetected) {
  Rng rng(1);
  auto events = PeriodicEvents(7, 60, 15, 0.0, &rng);
  auto pattern = DetectPeriodicPattern(events);
  ASSERT_TRUE(pattern.has_value());
  EXPECT_EQ(pattern->period, 60);
  EXPECT_EQ(pattern->phase, 7);
  EXPECT_DOUBLE_EQ(pattern->jitter, 0.0);
  EXPECT_DOUBLE_EQ(pattern->support, 1.0);
}

TEST(PeriodicDetectorTest, JitteredPeriodStillDetected) {
  Rng rng(5);
  auto events = PeriodicEvents(12, 50, 20, 2.0, &rng);
  auto pattern = DetectPeriodicPattern(events);
  ASSERT_TRUE(pattern.has_value());
  EXPECT_NEAR(static_cast<double>(pattern->period), 50.0, 2.0);
  EXPECT_GE(pattern->support, 0.7);
}

TEST(PeriodicDetectorTest, RandomEventsRejected) {
  Rng rng(9);
  std::vector<Chronon> events;
  for (int i = 0; i < 25; ++i) {
    events.push_back(static_cast<Chronon>(rng.NextBounded(1000)));
  }
  std::sort(events.begin(), events.end());
  events.erase(std::unique(events.begin(), events.end()), events.end());
  PeriodicDetectorOptions options;
  options.min_support = 0.9;  // strict
  options.tolerance_fraction = 0.05;
  auto pattern = DetectPeriodicPattern(events, options);
  EXPECT_FALSE(pattern.has_value());
}

TEST(PeriodicDetectorTest, TooFewEventsRejected) {
  EXPECT_FALSE(DetectPeriodicPattern({5}).has_value());
  EXPECT_FALSE(DetectPeriodicPattern({5, 10}).has_value());
  EXPECT_FALSE(DetectPeriodicPattern({}).has_value());
}

// --- UpdateForecaster ---------------------------------------------------------

TEST(ForecasterTest, ContinuesPeriodicGrid) {
  UpdateTrace history(1, 300);
  for (Chronon t = 10; t < 300; t += 30) {
    ASSERT_TRUE(history.AddEvent(0, t).ok());
  }
  UpdateForecaster forecaster;
  Rng rng(1);
  auto forecast = forecaster.Forecast(history, 120, &rng);
  ASSERT_TRUE(forecast.ok());
  const auto& predicted = forecast->EventsFor(0);
  ASSERT_FALSE(predicted.empty());
  // Predictions continue the (phase 10, period 30) grid: 310, 340, ...
  for (Chronon t : predicted) {
    EXPECT_GE(t, 300);
    EXPECT_EQ((t - 10) % 30, 0) << t;
  }
  EXPECT_EQ(predicted.size(), 4u);  // 310, 340, 370, 400
}

TEST(ForecasterTest, PoissonFallbackMatchesRate) {
  Rng gen_rng(7);
  auto history = GeneratePoissonTrace({100, 1000, 20.0, 0.0}, &gen_rng);
  ASSERT_TRUE(history.ok());
  UpdateForecaster forecaster;
  Rng rng(11);
  auto forecast = forecaster.Forecast(*history, 1000, &rng);
  ASSERT_TRUE(forecast.ok());
  // Forecast intensity over an equal horizon should approximate the
  // historical intensity.
  double predicted_mean = forecast->MeanIntensity();
  double observed_mean = history->MeanIntensity();
  EXPECT_NEAR(predicted_mean, observed_mean, observed_mean * 0.25);
}

TEST(ForecasterTest, SilentResourcesStaySilent) {
  UpdateTrace history(3, 500);
  ASSERT_TRUE(history.AddEvent(0, 10).ok());
  UpdateForecaster forecaster;
  Rng rng(13);
  auto forecast = forecaster.Forecast(history, 200, &rng);
  ASSERT_TRUE(forecast.ok());
  // Resources 1 and 2 have no history; smoothing keeps a tiny rate but
  // min_rate filtering is not triggered (0.5/500 = 1e-3 > 1e-4), so a
  // few spurious events may appear; resource with a single event should
  // produce a comparable trickle. Mainly: no crash, valid bounds.
  for (ResourceId r = 0; r < 3; ++r) {
    for (Chronon t : forecast->EventsFor(r)) {
      EXPECT_GE(t, 500);
      EXPECT_LT(t, 700);
    }
  }
}

TEST(ForecasterTest, WindowedShiftsToZero) {
  UpdateTrace history(1, 100);
  for (Chronon t = 0; t < 100; t += 10) {
    ASSERT_TRUE(history.AddEvent(0, t).ok());
  }
  UpdateForecaster forecaster;
  Rng rng(17);
  auto windowed = forecaster.ForecastWindowed(history, 50, &rng);
  ASSERT_TRUE(windowed.ok());
  EXPECT_EQ(windowed->epoch_length(), 50);
  for (Chronon t : windowed->EventsFor(0)) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, 50);
  }
  EXPECT_FALSE(windowed->EventsFor(0).empty());
}

TEST(ForecasterTest, RejectsBadHorizon) {
  UpdateTrace history(1, 10);
  UpdateForecaster forecaster;
  Rng rng(1);
  EXPECT_FALSE(forecaster.Forecast(history, 0, &rng).ok());
  EXPECT_FALSE(forecaster.Forecast(history, -5, &rng).ok());
}

// --- EstimationSession ---------------------------------------------------

/// One successful probe delivering the given update chronons.
ProbeObservation Delivery(ResourceId resource, Chronon probed_at,
                          std::vector<Chronon> updates) {
  ProbeObservation obs;
  obs.resource = resource;
  obs.probed_at = probed_at;
  obs.success = true;
  obs.update_chronons = std::move(updates);
  return obs;
}

TEST(EstimationSessionTest, CountsAndDeduplicatesObservations) {
  EstimationSession session(2, 100);
  session.Ingest(Delivery(0, 10, {3, 7}));
  // Buffer overlap: the next probe re-delivers event 7 alongside a new
  // one; the duplicate must not inflate the rate model.
  session.Ingest(Delivery(0, 20, {7, 15}));
  ProbeObservation nm;
  nm.resource = 1;
  nm.probed_at = 20;
  nm.success = true;
  nm.not_modified = true;
  session.Ingest(nm);
  ProbeObservation failed;
  failed.resource = 1;
  failed.probed_at = 30;
  session.Ingest(failed);

  EXPECT_EQ(session.stats().estimation_probes_observed, 4u);
  EXPECT_EQ(session.stats().estimation_update_events, 3u);
  EXPECT_EQ(session.stats().estimation_duplicate_events, 1u);
  EXPECT_EQ(session.stats().estimation_not_modified, 1u);
  EXPECT_EQ(session.LastProbe(0), 20);
  // A failed probe still moves the staleness clock.
  EXPECT_EQ(session.LastProbe(1), 30);
  EXPECT_GT(session.RateAt(0, 20), 0.0);
  EXPECT_DOUBLE_EQ(session.RateAt(1, 30), 0.0);
}

TEST(EstimationSessionTest, LearnsPeriodicPatternFromCensoredProbes) {
  // Period-10 updates observed through sparse probes (every third
  // event's items arrive batched) — the detector must still lock on and
  // the forecast must continue the grid.
  EstimationSession session(1, 400);
  for (Chronon probe = 30; probe <= 210; probe += 30) {
    session.Ingest(
        Delivery(0, probe, {probe - 25, probe - 15, probe - 5}));
  }
  ASSERT_TRUE(session.PatternFor(0).has_value());
  EXPECT_EQ(session.PatternFor(0)->period, 10);
  EXPECT_EQ(session.PeriodicResources(), 1u);

  std::vector<Chronon> predicted = session.PredictEvents(0, 210, 250);
  ASSERT_EQ(predicted.size(), 4u);
  for (Chronon u : predicted) {
    EXPECT_EQ((u - session.PatternFor(0)->phase) %
                  session.PatternFor(0)->period,
              0)
        << "event " << u << " off the grid";
  }
}

TEST(EstimationSessionTest, SilentAndUnprobedResourcesPredictNothing) {
  EstimationSession session(2, 100);
  EXPECT_TRUE(session.PredictEvents(0, 0, 100).empty());
  // A long-decayed burst drops below min_rate and goes silent again.
  EstimationOptions options;
  options.half_life = 2.0;
  EstimationSession decayed(1, 10000, options);
  decayed.Ingest(Delivery(0, 5, {1, 2, 3}));
  EXPECT_TRUE(decayed.PredictEvents(0, 9000, 9100).empty());
}

}  // namespace
}  // namespace pullmon
