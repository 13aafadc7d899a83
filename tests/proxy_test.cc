#include "sim/proxy.h"

#include <cstdint>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "policies/mrsf.h"
#include "policies/s_edf.h"
#include "sim/config.h"
#include "sim/experiment.h"

namespace pullmon {
namespace {

struct Fixture {
  UpdateTrace trace{2, 12};
  MonitoringProblem problem;

  Fixture() {
    EXPECT_TRUE(trace.AddEvent(0, 1).ok());
    EXPECT_TRUE(trace.AddEvent(0, 6).ok());
    EXPECT_TRUE(trace.AddEvent(1, 3).ok());
    problem.num_resources = 2;
    problem.epoch.length = 12;
    problem.budget = BudgetVector::Uniform(1, 12);
    // Simple overwrite-style windows derived by hand from the trace.
    problem.profiles = {
        Profile("watch-r0",
                {TInterval({{0, 1, 5}}), TInterval({{0, 6, 11}})}),
        Profile("pair", {TInterval({{0, 1, 5}, {1, 3, 8}})}),
    };
  }
};

TEST(MonitoringProxyTest, EndToEndPullParsePush) {
  Fixture fx;
  FeedNetwork network(&fx.trace, 8);
  SEdfPolicy policy;
  MonitoringProxy proxy(&fx.problem, &network, &policy,
                        ExecutionMode::kPreemptive);
  auto report = proxy.Run();
  ASSERT_TRUE(report.ok());
  // All three t-intervals are capturable with C=1.
  EXPECT_EQ(report->run.t_intervals_completed, 3u);
  EXPECT_EQ(report->notifications_delivered, 3u);
  EXPECT_EQ(proxy.notifications().size(), 3u);
  // Every probe fetched a feed document and parsed it.
  EXPECT_EQ(report->feeds_fetched, report->run.probes_used);
  EXPECT_EQ(report->parse_failures, 0u);
  EXPECT_GT(report->feed_bytes, 0u);
}

TEST(MonitoringProxyTest, NotificationsCarryContext) {
  Fixture fx;
  FeedNetwork network(&fx.trace, 8);
  MrsfPolicy policy;
  MonitoringProxy proxy(&fx.problem, &network, &policy,
                        ExecutionMode::kPreemptive);
  auto report = proxy.Run();
  ASSERT_TRUE(report.ok());
  for (const auto& notification : proxy.notifications()) {
    EXPECT_GE(notification.profile, 0);
    EXPECT_LT(notification.profile, 2);
    EXPECT_GE(notification.chronon, 0);
    EXPECT_LT(notification.chronon, 12);
    // The capture chronon's fetch payload is attached.
    EXPECT_FALSE(notification.items.empty());
  }
}

TEST(MonitoringProxyTest, FetchCountsMatchServers) {
  Fixture fx;
  FeedNetwork network(&fx.trace, 8);
  SEdfPolicy policy;
  MonitoringProxy proxy(&fx.problem, &network, &policy,
                        ExecutionMode::kPreemptive);
  auto report = proxy.Run();
  ASSERT_TRUE(report.ok());
  std::size_t total_fetches = 0;
  for (ResourceId r = 0; r < 2; ++r) {
    total_fetches += network.server(r)->fetch_count();
  }
  EXPECT_EQ(total_fetches, report->feeds_fetched);
}

TEST(MonitoringProxyTest, StaticRunScoresTheProblemWithoutChurnStats) {
  // The whole problem is submitted before chronon 0; the report scores
  // it against the problem itself and carries no churn, although the
  // monitor counts every up-front submission as churn_submitted.
  Fixture fx;
  FeedNetwork network(&fx.trace, 8);
  MrsfPolicy policy;
  MonitoringProxy proxy(&fx.problem, &network, &policy,
                        ExecutionMode::kPreemptive);
  auto report = proxy.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->run.completeness.total_t_intervals,
            fx.problem.TotalTIntervalCount());
  EXPECT_TRUE(static_cast<const ChurnStats&>(*report) == ChurnStats{});

  // An empty t-interval never reaches the monitor: the problem check
  // rejects it before anything is submitted.
  fx.problem.profiles.push_back(Profile("empty", {TInterval()}));
  MonitoringProxy rejected(&fx.problem, &network, &policy,
                           ExecutionMode::kPreemptive);
  EXPECT_EQ(rejected.Run().status().code(), StatusCode::kInvalidArgument);
}

TEST(MonitoringProxyTest, ZeroFaultRatesAreAnExactNoOp) {
  // Regression guard for the fault layer: all-zero rates must leave
  // every report field bit-identical to a proxy built without
  // ProxyOptions at all, for every standard policy shape.
  Fixture fx;
  for (ExecutionMode mode :
       {ExecutionMode::kPreemptive, ExecutionMode::kNonPreemptive}) {
    FeedNetwork n1(&fx.trace, 8), n2(&fx.trace, 8);
    SEdfPolicy p1, p2;
    MonitoringProxy plain(&fx.problem, &n1, &p1, mode);
    ProxyOptions zeroed;
    zeroed.fault_seed = 0xDEADBEEF;  // seed is irrelevant when rates are 0
    zeroed.retry.max_retries = 4;    // retries never trigger without faults
    MonitoringProxy faulted(&fx.problem, &n2, &p2, mode, zeroed);
    auto r1 = plain.Run();
    auto r2 = faulted.Run();
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    EXPECT_DOUBLE_EQ(r1->run.completeness.GainedCompleteness(),
                     r2->run.completeness.GainedCompleteness());
    EXPECT_EQ(r1->run.probes_used, r2->run.probes_used);
    EXPECT_EQ(r1->notifications_delivered, r2->notifications_delivered);
    EXPECT_EQ(r1->feeds_fetched, r2->feeds_fetched);
    EXPECT_EQ(r1->feed_bytes, r2->feed_bytes);
    EXPECT_EQ(r1->items_parsed, r2->items_parsed);
    EXPECT_EQ(r2->probes_failed, 0u);
    EXPECT_EQ(r2->retries_issued, 0u);
    EXPECT_EQ(r2->corrupt_bodies, 0u);
    EXPECT_DOUBLE_EQ(r2->gc_lost_to_faults, 0.0);
  }
}

TEST(MonitoringProxyTest, CertainCorruptionFailsEveryParse) {
  Fixture fx;
  FeedNetwork network(&fx.trace, 8);
  SEdfPolicy policy;
  ProxyOptions options;
  options.faults.corruption_rate = 1.0;
  MonitoringProxy proxy(&fx.problem, &network, &policy,
                        ExecutionMode::kPreemptive, options);
  auto report = proxy.Run();
  ASSERT_TRUE(report.ok());
  // Every fetched body is mangled, every parse fails, nothing is
  // captured or delivered — but the proxy never crashes or errors.
  EXPECT_GT(report->corrupt_bodies, 0u);
  EXPECT_EQ(report->parse_failures, report->corrupt_bodies);
  EXPECT_GT(report->probes_failed, 0u);
  EXPECT_EQ(report->notifications_delivered, 0u);
  EXPECT_EQ(report->run.t_intervals_completed, 0u);
}

TEST(MonitoringProxyTest, CertainTimeoutsNeverTouchTheNetwork) {
  Fixture fx;
  FeedNetwork network(&fx.trace, 8);
  MrsfPolicy policy;
  ProxyOptions options;
  options.faults.timeout_rate = 1.0;
  MonitoringProxy proxy(&fx.problem, &network, &policy,
                        ExecutionMode::kPreemptive, options);
  auto report = proxy.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->timeouts, 0u);
  EXPECT_EQ(report->feeds_fetched, 0u);
  EXPECT_EQ(report->feed_bytes, 0u);
  for (ResourceId r = 0; r < 2; ++r) {
    EXPECT_EQ(network.server(r)->fetch_count(), 0u);
  }
  // Every failed probe's doomed t-interval is attributed to faults.
  EXPECT_DOUBLE_EQ(report->run.completeness.GainedCompleteness(), 0.0);
  EXPECT_DOUBLE_EQ(report->gc_lost_to_faults, 1.0);
}

TEST(MonitoringProxyTest, RunIsRepeatableAcrossProxies) {
  Fixture fx;
  FeedNetwork n1(&fx.trace, 8), n2(&fx.trace, 8);
  SEdfPolicy p1, p2;
  MonitoringProxy proxy1(&fx.problem, &n1, &p1,
                         ExecutionMode::kPreemptive);
  MonitoringProxy proxy2(&fx.problem, &n2, &p2,
                         ExecutionMode::kPreemptive);
  auto r1 = proxy1.Run();
  auto r2 = proxy2.Run();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->run.probes_used, r2->run.probes_used);
  EXPECT_EQ(r1->notifications_delivered, r2->notifications_delivered);
}

/// FNV-1a over every notification's context and payload, in delivery
/// order. Integers enter as 8 little-endian bytes, strings as their
/// length followed by their bytes, so field boundaries are unambiguous.
class PayloadDigest {
 public:
  void Add(const ProxyNotification& n) {
    MixInt(static_cast<uint64_t>(n.profile));
    MixInt(static_cast<uint64_t>(n.t_interval_index));
    MixInt(static_cast<uint64_t>(n.chronon));
    MixInt(n.items.size());
    for (const FeedItem& item : n.items) {
      MixString(item.guid);
      MixString(item.title);
      MixString(item.link);
      MixString(item.description);
      MixInt(static_cast<uint64_t>(item.published));
    }
  }
  uint64_t value() const { return h_; }

 private:
  void MixByte(unsigned char c) {
    h_ ^= c;
    h_ *= 1099511628211ULL;
  }
  void MixInt(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      MixByte(static_cast<unsigned char>(v >> (8 * i)));
    }
  }
  void MixString(std::string_view s) {
    MixInt(s.size());
    for (char c : s) MixByte(static_cast<unsigned char>(c));
  }

  uint64_t h_ = 1469598103934665603ULL;
};

SimulationConfig PayloadConfig() {
  SimulationConfig config = BaselineConfig();
  config.num_resources = 25;
  config.num_profiles = 35;
  config.epoch_length = 150;
  config.lambda = 8.0;
  config.budget = 2;
  return config;
}

/// Runs the proxy path of `config` and returns its notifications.
std::vector<ProxyNotification> RunNotifications(
    const SimulationConfig& config) {
  RunSubstrate sub;
  const PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  Status built = BuildSubstrate(config, spec, 4242, &sub);
  EXPECT_TRUE(built.ok()) << built.ToString();
  if (!built.ok()) return {};
  MonitoringProxy proxy(&sub.problem, &*sub.network, sub.policy.get(),
                        spec.mode, sub.proxy);
  auto report = proxy.Run();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) return {};
  EXPECT_EQ(report->notifications_delivered, proxy.notifications().size());
  return proxy.notifications();
}

/// Golden payload of PayloadConfig()'s clean run, recorded before
/// notifications shared their chronon's item batch.
constexpr std::size_t kCleanNotifications = 252;
constexpr uint64_t kCleanDigest = 0x63a38772e2251e80ULL;

uint64_t DigestOf(const std::vector<ProxyNotification>& notifications) {
  PayloadDigest digest;
  for (const ProxyNotification& n : notifications) digest.Add(n);
  return digest.value();
}

TEST(MonitoringProxyTest, NotificationPayloadsArePinned) {
  // Golden digests of every pushed payload. A change to the data plane
  // (how items are parsed, batched or shared) must not move one byte
  // of what a client receives.
  SimulationConfig clean = PayloadConfig();

  SimulationConfig faulty = PayloadConfig();
  faulty.faults.timeout_rate = 0.1;
  faulty.faults.server_error_rate = 0.05;
  faulty.faults.truncation_rate = 0.05;
  faulty.faults.corruption_rate = 0.05;
  faulty.faults.etag_storm_rate = 0.1;
  faulty.faults.outage_enter_rate = 0.02;
  faulty.faults.outage_exit_rate = 0.3;
  faulty.retry.max_retries = 2;
  faulty.breaker.enabled = true;
  faulty.breaker.failure_threshold = 3;

  SimulationConfig cached = PayloadConfig();
  cached.parse_cache = true;

  struct Case {
    const char* name;
    SimulationConfig config;
    std::size_t notifications;
    uint64_t digest;
  };
  const Case cases[] = {
      {"clean", clean, kCleanNotifications, kCleanDigest},
      {"faulty+breaker", faulty, 246, 0x5082748f533b4f26ULL},
      // The parse cache replays byte-identical documents.
      {"parse_cache", cached, kCleanNotifications, kCleanDigest},
  };
  for (const Case& c : cases) {
    const std::vector<ProxyNotification> notes = RunNotifications(c.config);
    EXPECT_EQ(notes.size(), c.notifications) << c.name;
    EXPECT_EQ(DigestOf(notes), c.digest) << c.name;
  }
}

TEST(MonitoringProxyTest, NotificationsOutliveTheProxy) {
  // Payloads are owned by the notifications themselves: the copies
  // RunNotifications returns are read after the proxy, its network and
  // its pull session are gone (run under AddressSanitizer to catch a
  // dangling batch).
  const std::vector<ProxyNotification> copies =
      RunNotifications(PayloadConfig());
  ASSERT_EQ(copies.size(), kCleanNotifications);
  std::size_t items = 0;
  for (const ProxyNotification& n : copies) {
    for (const FeedItem& item : n.items) {
      EXPECT_FALSE(item.guid.empty());
      ++items;
    }
  }
  EXPECT_GT(items, 0u);
  EXPECT_EQ(DigestOf(copies), kCleanDigest);
}

}  // namespace
}  // namespace pullmon
