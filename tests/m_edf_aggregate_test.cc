// Property tests of the maintained M-EDF aggregate (DESIGN.md section
// 4.2): MEdfPolicy::Score reads EdfAggregate in O(1) and must equal the
// sibling scan MEdfPolicy::Value *exactly* (==, not DOUBLE_EQ) — the
// closed form is integer arithmetic, so any difference is a bookkeeping
// bug, never rounding.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamic_monitor.h"
#include "policies/m_edf.h"
#include "test_instances.h"
#include "util/random.h"
#include "util/string_util.h"

namespace pullmon {
namespace {

/// Random t-interval of 1-8 EIs over 4 resources in a 40-chronon epoch,
/// with alternatives (required < size) half of the time.
TInterval RandomTInterval(Rng* rng) {
  TInterval eta;
  const int size = static_cast<int>(rng->NextInt(1, 8));
  for (int i = 0; i < size; ++i) {
    const auto start = static_cast<Chronon>(rng->NextInt(0, 39));
    const auto finish = static_cast<Chronon>(rng->NextInt(start, 39));
    eta.AddEi(ExecutionInterval(static_cast<ResourceId>(rng->NextInt(0, 3)),
                                start, finish));
  }
  if (size >= 2 && rng->NextBool(0.5)) {
    eta.set_required(static_cast<std::size_t>(rng->NextInt(1, size - 1)));
  }
  return eta;
}

// The algebra under arbitrary capture orders: the aggregate is updated
// event by event (windows open, random active EIs get captured until the
// required count is met; expired uncaptured EIs stay in both terms) and
// checked against the scan at every chronon up to a random horizon.
TEST(MEdfAggregateTest, ClosedFormEqualsScanUnderRandomCaptureOrders) {
  Rng rng(20261019);
  MEdfPolicy policy;
  int checks = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const TInterval eta = RandomTInterval(&rng);
    TIntervalRuntime rt;
    rt.source = &eta;
    rt.ei_captured.assign(eta.size(), 0);
    rt.edf = ScanEdfAggregate(rt, -1);
    const auto horizon = static_cast<Chronon>(rng.NextInt(0, 39));
    for (Chronon now = 0; now <= horizon; ++now) {
      for (const ExecutionInterval& ei : eta.eis()) {
        if (ei.start == now) ++rt.edf.num_started;
      }
      ASSERT_EQ(rt.edf, ScanEdfAggregate(rt, now))
          << "trial " << trial << " chronon " << now;
      ASSERT_EQ(policy.Score(eta.eis()[0], rt, 0, now),
                MEdfPolicy::Value(rt, now))
          << "trial " << trial << " chronon " << now;
      ++checks;
      // Capture a random subset of the active uncaptured EIs, in a
      // random order, until the t-interval completes.
      std::vector<int> order;
      for (std::size_t i = 0; i < eta.size(); ++i) {
        if (!rt.ei_captured[i] && eta.eis()[i].Contains(now)) {
          order.push_back(static_cast<int>(i));
        }
      }
      rng.Shuffle(&order);
      for (int i : order) {
        if (rt.num_captured >= rt.Required() || !rng.NextBool(0.4)) break;
        rt.ei_captured[static_cast<std::size_t>(i)] = 1;
        ++rt.num_captured;
        rt.edf.uncaptured_finish_sum -=
            eta.eis()[static_cast<std::size_t>(i)].finish;
      }
    }
  }
  EXPECT_GT(checks, 10000);
}

/// Wraps M-EDF and compares every Score() the monitor asks for against
/// the scan over the same parent at the same chronon.
class ScanCheckingPolicy : public Policy {
 public:
  std::string name() const override { return "M-EDF (checked)"; }
  PolicyLevel level() const override { return PolicyLevel::kMultiEi; }
  double Score(const ExecutionInterval& ei, const TIntervalRuntime& parent,
               int ei_index, Chronon now) override {
    const double score = inner_.Score(ei, parent, ei_index, now);
    const double scan = MEdfPolicy::Value(parent, now);
    ++calls_;
    if (score != scan && first_mismatch_.empty()) {
      first_mismatch_ = StringFormat(
          "chronon %d, resource %d: Score %.1f != Value %.1f", now,
          ei.resource, score, scan);
    }
    return score;
  }

  int calls() const { return calls_; }
  const std::string& first_mismatch() const { return first_mismatch_; }

 private:
  MEdfPolicy inner_;
  int calls_ = 0;
  std::string first_mismatch_;
};

// The monitor's maintenance: random instances with alternatives and
// non-uniform budgets, random probe failures (so captures land in a
// random order), serial and 16-shard partitions, a cancel mid-epoch and
// a Capture/Restore into a fresh monitor at a random chronon. Every
// score the monitor computes must equal the scan.
class MonitorAggregateTest : public testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, MonitorAggregateTest,
                         testing::Range<uint64_t>(1, 31));

TEST_P(MonitorAggregateTest, EveryMonitorScoreEqualsTheScan) {
  for (int shards : {1, 16}) {
    Rng rng(GetParam() * 7919 + static_cast<uint64_t>(shards));
    RandomInstanceOptions options;
    options.num_resources = 8;
    options.epoch_length = 30;
    options.num_t_intervals = 24;
    options.max_rank = 5;
    options.max_width = 8;
    options.budget = 3;
    options.random_alternatives = true;
    options.nonuniform_budget = true;
    const MonitoringProblem problem = MakeRandomInstance(options, &rng, 2);
    const Chronon restore_at =
        static_cast<Chronon>(rng.NextInt(1, options.epoch_length - 1));

    MonitorOptions monitor_options;
    monitor_options.shards = shards;
    ScanCheckingPolicy policy;
    auto make_monitor = [&]() {
      auto monitor = std::make_unique<DynamicMonitor>(
          problem.num_resources, problem.epoch.length, problem.budget,
          &policy, ExecutionMode::kPreemptive, monitor_options);
      monitor->set_probe_callback(
          [&rng](ResourceId, Chronon) { return !rng.NextBool(0.3); });
      return monitor;
    };
    auto monitor = make_monitor();
    std::vector<ProfileId> ids;
    for (const Profile& profile : problem.profiles) {
      ids.push_back(monitor->RegisterProfile(profile.name()));
      for (const TInterval& eta : profile.t_intervals()) {
        ASSERT_TRUE(monitor->SubmitStable(ids.back(), &eta).ok());
      }
    }
    for (Chronon t = 0; t < problem.epoch.length; ++t) {
      if (t == restore_at) {
        // Withdraw one submission if it is still live, then resume the
        // run from an image on a fresh monitor.
        (void)monitor->Cancel(ids[0], 0);
        const MonitorImage image = monitor->Capture();
        std::vector<TInterval> definitions;
        for (const Profile& profile : problem.profiles) {
          for (const TInterval& eta : profile.t_intervals()) {
            definitions.push_back(eta);
          }
        }
        monitor = make_monitor();
        ASSERT_TRUE(monitor->Restore(image, std::move(definitions)).ok());
      }
      ASSERT_TRUE(monitor->Step().ok());
      const Status audit = monitor->CheckInvariants();
      ASSERT_TRUE(audit.ok()) << audit.ToString();
    }
    EXPECT_GT(policy.calls(), 0);
    EXPECT_EQ(policy.first_mismatch(), "") << shards << " shard(s)";
  }
}

}  // namespace
}  // namespace pullmon
