#include "feeds/fault_injection.h"

#include <algorithm>
#include <initializer_list>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "feeds/atom.h"
#include "feeds/parse_cache.h"
#include "policies/mrsf.h"
#include "policies/s_edf.h"
#include "sim/experiment.h"
#include "sim/proxy.h"
#include "trace/poisson_generator.h"
#include "util/hash.h"

namespace pullmon {
namespace {

SimulationConfig SmallConfig() {
  SimulationConfig config = BaselineConfig();
  config.num_resources = 30;
  config.num_profiles = 40;
  config.epoch_length = 200;
  config.lambda = 8.0;
  config.budget = 2;
  return config;
}

FaultOptions HeavyFaults() {
  FaultOptions faults;
  faults.timeout_rate = 0.1;
  faults.server_error_rate = 0.1;
  faults.truncation_rate = 0.1;
  faults.corruption_rate = 0.1;
  faults.etag_storm_rate = 0.05;
  faults.etag_storm_length = 4;
  faults.latency_mean = 0.2;
  return faults;
}

TEST(FaultOptionsTest, ValidationRejectsMalformedRates) {
  FaultOptions faults;
  EXPECT_TRUE(faults.Validate().ok());
  EXPECT_TRUE(faults.AllZero());
  faults.timeout_rate = 1.5;
  EXPECT_FALSE(faults.Validate().ok());
  faults = FaultOptions{};
  faults.corruption_rate = -0.2;
  EXPECT_FALSE(faults.Validate().ok());
  faults = FaultOptions{};
  faults.etag_storm_rate = 0.1;
  faults.etag_storm_length = 0;
  EXPECT_FALSE(faults.Validate().ok());
  faults = FaultOptions{};
  faults.latency_mean = -1.0;
  EXPECT_FALSE(faults.Validate().ok());
  faults = FaultOptions{};
  faults.latency_timeout = 0.0;
  EXPECT_FALSE(faults.Validate().ok());
  faults = FaultOptions{};
  faults.outage_enter_rate = 1.5;
  EXPECT_FALSE(faults.Validate().ok());
  faults = FaultOptions{};
  faults.outage_enter_rate = -0.1;
  EXPECT_FALSE(faults.Validate().ok());
  faults = FaultOptions{};
  faults.outage_exit_rate = 2.0;
  EXPECT_FALSE(faults.Validate().ok());
  // A non-zero exit rate alone keeps AllZero true: no resource can ever
  // enter an outage, so the layer is still a pass-through.
  faults = FaultOptions{};
  faults.outage_exit_rate = 0.5;
  EXPECT_TRUE(faults.Validate().ok());
  EXPECT_TRUE(faults.AllZero());
  faults.outage_enter_rate = 0.01;
  EXPECT_FALSE(faults.AllZero());
}

TEST(FaultPlanTest, SameSeedSameFaultSequence) {
  // Probing the plan directly (no scheduler in the loop) must replay a
  // bit-identical fault and body sequence for equal seeds.
  Rng rng(3);
  auto trace = GeneratePoissonTrace({5, 100, 10.0, 0.0}, &rng);
  ASSERT_TRUE(trace.ok());
  auto run_sequence = [&](uint64_t seed) {
    FeedNetwork network(&*trace, 6);
    FaultPlan plan(&network, seed, HeavyFaults());
    std::vector<std::string> bodies;
    std::vector<int> kinds;
    for (Chronon t = 0; t < 100; ++t) {
      plan.AdvanceTo(t);
      for (ResourceId r = 0; r < 5; ++r) {
        auto outcome = plan.ProbeConditional(r, "");
        EXPECT_TRUE(outcome.ok());
        kinds.push_back(static_cast<int>(outcome->fault));
        bodies.push_back(std::string(outcome->fetch.body));
      }
    }
    return std::make_tuple(kinds, bodies, plan.stats());
  };
  auto [kinds1, bodies1, stats1] = run_sequence(99);
  auto [kinds2, bodies2, stats2] = run_sequence(99);
  EXPECT_EQ(kinds1, kinds2);
  EXPECT_EQ(bodies1, bodies2);
  EXPECT_TRUE(stats1 == stats2);
  // A different seed draws a different sequence (500 probes at these
  // rates collide with negligible probability).
  auto [kinds3, bodies3, stats3] = run_sequence(100);
  EXPECT_NE(kinds1, kinds3);
}

TEST(FaultPlanTest, UnknownResourceIsNotFound) {
  Rng rng(17);
  auto trace = GeneratePoissonTrace({2, 20, 5.0, 0.0}, &rng);
  ASSERT_TRUE(trace.ok());
  FeedNetwork network(&*trace, 6);
  FaultPlan plan(&network, 1, HeavyFaults());
  EXPECT_FALSE(plan.ProbeConditional(7, "").ok());
  EXPECT_FALSE(plan.ProbeConditional(-1, "").ok());
}

TEST(FaultPlanTest, EtagStormForcesFullBodies) {
  Rng rng(19);
  auto trace = GeneratePoissonTrace({1, 50, 20.0, 0.0}, &rng);
  ASSERT_TRUE(trace.ok());
  FeedNetwork network(&*trace, 8);
  network.AdvanceTo(49);
  FaultOptions faults;
  faults.etag_storm_rate = 1.0;  // every probe is inside a storm
  faults.etag_storm_length = 1000;
  FaultPlan plan(&network, 23, faults);
  std::string etag;
  for (int i = 0; i < 10; ++i) {
    auto outcome = plan.ProbeConditional(0, etag);
    ASSERT_TRUE(outcome.ok());
    // The validator never stabilizes: every fetch pays for a full body.
    EXPECT_FALSE(outcome->fetch.not_modified);
    EXPECT_FALSE(outcome->fetch.body.empty());
    etag = outcome->fetch.etag;
  }
  EXPECT_EQ(plan.stats().etag_invalidations, 10u);
  EXPECT_EQ(plan.stats().storms_started, 1u);
}

TEST(FaultPlanTest, OutageTrajectoryIndependentOfProbeOrder) {
  // The Gilbert-Elliott chain is evaluated lazily from dedicated
  // per-resource streams: whether resource r is dark at chronon t must
  // depend only on (seed, r, t) — never on how many probes were issued,
  // in what order, or whether other chronons were skipped entirely.
  Rng rng(53);
  auto trace = GeneratePoissonTrace({4, 200, 5.0, 0.0}, &rng);
  ASSERT_TRUE(trace.ok());
  FaultOptions faults;
  faults.outage_enter_rate = 0.05;
  faults.outage_exit_rate = 0.2;

  // Arm A: probe every resource at every chronon, in resource order.
  FeedNetwork network_a(&*trace, 6);
  FaultPlan plan_a(&network_a, 4711, faults);
  std::vector<std::vector<bool>> dark_a(4);
  for (Chronon t = 0; t < 200; ++t) {
    plan_a.AdvanceTo(t);
    for (ResourceId r = 0; r < 4; ++r) {
      auto outcome = plan_a.ProbeConditional(r, "");
      ASSERT_TRUE(outcome.ok());
      dark_a[static_cast<std::size_t>(r)].push_back(
          outcome->fault == FaultPlan::FaultKind::kOutage);
    }
  }

  // Arm B: reversed resource order, every third chronon only, and
  // repeated probes of resource 0 — the trajectory must not move.
  FeedNetwork network_b(&*trace, 6);
  FaultPlan plan_b(&network_b, 4711, faults);
  for (Chronon t = 0; t < 200; t += 3) {
    plan_b.AdvanceTo(t);
    for (ResourceId r = 3; r >= 0; --r) {
      auto outcome = plan_b.ProbeConditional(r, "");
      ASSERT_TRUE(outcome.ok());
      EXPECT_EQ(outcome->fault == FaultPlan::FaultKind::kOutage,
                dark_a[static_cast<std::size_t>(r)]
                      [static_cast<std::size_t>(t)])
          << "resource " << r << " chronon " << t;
    }
    auto again = plan_b.ProbeConditional(0, "");
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->fault == FaultPlan::FaultKind::kOutage,
              dark_a[0][static_cast<std::size_t>(t)])
        << "repeat probe, chronon " << t;
  }

  // The sweep actually produced outages, and the stats counted them.
  std::size_t dark_total = 0;
  for (const auto& row : dark_a) {
    for (bool dark : row) dark_total += dark ? 1u : 0u;
  }
  EXPECT_GT(dark_total, 0u);
  EXPECT_EQ(plan_a.stats().outage_probes, dark_total);
  EXPECT_GT(plan_a.stats().outages_entered, 0u);
  EXPECT_GT(plan_a.stats().outage_chronons, 0u);
}

TEST(FaultPlanTest, OutagesFormCorrelatedStretches) {
  // With a low exit rate a dark resource stays dark: consecutive dark
  // chronons must appear (mean stretch 1/exit = 10), unlike the
  // memoryless per-probe faults.
  Rng rng(59);
  auto trace = GeneratePoissonTrace({1, 400, 5.0, 0.0}, &rng);
  ASSERT_TRUE(trace.ok());
  FeedNetwork network(&*trace, 6);
  FaultOptions faults;
  faults.outage_enter_rate = 0.05;
  faults.outage_exit_rate = 0.1;
  FaultPlan plan(&network, 97, faults);
  int longest = 0, current = 0;
  for (Chronon t = 0; t < 400; ++t) {
    plan.AdvanceTo(t);
    auto outcome = plan.ProbeConditional(0, "");
    ASSERT_TRUE(outcome.ok());
    if (outcome->fault == FaultPlan::FaultKind::kOutage) {
      ++current;
      longest = std::max(longest, current);
    } else {
      current = 0;
    }
  }
  EXPECT_GE(longest, 3);
}

TEST(FaultPlanTest, OutageSwallowsProbeBeforePerProbeFaultDraws) {
  // A dark probe must not consume the resource's per-probe fault
  // stream: after recovery the resource sees exactly the fault
  // sequence it would have seen without the outage. (Restricted to
  // timeout/server-error faults, whose stream consumption is a pure
  // function of the stream state — corruption draws depend on the
  // fetched body, which legitimately differs by chronon.)
  Rng rng(61);
  auto trace = GeneratePoissonTrace({2, 150, 5.0, 0.0}, &rng);
  ASSERT_TRUE(trace.ok());
  FaultOptions simple;
  simple.timeout_rate = 0.2;
  simple.server_error_rate = 0.2;
  FaultOptions mixed = simple;
  mixed.outage_enter_rate = 0.1;
  mixed.outage_exit_rate = 0.3;
  // Per-resource fault-kind sequences; the mixed arm records only
  // non-dark probes (the ones that consumed a stream draw).
  auto collect = [&](const FaultOptions& options, bool skip_dark) {
    FeedNetwork network(&*trace, 6);
    FaultPlan plan(&network, 1234, options);
    std::vector<std::vector<int>> kinds(2);
    for (Chronon t = 0; t < 150; ++t) {
      plan.AdvanceTo(t);
      for (ResourceId r = 0; r < 2; ++r) {
        auto outcome = plan.ProbeConditional(r, "");
        EXPECT_TRUE(outcome.ok());
        bool dark =
            outcome->fault == FaultPlan::FaultKind::kOutage;
        if (dark && skip_dark) continue;
        kinds[static_cast<std::size_t>(r)].push_back(
            static_cast<int>(outcome->fault));
      }
    }
    return kinds;
  };
  std::vector<std::vector<int>> surviving =
      collect(mixed, /*skip_dark=*/true);
  std::vector<std::vector<int>> clean =
      collect(simple, /*skip_dark=*/false);
  for (std::size_t r = 0; r < 2; ++r) {
    // Outages swallowed some probes, so the surviving sequence is a
    // strict prefix-length subsequence of the clean one.
    ASSERT_LT(surviving[r].size(), clean[r].size()) << "resource " << r;
    ASSERT_GT(surviving[r].size(), 0u) << "resource " << r;
    clean[r].resize(surviving[r].size());
    EXPECT_EQ(surviving[r], clean[r]) << "resource " << r;
  }
}

TEST(FaultPlanTest, EveryFaultClassReplaysPinnedStream) {
  // Pins the order of draws from a resource's fault stream (outage,
  // latency, timeout, server error, latency timeout, storm, storm salt,
  // truncation/corruption, mangle seed) against values recorded once:
  // SameSeedSameFaultSequence only compares a run with itself, so a
  // reordered draw would pass it. The validator is fed back like a pull
  // session does, so 304s and storm-salted etags both occur.
  Rng rng(71);
  auto trace = GeneratePoissonTrace({1, 100, 3.0, 0.0}, &rng);
  ASSERT_TRUE(trace.ok());
  FaultOptions all;
  all.timeout_rate = 0.1;
  all.server_error_rate = 0.1;
  all.truncation_rate = 0.1;
  all.corruption_rate = 0.1;
  all.etag_storm_rate = 0.08;
  all.etag_storm_length = 3;
  all.latency_mean = 0.3;
  all.latency_timeout = 1.0;
  all.outage_enter_rate = 0.04;
  all.outage_exit_rate = 0.3;
  FeedNetwork network(&*trace, 6);
  FaultPlan plan(&network, 2024, all);
  // One letter per probe: o outage, t timeout, e server error, n 304,
  // T truncated, C corrupted, . clean full body.
  std::string fates;
  uint64_t etag_digest = 0;
  uint64_t body_digest = 0;
  std::string etag;
  for (Chronon t = 0; t < 100; ++t) {
    plan.AdvanceTo(t);
    for (int i = 0; i < 2; ++i) {
      auto outcome = plan.ProbeConditional(0, etag);
      ASSERT_TRUE(outcome.ok());
      char fate = '.';
      switch (outcome->fault) {
        case FaultPlan::FaultKind::kOutage:
          fate = 'o';
          break;
        case FaultPlan::FaultKind::kTimeout:
          fate = 't';
          break;
        case FaultPlan::FaultKind::kServerError:
          fate = 'e';
          break;
        case FaultPlan::FaultKind::kNone:
          fate = outcome->fetch.not_modified ? 'n'
                 : outcome->truncated        ? 'T'
                 : outcome->corrupted        ? 'C'
                                             : '.';
          break;
      }
      fates.push_back(fate);
      if (outcome->fault != FaultPlan::FaultKind::kNone) continue;
      etag_digest = etag_digest * 31 +
                    ParseCache::HashBody(outcome->fetch.etag);
      body_digest = body_digest * 31 +
                    ParseCache::HashBody(outcome->fetch.body);
      // Like a pull session: a mangled body keeps the old validator.
      if (!outcome->truncated && !outcome->corrupted) {
        etag = outcome->fetch.etag;
      }
    }
  }
  EXPECT_EQ(fates,
            ".ennnnnn....nnoonnoooontnn..Tt.ntnnneeenooooooooootnnnnnnnnnnn"
            "tennnn.nen..T.ntCt..te.nnneneTooooeCt.T.ennnnnt....nntT.C.tn"
            "nnntnn.Tt.e.nnnnnnntnnnententnnnnennnnnn.TTeT.tnttoooooooooo"
            "oooooooooooooooooo");
  EXPECT_EQ(etag_digest, 0x7d5ab12c191450c9ULL);
  EXPECT_EQ(body_digest, 0x69e9460f775a2b1eULL);
  const FaultStats& s = plan.stats();
  EXPECT_EQ(s.probes_seen, 200u);
  EXPECT_EQ(s.timeouts, 20u);
  EXPECT_EQ(s.server_errors, 16u);
  EXPECT_EQ(s.truncations, 9u);
  EXPECT_EQ(s.corruptions, 3u);
  EXPECT_EQ(s.storms_started, 9u);
  EXPECT_EQ(s.etag_invalidations, 27u);
  EXPECT_EQ(s.outage_probes, 48u);
  EXPECT_EQ(s.outages_entered, 5u);
  EXPECT_EQ(s.outage_chronons, 24u);
  EXPECT_EQ(s.latency_total, 0x1.9d8b61d148eb3p+6);
  EXPECT_EQ(s.latency_max, 0x1.95867c1e8f589p+0);
}

/// Allocates blocks around each of `sizes` bytes and fills them with a
/// byte no feed body or validator contains: a view into memory freed
/// just before reads changed bytes afterwards.
std::vector<std::string> ChurnHeap(std::initializer_list<std::size_t> sizes) {
  std::vector<std::string> blocks;
  for (std::size_t size : sizes) {
    for (std::size_t delta = 0; delta <= 64; delta += 8) {
      blocks.emplace_back(size + delta, '\x7f');
      if (size > delta) blocks.emplace_back(size - delta, '\x7f');
    }
  }
  return blocks;
}

TEST(FaultPlanTest, DeliveredViewsMatchTwinAndHoldUntilNextProbe) {
  // The plan hands out views: bytes it leaves alone are the wrapped
  // server's (a truncated body is a prefix of them), bytes it changes
  // live in the plan's scratch buffers. A twin network over the same
  // trace serves what the server really held. Each delivery is hashed
  // before anything allocates, the heap is churned, and the views must
  // still hash the same: a view into a temporary the plan already freed
  // reads the churned bytes (or trips AddressSanitizer).
  Rng rng(83);
  auto trace = GeneratePoissonTrace({3, 200, 4.0, 0.0}, &rng);
  ASSERT_TRUE(trace.ok());
  FaultOptions all;
  all.timeout_rate = 0.08;
  all.server_error_rate = 0.08;
  all.truncation_rate = 0.12;
  all.corruption_rate = 0.12;
  all.etag_storm_rate = 0.1;
  all.etag_storm_length = 3;
  all.latency_mean = 0.2;
  all.outage_enter_rate = 0.02;
  all.outage_exit_rate = 0.3;
  FeedNetwork network(&*trace, 6);
  FeedNetwork twin(&*trace, 6);
  FaultPlan plan(&network, 4242, all);
  std::vector<std::string> etags(3);
  std::size_t clean = 0, not_modified = 0, truncated = 0, corrupted = 0,
              salted = 0;
  for (Chronon t = 0; t < 200; ++t) {
    plan.AdvanceTo(t);
    twin.AdvanceTo(t);
    for (ResourceId r = 0; r < 3; ++r) {
      std::string& etag = etags[static_cast<std::size_t>(r)];
      auto outcome = plan.ProbeConditional(r, etag);
      ASSERT_TRUE(outcome.ok());
      if (outcome->fault != FaultPlan::FaultKind::kNone) continue;
      const FeedServer::ConditionalFetchView fetch = outcome->fetch;
      const uint64_t body_hash = Fnv1a64(fetch.body);
      const uint64_t etag_hash = Fnv1a64(fetch.etag);
      {
        std::vector<std::string> churn =
            ChurnHeap({fetch.body.size(), fetch.etag.size()});
        ASSERT_EQ(Fnv1a64(fetch.body), body_hash) << "chronon " << t;
        ASSERT_EQ(Fnv1a64(fetch.etag), etag_hash) << "chronon " << t;
      }

      auto served = twin.ProbeConditionalView(r, "");
      ASSERT_TRUE(served.ok());
      if (fetch.etag != served->etag) {
        // A storm-salted validator: the server's, plus the salt.
        ASSERT_EQ(fetch.etag.substr(0, served->etag.size()), served->etag);
        EXPECT_EQ(fetch.etag.substr(served->etag.size(), 6), "-storm");
        ++salted;
      }
      if (fetch.not_modified) {
        EXPECT_TRUE(fetch.body.empty());
        ++not_modified;
      } else if (outcome->truncated) {
        EXPECT_LT(fetch.body.size(), served->body.size());
        EXPECT_EQ(fetch.body, served->body.substr(0, fetch.body.size()));
        ++truncated;
      } else if (outcome->corrupted) {
        EXPECT_EQ(fetch.body.size(), served->body.size());
        EXPECT_NE(fetch.body, served->body);
        ++corrupted;
      } else {
        EXPECT_EQ(fetch.body, served->body) << "chronon " << t;
        ++clean;
      }
      if (!outcome->truncated && !outcome->corrupted) etag = fetch.etag;
    }
  }
  // Every fault class occurred, so every branch above was checked.
  EXPECT_GT(clean, 0u);
  EXPECT_GT(not_modified, 0u);
  EXPECT_GT(truncated, 0u);
  EXPECT_GT(corrupted, 0u);
  EXPECT_GT(salted, 0u);
  EXPECT_GT(plan.stats().timeouts, 0u);
  EXPECT_GT(plan.stats().server_errors, 0u);
  EXPECT_GT(plan.stats().outage_probes, 0u);
}

TEST(CorruptionGeneratorTest, TruncatedBodiesNeverParse) {
  Rng source(29);
  auto trace = GeneratePoissonTrace({1, 50, 20.0, 0.0}, &source);
  ASSERT_TRUE(trace.ok());
  FeedNetwork network(&*trace, 10);
  network.AdvanceTo(49);
  auto fetch = network.ProbeConditionalView(0, "");
  ASSERT_TRUE(fetch.ok());
  const std::string body(fetch->body);
  ASSERT_TRUE(ParseFeed(body).ok());
  Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    std::string mangled(TruncateBody(body, &rng));
    EXPECT_LT(mangled.size(), body.size());
    EXPECT_FALSE(ParseFeed(mangled).ok());
  }
}

TEST(CorruptionGeneratorTest, CorruptedBodiesNeverParse) {
  Rng source(37);
  auto trace = GeneratePoissonTrace({1, 50, 20.0, 0.0}, &source);
  ASSERT_TRUE(trace.ok());
  FeedNetwork network(&*trace, 10);
  network.AdvanceTo(49);
  auto fetch = network.ProbeConditionalView(0, "");
  ASSERT_TRUE(fetch.ok());
  const std::string body(fetch->body);
  Rng rng(41);
  for (int i = 0; i < 200; ++i) {
    std::string mangled = CorruptBody(body, &rng);
    EXPECT_EQ(mangled.size(), body.size());
    EXPECT_NE(mangled, body);
    EXPECT_FALSE(ParseFeed(mangled).ok());
  }
}

TEST(CorruptionGeneratorTest, DeterministicGivenGeneratorState) {
  std::string body(400, 'x');
  body = "<?xml version=\"1.0\"?><rss version=\"2.0\"><channel>" + body +
         "</channel></rss>\n";
  Rng a(43), b(43);
  EXPECT_EQ(TruncateBody(body, &a), TruncateBody(body, &b));
  EXPECT_EQ(CorruptBody(body, &a), CorruptBody(body, &b));
}

TEST(FaultInjectionEndToEnd, IdenticalSeedBitIdenticalReport) {
  SimulationConfig config = SmallConfig();
  config.faults = HeavyFaults();
  config.retry.max_retries = 2;
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  auto r1 = RunProxyOnce(config, spec, 77);
  auto r2 = RunProxyOnce(config, spec, 77);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  // The run actually exercised the fault machinery.
  EXPECT_GT(r1->probes_failed, 0u);
  EXPECT_GT(r1->retries_issued, 0u);
  EXPECT_GT(r1->corrupt_bodies, 0u);
  EXPECT_EQ(ReportDifference(*r1, *r2), "");
}

TEST(FaultInjectionEndToEnd, RepeatedProxyRunsReplayFaults) {
  // The same proxy object Run() twice on fresh networks would mutate
  // network state; instead verify that a single proxy's fault plan is
  // rebuilt per Run() by comparing against a fresh proxy+network pair.
  SimulationConfig config = SmallConfig();
  UpdateTrace trace(0, 0);
  auto problem = BuildProblem(config, 123, &trace);
  ASSERT_TRUE(problem.ok());
  ProxyOptions options;
  options.faults = HeavyFaults();
  options.fault_seed = 321;
  options.retry.max_retries = 1;
  auto run_fresh = [&] {
    FeedNetwork network(&trace, 8);
    SEdfPolicy policy;
    MonitoringProxy proxy(&*problem, &network, &policy,
                          ExecutionMode::kPreemptive, options);
    auto report = proxy.Run();
    EXPECT_TRUE(report.ok());
    return *report;
  };
  ProxyRunReport a = run_fresh();
  ProxyRunReport b = run_fresh();
  EXPECT_EQ(ReportDifference(a, b), "");
}

TEST(FaultInjectionEndToEnd, AllZeroRatesMatchRunWithoutFaultLayer) {
  // Acceptance criterion: with every rate at 0 the report is identical
  // to the pre-fault-layer code path for the same seed.
  SimulationConfig config = SmallConfig();
  UpdateTrace trace(0, 0);
  auto problem = BuildProblem(config, 55, &trace);
  ASSERT_TRUE(problem.ok());
  for (ExecutionMode mode :
       {ExecutionMode::kPreemptive, ExecutionMode::kNonPreemptive}) {
    FeedNetwork plain_network(&trace, 8);
    MrsfPolicy plain_policy;
    MonitoringProxy plain(&*problem, &plain_network, &plain_policy, mode);
    auto plain_report = plain.Run();
    ASSERT_TRUE(plain_report.ok());

    ProxyOptions options;
    options.faults = FaultOptions{};  // all-zero: layer is bypassed
    options.fault_seed = 999;
    FeedNetwork faulty_network(&trace, 8);
    MrsfPolicy faulty_policy;
    MonitoringProxy faulty(&*problem, &faulty_network, &faulty_policy, mode,
                           options);
    auto faulty_report = faulty.Run();
    ASSERT_TRUE(faulty_report.ok());

    EXPECT_EQ(ReportDifference(*plain_report, *faulty_report), "");
    EXPECT_EQ(faulty_report->probes_failed, 0u);
    EXPECT_EQ(faulty_report->corrupt_bodies, 0u);
    EXPECT_EQ(plain.notifications().size(), faulty.notifications().size());
  }
}

TEST(FaultInjectionEndToEnd, FaultsDegradeCompleteness) {
  SimulationConfig config = SmallConfig();
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  auto clean = RunProxyOnce(config, spec, 7);
  ASSERT_TRUE(clean.ok());
  config.faults.timeout_rate = 0.5;
  config.faults.server_error_rate = 0.2;
  auto faulty = RunProxyOnce(config, spec, 7);
  ASSERT_TRUE(faulty.ok());
  EXPECT_LT(faulty->run.completeness.GainedCompleteness(),
            clean->run.completeness.GainedCompleteness());
  EXPECT_GT(faulty->gc_lost_to_faults, 0.0);
  EXPECT_GT(faulty->timeouts, 0u);
}

TEST(FaultInjectionEndToEnd, OutagesSurfaceInProxyReportDeterministically) {
  SimulationConfig config = SmallConfig();
  config.faults.outage_enter_rate = 0.03;
  config.faults.outage_exit_rate = 0.15;
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  auto r1 = RunProxyOnce(config, spec, 271);
  auto r2 = RunProxyOnce(config, spec, 271);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_GT(r1->outage_probes, 0u);
  EXPECT_GT(r1->outages_entered, 0u);
  EXPECT_GT(r1->outage_chronons, 0u);
  EXPECT_EQ(ReportDifference(*r1, *r2), "");
  EXPECT_EQ(r1->outage_probes, r2->outage_probes);
}

TEST(FaultInjectionEndToEnd, EtagStormsSurfaceInProxyAndChurnReports) {
  // ETag storms force full bodies; the stormed probes the fault plan
  // counts must reach the report's FaultStats block, on the proxy path
  // and on the churn runner, without and with churn ops.
  SimulationConfig config = SmallConfig();
  config.faults.etag_storm_rate = 0.05;
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  auto check = [](const Result<ProxyRunReport>& r, const char* label) {
    ASSERT_TRUE(r.ok()) << label << ": " << r.status().ToString();
    EXPECT_GT(r->etag_invalidations, 0u) << label;
  };
  check(RunProxyOnce(config, spec, 19), "proxy");
  check(RunChurnOnce(config, spec, 19), "churn indexed");
  config.churn.enabled = true;
  config.churn.ops_per_chronon = 1.0;
  check(RunChurnOnce(config, spec, 19), "churn with ops");
}

TEST(FaultInjectionEndToEnd, RetriesRecoverCompletenessUnderFaults) {
  // With transient faults and spare budget, allowing retries must not
  // hurt and typically helps GC: the trade the paper's C_j budget makes
  // measurable.
  SimulationConfig config = SmallConfig();
  config.budget = 3;
  config.faults.server_error_rate = 0.3;
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  auto no_retries = RunProxyOnce(config, spec, 31);
  ASSERT_TRUE(no_retries.ok());
  config.retry.max_retries = 3;
  config.retry.backoff_base = 0.05;
  auto with_retries = RunProxyOnce(config, spec, 31);
  ASSERT_TRUE(with_retries.ok());
  EXPECT_GT(with_retries->retries_issued, 0u);
  EXPECT_GE(with_retries->run.completeness.GainedCompleteness(),
            no_retries->run.completeness.GainedCompleteness());
}

}  // namespace
}  // namespace pullmon
