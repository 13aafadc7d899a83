// Micro-benchmarks (google-benchmark) of the per-decision costs behind
// Figure 5's linearity claim: policy scoring, executor throughput, EI
// derivation, and feed parsing.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/dynamic_monitor.h"
#include "core/online_executor.h"
#include "feeds/atom.h"
#include "feeds/ebay_feed.h"
#include "policies/m_edf.h"
#include "policies/mrsf.h"
#include "policies/s_edf.h"
#include "sim/experiment.h"
#include "trace/poisson_generator.h"
#include "trace/update_model.h"

namespace pullmon {
namespace {

TInterval MakeEta(int rank) {
  TInterval eta;
  for (int i = 0; i < rank; ++i) {
    eta.AddEi(ExecutionInterval(i, i * 3, i * 3 + 5));
  }
  return eta;
}

void BM_SEdfScore(benchmark::State& state) {
  TInterval eta = MakeEta(4);
  TIntervalRuntime runtime;
  runtime.profile_rank = 4;
  runtime.source = &eta;
  runtime.ei_captured.assign(4, 0);
  runtime.edf = ScanEdfAggregate(runtime, 2);
  SEdfPolicy policy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        policy.Score(eta.eis()[0], runtime, 0, 2));
  }
}
BENCHMARK(BM_SEdfScore);

void BM_MrsfScore(benchmark::State& state) {
  TInterval eta = MakeEta(4);
  TIntervalRuntime runtime;
  runtime.profile_rank = 4;
  runtime.source = &eta;
  runtime.ei_captured.assign(4, 0);
  runtime.edf = ScanEdfAggregate(runtime, 2);
  MrsfPolicy policy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        policy.Score(eta.eis()[0], runtime, 0, 2));
  }
}
BENCHMARK(BM_MrsfScore);

void BM_MEdfScore(benchmark::State& state) {
  int rank = static_cast<int>(state.range(0));
  TInterval eta = MakeEta(rank);
  TIntervalRuntime runtime;
  runtime.profile_rank = rank;
  runtime.source = &eta;
  runtime.ei_captured.assign(static_cast<std::size_t>(rank), 0);
  runtime.edf = ScanEdfAggregate(runtime, 2);
  MEdfPolicy policy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        policy.Score(eta.eis()[0], runtime, 0, 2));
  }
}
BENCHMARK(BM_MEdfScore)->Arg(2)->Arg(4)->Arg(8);

void BM_OnlineExecutorEpoch(benchmark::State& state) {
  SimulationConfig config = BaselineConfig();
  config.num_profiles = static_cast<int>(state.range(0));
  config.num_resources = 100;
  config.epoch_length = 300;
  config.lambda = 10.0;
  auto problem = BuildProblem(config, 1234);
  if (!problem.ok()) {
    state.SkipWithError("problem generation failed");
    return;
  }
  MrsfPolicy policy;
  for (auto _ : state) {
    OnlineExecutor executor(&*problem, &policy,
                            ExecutionMode::kPreemptive);
    auto result = executor.Run();
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(problem->TotalEiCount()));
}
BENCHMARK(BM_OnlineExecutorEpoch)->Arg(50)->Arg(100)->Arg(200);

void BM_DynamicMonitorStreaming(benchmark::State& state) {
  // Streaming throughput: submissions interleaved with steps, the way a
  // live proxy runs.
  const int num_resources = 50;
  const Chronon epoch = 400;
  SimulationConfig config = BaselineConfig();
  config.num_profiles = static_cast<int>(state.range(0));
  config.num_resources = num_resources;
  config.epoch_length = epoch;
  config.lambda = 8.0;
  auto problem = BuildProblem(config, 777);
  if (!problem.ok()) {
    state.SkipWithError("problem generation failed");
    return;
  }
  // Bucket t-intervals by reveal chronon for interleaved submission.
  std::vector<std::vector<std::pair<std::size_t, const TInterval*>>>
      arriving(static_cast<std::size_t>(epoch));
  for (std::size_t p = 0; p < problem->profiles.size(); ++p) {
    for (const auto& eta : problem->profiles[p].t_intervals()) {
      arriving[static_cast<std::size_t>(eta.EarliestStart())]
          .emplace_back(p, &eta);
    }
  }
  for (auto _ : state) {
    MrsfPolicy policy;
    DynamicMonitor monitor(num_resources, epoch,
                           BudgetVector::Uniform(1, epoch), &policy,
                           ExecutionMode::kPreemptive);
    std::vector<ProfileId> ids;
    for (std::size_t p = 0; p < problem->profiles.size(); ++p) {
      ids.push_back(monitor.RegisterProfile(""));
    }
    for (Chronon t = 0; t < epoch; ++t) {
      for (const auto& [p, eta] : arriving[static_cast<std::size_t>(t)]) {
        benchmark::DoNotOptimize(monitor.Submit(ids[p], *eta));
      }
      benchmark::DoNotOptimize(monitor.Step());
    }
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(problem->TotalEiCount()));
}
BENCHMARK(BM_DynamicMonitorStreaming)->Arg(50)->Arg(150);

void BM_DeriveExecutionIntervals(benchmark::State& state) {
  Rng rng(9);
  auto trace = GeneratePoissonTrace({100, 1000, 20.0, 0.0}, &rng);
  EiDerivationOptions options;
  options.restriction = LengthRestriction::kWindow;
  options.window = 20;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DeriveAllExecutionIntervals(*trace, options));
  }
}
BENCHMARK(BM_DeriveExecutionIntervals);

void BM_RssRoundTrip(benchmark::State& state) {
  Rng rng(11);
  AuctionTraceOptions options;
  options.num_auctions = 1;
  options.epoch_length = 500;
  options.base_bid_rate = 0.1;
  auto trace = GenerateAuctionTrace(options, &rng);
  std::string xml = AuctionTraceToFeeds(*trace)[0];
  for (auto _ : state) {
    auto parsed = ParseFeed(xml);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(xml.size()));
}
BENCHMARK(BM_RssRoundTrip);

/// Console reporter that additionally records every run into the
/// uniform BENCH_pullmon.json document.
class JsonForwardReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonForwardReporter(bench::JsonBenchWriter* json)
      : json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      json_->Add({run.benchmark_name(),
                  {},
                  {{"real_time_ns", run.GetAdjustedRealTime()},
                   {"cpu_time_ns", run.GetAdjustedCPUTime()},
                   {"iterations", static_cast<double>(run.iterations)}}});
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::JsonBenchWriter* json_;
};

}  // namespace
}  // namespace pullmon

int main(int argc, char** argv) {
  // google-benchmark consumes its own --benchmark_* flags first; the
  // uniform bench flags are parsed from what remains. --seed/--reps are
  // accepted for interface uniformity but have no effect on the
  // micro-benchmarks (google-benchmark chooses iteration counts).
  benchmark::Initialize(&argc, argv);
  pullmon::bench::BenchOptions options = pullmon::bench::ParseBenchFlags(
      argc, argv, "bench_micro_policies",
      "Micro-benchmarks of per-decision costs (google-benchmark)",
      /*default_seed=*/0, /*default_reps=*/1);
  pullmon::bench::JsonBenchWriter json("bench_micro_policies", options);
  pullmon::JsonForwardReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return json.WriteIfRequested(options) ? 0 : 1;
}
