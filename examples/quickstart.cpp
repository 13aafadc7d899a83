// Quickstart: build a small monitoring problem by hand, run the MRSF
// policy preemptively, and inspect the schedule and gained completeness.
//
// The scenario includes the t-interval of the paper's Example 1
// (Figure 2) and prints each policy's value for it at chronon T = 3,
// mirroring the figure.

#include <cstdio>
#include <iostream>

#include "core/completeness.h"
#include "core/online_executor.h"
#include "core/problem.h"
#include "policies/m_edf.h"
#include "policies/mrsf.h"
#include "policies/s_edf.h"
#include "util/table_printer.h"

namespace {

using namespace pullmon;  // NOLINT: example brevity

int RunQuickstart() {
  // Three resources over a 12-chronon epoch, budget of one probe per
  // chronon.
  MonitoringProblem problem;
  problem.num_resources = 3;
  problem.epoch.length = 12;
  problem.budget = BudgetVector::Uniform(1, 12);

  // Profile 1: a rank-2 client pairing observations of r0 and r1
  // (arbitrage-style: both EIs must be probed inside their windows).
  Profile arbitrage("arbitrage-pair", {});
  arbitrage.AddTInterval(TInterval({
      ExecutionInterval(0, 0, 3),
      ExecutionInterval(1, 1, 4),
  }));
  arbitrage.AddTInterval(TInterval({
      ExecutionInterval(0, 5, 8),
      ExecutionInterval(1, 6, 10),
  }));
  problem.profiles.push_back(arbitrage);

  // Profile 2: a simple rank-1 watcher of r2.
  Profile watcher("r2-watcher", {});
  watcher.AddTInterval(TInterval({ExecutionInterval(2, 2, 6)}));
  watcher.AddTInterval(TInterval({ExecutionInterval(2, 7, 11)}));
  problem.profiles.push_back(watcher);

  std::printf("Problem: %d resources, K=%d, %zu profiles, rank(P)=%zu, "
              "%zu t-intervals\n\n",
              problem.num_resources, problem.epoch.length,
              problem.profiles.size(), problem.rank(),
              problem.TotalTIntervalCount());

  // Run each policy preemptively and compare.
  TablePrinter table({"policy", "GC", "probes", "captured"});
  for (auto* policy :
       std::initializer_list<Policy*>{new SEdfPolicy(), new MEdfPolicy(),
                                      new MrsfPolicy()}) {
    OnlineExecutor executor(&problem, policy, ExecutionMode::kPreemptive);
    auto result = executor.Run();
    if (!result.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    table.AddRow({policy->name(),
                  TablePrinter::FormatDouble(
                      result->completeness.GainedCompleteness(), 3),
                  std::to_string(result->probes_used),
                  std::to_string(result->t_intervals_completed)});
    if (policy->name() == "MRSF") {
      std::printf("MRSF(P) schedule:\n%s\n",
                  result->schedule.ToString().c_str());
    }
    delete policy;
  }
  table.Print(std::cout);

  // --- Example 1 / Figure 2 of the paper -------------------------------
  // A candidate t-interval with four EIs, evaluated at chronon T = 3;
  // two EIs already captured.
  TInterval eta({
      ExecutionInterval(0, 0, 2),   // captured earlier
      ExecutionInterval(1, 1, 5),   // captured earlier
      ExecutionInterval(2, 3, 6),   // active at T=3
      ExecutionInterval(0, 8, 11),  // not yet active
  });
  TIntervalRuntime runtime;
  runtime.profile = 0;
  runtime.profile_rank = 4;
  runtime.source = &eta;
  runtime.ei_captured = {1, 1, 0, 0};
  runtime.num_captured = 2;

  const Chronon now = 3;
  runtime.edf = ScanEdfAggregate(runtime, now);
  SEdfPolicy s_edf;
  MEdfPolicy m_edf;
  MrsfPolicy mrsf;
  const ExecutionInterval& active = eta.eis()[2];
  std::printf("\nExample 1 (Figure 2) at T=%d:\n", now);
  std::printf("  S-EDF(I,T)  = %.0f   (remaining chronons of the active "
              "EI)\n",
              s_edf.Score(active, runtime, 2, now));
  std::printf("  M-EDF(I,T)  = %.0f   (sum over uncaptured EIs)\n",
              m_edf.Score(active, runtime, 2, now));
  std::printf("  MRSF(I)     = %.0f   (rank minus captured)\n",
              mrsf.Score(active, runtime, 2, now));
  return 0;
}

}  // namespace

int main() { return RunQuickstart(); }
