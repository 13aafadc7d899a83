#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include "core/completeness.h"
#include "core/dynamic_monitor.h"
#include "estimation/estimation_session.h"
#include "policies/policy_factory.h"
#include "sim/experiment.h"
#include "trace/update_model.h"
#include "util/datetime.h"
#include "util/random.h"

namespace pullmon {

namespace {

/// Publication chronons of the items a just-committed probe appended to
/// the session's notification buffer, ascending. `items_before` is the
/// buffer size the caller sampled before the probe landed (zero when
/// the probe opened a new chronon, because the buffer resets then).
std::vector<Chronon> NewItemChronons(const FeedPullSession& session,
                                     Chronon now, std::size_t items_before,
                                     const ChrononClock& clock,
                                     Chronon epoch_length) {
  std::vector<Chronon> updates;
  if (session.fetch_chronon() != now) return updates;
  const std::vector<FeedItem>& items = session.current_items();
  for (std::size_t i = items_before; i < items.size(); ++i) {
    auto u = static_cast<Chronon>(clock.FromUnix(items[i].published));
    if (u < 0) u = 0;
    if (u >= epoch_length) u = epoch_length - 1;
    updates.push_back(u);
  }
  std::sort(updates.begin(), updates.end());
  return updates;
}

/// Serial probe path with observation capture: runs the session probe
/// and feeds its outcome — success, 304, and the new-item diff — to the
/// estimation session. Used by the monitor's plain probe callback and
/// by the explore probes.
bool ObservedProbe(FeedPullSession* session, EstimationSession* model,
                   const ProxyRunReport& report, ResourceId resource,
                   Chronon now, const ChrononClock& clock,
                   Chronon epoch_length) {
  ProbeObservation obs;
  obs.resource = resource;
  obs.probed_at = now;
  const std::size_t items_before = session->fetch_chronon() == now
                                       ? session->current_items().size()
                                       : 0;
  const std::size_t nm_before = report.not_modified;
  obs.success = session->Probe(resource, now);
  if (obs.success) {
    obs.not_modified = report.not_modified > nm_before;
    if (!obs.not_modified) {
      obs.update_chronons = NewItemChronons(*session, now, items_before,
                                            clock, epoch_length);
    }
  }
  model->Ingest(obs);
  return obs.success;
}

/// Per-chronon explore decisions, fixed up front from (seed, chronon)
/// alone so the budget split is identical across backends and thread
/// counts. A marked chronon diverts one budget unit from the monitor
/// into an epsilon probe of the coldest resource.
std::vector<uint8_t> PlanExploreChronons(const SimulationConfig& config,
                                         uint64_t seed) {
  std::vector<uint8_t> explore(
      static_cast<std::size_t>(config.epoch_length), 0);
  if (config.explore_eps <= 0.0 || config.budget < 1) return explore;
  for (Chronon t = 0; t < config.epoch_length; ++t) {
    uint64_t state = (seed * 0x9E3779B97F4A7C15ULL) ^
                     (static_cast<uint64_t>(t) + 0x632BE59BD9B4E019ULL);
    const double u =
        static_cast<double>(SplitMix64(&state) >> 11) * 0x1.0p-53;
    if (u < config.explore_eps) explore[static_cast<std::size_t>(t)] = 1;
  }
  return explore;
}

/// The coldest resource: maximal chronons since the estimator last saw
/// a probe of it (never-probed resources sort first), ties to the
/// lowest id. Purely a function of the ingested observation sequence.
ResourceId ColdestResource(const EstimationSession& model,
                           int num_resources) {
  ResourceId coldest = 0;
  Chronon best = model.LastProbe(0);
  for (ResourceId r = 1; r < num_resources; ++r) {
    const Chronon lp = model.LastProbe(r);
    if (lp < best) {
      best = lp;
      coldest = r;
    }
  }
  return coldest;
}

/// Registers every true profile, then drives the monitor chronon by
/// chronon: at each forecast-horizon boundary it regenerates predicted
/// t-intervals from the estimation session and submits them, fires the
/// chronon's explore probe if one is planned, and steps.
Status DriveAdaptiveEpoch(DynamicMonitor* monitor,
                          const MonitoringProblem& problem,
                          const SimulationConfig& config,
                          EstimationSession* model,
                          FeedPullSession* session,
                          const std::vector<uint8_t>& explore_at,
                          const BudgetVector& monitor_budget,
                          const ChrononClock& clock,
                          Schedule* explore_schedule,
                          std::size_t* explore_issued,
                          ProxyRunReport* report) {
  const Chronon epoch_length = problem.epoch.length;
  EiDerivationOptions deriv;
  deriv.restriction = config.restriction;
  deriv.window = config.window;

  // The true profiles contribute only their identity and resource sets;
  // their oracle EIs never reach the monitor.
  std::vector<ProfileId> handle;
  std::vector<std::vector<ResourceId>> resources_of;
  handle.reserve(problem.profiles.size());
  resources_of.reserve(problem.profiles.size());
  for (const Profile& p : problem.profiles) {
    handle.push_back(monitor->RegisterProfile(p.name()));
    std::vector<ResourceId> rs;
    for (const TInterval& eta : p.t_intervals()) {
      for (const ExecutionInterval& ei : eta.eis()) {
        if (std::find(rs.begin(), rs.end(), ei.resource) == rs.end()) {
          rs.push_back(ei.resource);
        }
      }
    }
    resources_of.push_back(std::move(rs));
  }

  std::vector<std::vector<ExecutionInterval>> predicted(
      static_cast<std::size_t>(problem.num_resources));
  for (Chronon now = 0; now < epoch_length; ++now) {
    if (now % config.forecast_horizon == 0) {
      ++report->estimation_forecast_refreshes;
      const Chronon horizon_end =
          std::min<Chronon>(now + config.forecast_horizon, epoch_length);
      for (ResourceId r = 0; r < problem.num_resources; ++r) {
        predicted[static_cast<std::size_t>(r)] =
            DeriveExecutionIntervalsFromEvents(
                model->PredictEvents(r, now, horizon_end), r, epoch_length,
                deriv);
      }
      for (std::size_t p = 0; p < problem.profiles.size(); ++p) {
        std::size_t rounds = 0;
        for (ResourceId r : resources_of[p]) {
          rounds = std::max(rounds,
                            predicted[static_cast<std::size_t>(r)].size());
        }
        // The i-th predicted update round of each resource forms the
        // i-th predicted t-interval, mirroring how the oracle derivation
        // pairs update rounds across a profile's resources; resources
        // predicted to fall silent early simply drop out of later
        // rounds.
        for (std::size_t i = 0; i < rounds; ++i) {
          TInterval predicted_eta;
          for (ResourceId r : resources_of[p]) {
            const auto& eis = predicted[static_cast<std::size_t>(r)];
            if (i < eis.size()) predicted_eta.AddEi(eis[i]);
          }
          if (predicted_eta.empty()) continue;
          PULLMON_ASSIGN_OR_RETURN(
              int submission, monitor->Submit(handle[p], predicted_eta));
          (void)submission;
          ++report->estimation_predicted_t_intervals;
          report->estimation_predicted_eis += predicted_eta.size();
        }
      }
    }
    auto explore_probe = [&]() -> Status {
      const ResourceId target =
          ColdestResource(*model, problem.num_resources);
      ++(*explore_issued);
      ++report->estimation_explore_probes;
      if (ObservedProbe(session, model, *report, target, now, clock,
                        epoch_length)) {
        PULLMON_RETURN_NOT_OK(explore_schedule->AddProbe(target, now));
      }
      return Status::OK();
    };
    if (explore_at[static_cast<std::size_t>(now)] != 0) {
      PULLMON_RETURN_NOT_OK(explore_probe());
    }
    const std::size_t monitor_probes_before = monitor->stats().probes_used;
    StepResult step;
    PULLMON_ASSIGN_OR_RETURN(step, monitor->Step());
    report->notifications_delivered += step.captured.size();
    // Work conservation: budget units the monitor left on the table
    // (too few live predicted candidates this chronon) become further
    // explore probes instead of evaporating — this is also what
    // bootstraps the loop, since a cold estimator yields no candidates
    // at all. Each probe's observation lands before the next target is
    // chosen, so consecutive leftover probes walk the coldest
    // resources in round-robin order.
    const auto monitor_probes = static_cast<int>(
        monitor->stats().probes_used - monitor_probes_before);
    for (int leftover = monitor_budget.at(now) - monitor_probes;
         leftover > 0; --leftover) {
      PULLMON_RETURN_NOT_OK(explore_probe());
    }
  }
  return Status::OK();
}

/// Completes the report of an adaptive run. Unlike the churn
/// finalizer, completeness is scored against the *true* profiles over
/// the combined monitor + explore schedule — the monitor only ever saw
/// predicted submissions, so its own capture accounting measures the
/// forecasts, not the ground truth.
Status FinalizeAdaptiveReport(const DynamicMonitor& monitor,
                              const MonitoringProblem& problem,
                              const Schedule& explore_schedule,
                              std::size_t explore_issued,
                              double elapsed_seconds,
                              FeedPullSession* session) {
  OnlineRunResult run = monitor.RunResult();
  Schedule combined(problem.epoch.length);
  for (Chronon t = 0; t < problem.epoch.length; ++t) {
    for (ResourceId r : run.schedule.ProbesAt(t)) {
      PULLMON_RETURN_NOT_OK(combined.AddProbe(r, t));
    }
    for (ResourceId r : explore_schedule.ProbesAt(t)) {
      PULLMON_RETURN_NOT_OK(combined.AddProbe(r, t));
    }
  }
  run.completeness = EvaluateCompleteness(problem.profiles, combined);
  run.schedule = std::move(combined);
  run.probes_used += explore_issued;
  run.elapsed_seconds = elapsed_seconds;
  session->FinishReport(std::move(run));
  return Status::OK();
}

}  // namespace

Result<ProxyRunReport> RunAdaptiveOnce(const SimulationConfig& config,
                                       const PolicySpec& spec,
                                       uint64_t seed) {
  PULLMON_RETURN_NOT_OK(config.faults.Validate());
  PULLMON_RETURN_NOT_OK(config.retry.Validate());
  PULLMON_RETURN_NOT_OK(config.breaker.Validate());
  if (config.estimator_half_life <= 0.0) {
    return Status::InvalidArgument(
        "--estimator-half-life must be > 0 chronons");
  }
  if (config.explore_eps < 0.0 || config.explore_eps > 1.0) {
    return Status::InvalidArgument("--explore-eps must be in [0, 1]");
  }
  if (config.forecast_horizon < 1) {
    return Status::InvalidArgument(
        "--forecast-horizon must be >= 1 chronons");
  }

  RunSubstrate substrate;
  PULLMON_RETURN_NOT_OK(BuildSubstrate(config, spec, seed, &substrate));
  const MonitoringProblem& problem = substrate.problem;
  ProxyRunReport report;
  FeedPullSession session(&*substrate.network, problem.num_resources,
                          substrate.proxy, &report);

  const ChrononClock clock;
  EstimationOptions eopts;
  eopts.half_life = config.estimator_half_life;
  EstimationSession model(problem.num_resources, problem.epoch.length,
                          eopts);

  // The explore split is fixed up front; the monitor's budget vector is
  // the configured one minus the diverted explore units, so the two
  // probe streams together never exceed C_j.
  const std::vector<uint8_t> explore_at = PlanExploreChronons(config, seed);
  std::vector<int> monitor_budgets(
      static_cast<std::size_t>(problem.epoch.length), config.budget);
  for (std::size_t t = 0; t < explore_at.size(); ++t) {
    if (explore_at[t] != 0) monitor_budgets[t] = config.budget - 1;
  }
  BudgetVector monitor_budget =
      BudgetVector::FromVector(std::move(monitor_budgets));
  Schedule explore_schedule(problem.epoch.length);
  std::size_t explore_issued = 0;

  DynamicMonitor monitor(problem.num_resources, problem.epoch.length,
                         monitor_budget, substrate.policy.get(), spec.mode,
                         MonitorOptionsFor(config));
  monitor.set_probe_callback([&](ResourceId resource, Chronon now) {
    return ObservedProbe(&session, &model, report, resource, now, clock,
                         problem.epoch.length);
  });
  // On the pipelined path observation capture rides the serial
  // decide/commit phases: decide records each token's resource and fate,
  // commit applies the attempt and derives the item diff — so the
  // estimator ingests in canonical attempt order at every thread count.
  struct AttemptMeta {
    ResourceId resource = 0;
    Chronon chronon = 0;
    bool success = false;
  };
  std::vector<AttemptMeta> metas;
  if (config.executor_backend == ExecutorBackend::kParallel) {
    ProbeHooks hooks = session.PipelineHooks();
    hooks.begin_chronon = [&metas, begin = hooks.begin_chronon](
                              Chronon now, int num_workers) {
      metas.clear();
      begin(now, num_workers);
    };
    hooks.decide = [&metas, decide = hooks.decide](ResourceId resource,
                                                   Chronon now, int token) {
      PULLMON_CHECK(static_cast<std::size_t>(token) == metas.size());
      const bool success = decide(resource, now, token);
      metas.push_back({resource, now, success});
      return success;
    };
    hooks.commit = [&, commit = hooks.commit](int token) {
      const AttemptMeta& meta = metas[static_cast<std::size_t>(token)];
      const std::size_t items_before =
          session.fetch_chronon() == meta.chronon
              ? session.current_items().size()
              : 0;
      const std::size_t nm_before = report.not_modified;
      commit(token);
      ProbeObservation obs;
      obs.resource = meta.resource;
      obs.probed_at = meta.chronon;
      obs.success = meta.success;
      if (obs.success) {
        obs.not_modified = report.not_modified > nm_before;
        if (!obs.not_modified) {
          obs.update_chronons =
              NewItemChronons(session, meta.chronon, items_before, clock,
                              problem.epoch.length);
        }
      }
      model.Ingest(obs);
    };
    monitor.set_probe_hooks(std::move(hooks));
  }
  const auto run_start = std::chrono::steady_clock::now();
  PULLMON_RETURN_NOT_OK(DriveAdaptiveEpoch(
      &monitor, problem, config, &model, &session, explore_at,
      monitor_budget, clock, &explore_schedule, &explore_issued, &report));
  PULLMON_RETURN_NOT_OK(FinalizeAdaptiveReport(
      monitor, problem, explore_schedule, explore_issued,
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    run_start)
          .count(),
      &session));

  const EstimationStats& es = model.stats();
  report.estimation_probes_observed = es.probes_observed;
  report.estimation_update_events = es.update_events;
  report.estimation_not_modified = es.not_modified;
  report.estimation_duplicate_events = es.duplicate_events;
  report.estimation_periodic_resources = model.PeriodicResources();
  return report;
}

}  // namespace pullmon
