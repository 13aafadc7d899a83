#include <algorithm>
#include <utility>
#include <vector>

#include "estimation/estimation_session.h"
#include "sim/monitor_run.h"
#include "trace/update_model.h"
#include "util/datetime.h"
#include "util/random.h"

namespace pullmon {

namespace {

/// Per-chronon explore decisions, fixed up front from (seed, chronon)
/// alone so the budget split is identical across backends and thread
/// counts. A marked chronon diverts one budget unit from the monitor
/// into an epsilon probe of the coldest resource.
std::vector<uint8_t> PlanExploreChronons(const SimulationConfig& config,
                                         uint64_t seed) {
  std::vector<uint8_t> explore(
      static_cast<std::size_t>(std::max<Chronon>(config.epoch_length, 0)),
      0);
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

/// Submits chronon `now`'s forecast: per-resource EIs derived from the
/// events the estimator predicts over the next horizon, grouped into
/// one predicted t-interval per profile and update round.
Status SubmitForecast(Chronon now, const SimulationConfig& config,
                      const std::vector<std::vector<ResourceId>>& resources_of,
                      const EstimationSession& model, MonitorRun* run) {
  const MonitoringProblem& problem = run->problem();
  ProxyRunReport& report = run->report();
  const Chronon epoch_length = problem.epoch.length;
  EiDerivationOptions deriv;
  deriv.restriction = config.restriction;
  deriv.window = config.window;
  ++report.estimation_forecast_refreshes;
  const Chronon horizon_end =
      std::min<Chronon>(now + config.forecast_horizon, epoch_length);
  std::vector<std::vector<ExecutionInterval>> predicted(
      static_cast<std::size_t>(problem.num_resources));
  for (ResourceId r = 0; r < problem.num_resources; ++r) {
    predicted[static_cast<std::size_t>(r)] =
        DeriveExecutionIntervalsFromEvents(
            model.PredictEvents(r, now, horizon_end), r, epoch_length, deriv);
  }
  for (std::size_t p = 0; p < resources_of.size(); ++p) {
    std::size_t rounds = 0;
    for (ResourceId r : resources_of[p]) {
      rounds = std::max(rounds, predicted[static_cast<std::size_t>(r)].size());
    }
    // The i-th predicted update round of each resource forms the i-th
    // predicted t-interval, mirroring how the oracle derivation pairs
    // update rounds across a profile's resources; resources predicted to
    // fall silent early simply drop out of later rounds.
    for (std::size_t i = 0; i < rounds; ++i) {
      TInterval predicted_eta;
      for (ResourceId r : resources_of[p]) {
        const auto& eis = predicted[static_cast<std::size_t>(r)];
        if (i < eis.size()) predicted_eta.AddEi(eis[i]);
      }
      if (predicted_eta.empty()) continue;
      PULLMON_RETURN_NOT_OK(
          run->monitor()
              .Submit(static_cast<ProfileId>(p), predicted_eta)
              .status());
      ++report.estimation_predicted_t_intervals;
      report.estimation_predicted_eis += predicted_eta.size();
    }
  }
  return Status::OK();
}

}  // namespace

Result<ProxyRunReport> RunAdaptiveOnce(const SimulationConfig& config,
                                       const PolicySpec& spec,
                                       uint64_t seed) {
  // The explore split is fixed up front; the monitor's budget vector is
  // the configured one minus the diverted explore units, so the two
  // probe streams together never exceed C_j.
  const std::vector<uint8_t> explore_at = PlanExploreChronons(config, seed);
  std::vector<int> monitor_budgets(explore_at.size(), config.budget);
  for (std::size_t t = 0; t < explore_at.size(); ++t) {
    if (explore_at[t] != 0) monitor_budgets[t] = config.budget - 1;
  }
  const BudgetVector monitor_budget =
      BudgetVector::FromVector(std::move(monitor_budgets));

  MonitorRun run;
  PULLMON_RETURN_NOT_OK(run.Start(config, spec, seed,
                                  MonitorRun::Kind::kAdaptive,
                                  monitor_budget));
  const MonitoringProblem& problem = run.problem();
  ProxyRunReport& report = run.report();
  const Chronon epoch_length = problem.epoch.length;

  EstimationOptions eopts;
  eopts.half_life = config.estimator_half_life;
  EstimationSession model(problem.num_resources, epoch_length, eopts);
  // Every probe attempt — the monitor's and the explore probes below —
  // reaches the estimator in canonical order, with the publication
  // chronons of its new items.
  const ChrononClock clock;
  run.session().set_observer([&](const PullAttempt& attempt) {
    ProbeObservation obs;
    obs.resource = attempt.resource;
    obs.probed_at = attempt.chronon;
    obs.success = attempt.success;
    obs.not_modified = attempt.not_modified;
    for (const FeedItem& item : attempt.items) {
      obs.update_chronons.push_back(std::clamp<Chronon>(
          static_cast<Chronon>(clock.FromUnix(item.published)), 0,
          epoch_length - 1));
    }
    std::sort(obs.update_chronons.begin(), obs.update_chronons.end());
    model.Ingest(obs);
  });

  // The true profiles contribute only their identity and resource sets;
  // their oracle EIs never reach the monitor.
  run.RegisterProfiles();
  std::vector<std::vector<ResourceId>> resources_of;
  for (const Profile& p : problem.profiles) {
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

  Schedule explore_schedule(epoch_length);
  auto explore_probe = [&](Chronon now) -> Status {
    const ResourceId target = ColdestResource(model, problem.num_resources);
    ++report.estimation_explore_probes;
    if (!run.session().Probe(target, now)) return Status::OK();
    return explore_schedule.AddProbe(target, now);
  };
  for (Chronon now = 0; now < epoch_length; ++now) {
    if (now % config.forecast_horizon == 0) {
      PULLMON_RETURN_NOT_OK(
          SubmitForecast(now, config, resources_of, model, &run));
    }
    if (explore_at[static_cast<std::size_t>(now)] != 0) {
      PULLMON_RETURN_NOT_OK(explore_probe(now));
    }
    const std::size_t probes_before = run.monitor().probe_stats().probes_used;
    PULLMON_RETURN_NOT_OK(run.StepChronon());
    // Work conservation: budget units the monitor left on the table
    // (too few live predicted candidates this chronon) become further
    // explore probes instead of evaporating — this is also what
    // bootstraps the loop, since a cold estimator yields no candidates
    // at all. Each probe's observation lands before the next target is
    // chosen, so consecutive leftover probes walk the coldest
    // resources in round-robin order.
    const auto monitor_probes = static_cast<int>(
        run.monitor().probe_stats().probes_used - probes_before);
    for (int leftover = monitor_budget.at(now) - monitor_probes;
         leftover > 0; --leftover) {
      PULLMON_RETURN_NOT_OK(explore_probe(now));
    }
  }

  PULLMON_ASSIGN_OR_RETURN(ProxyRunReport out, run.Finish(&explore_schedule));
  static_cast<EstimationStats&>(out) = model.stats();
  out.estimation_periodic_resources = model.PeriodicResources();
  return out;
}

}  // namespace pullmon
