#include "layers.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/online_executor.h"
#include "core/policy.h"
#include "estimation/estimation_session.h"
#include "feeds/atom.h"
#include "policies/policy_factory.h"
#include "recovery/stable_storage.h"
#include "sim/proxy.h"
#include "util/arena.h"
#include "util/datetime.h"

namespace perfbench {

using pullmon::ResourceId;

namespace {

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Pass-through Policy that reads the clock once per chronon change, so
/// the spacing of those reads is the wall time of one proxy chronon
/// (activation, scoring, probes, parses, pushes). Costs one compare per
/// Score call otherwise.
class ChrononClockPolicy : public pullmon::Policy {
 public:
  explicit ChrononClockPolicy(pullmon::Policy* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  pullmon::PolicyLevel level() const override { return inner_->level(); }
  void Reset() override {
    inner_->Reset();
    last_chronon_ = -1;
    chronon_ms_.clear();
  }
  void AttachHealth(const pullmon::ResourceHealthTracker* health) override {
    inner_->AttachHealth(health);
  }
  double Score(const pullmon::ExecutionInterval& ei,
               const pullmon::TIntervalRuntime& parent, int ei_index,
               Chronon now) override {
    if (now != last_chronon_) {
      const auto t = Clock::now();
      if (last_chronon_ >= 0) chronon_ms_.push_back(Ms(t - last_time_));
      last_chronon_ = now;
      last_time_ = t;
    }
    return inner_->Score(ei, parent, ei_index, now);
  }

  const std::vector<double>& chronon_ms() const { return chronon_ms_; }

 private:
  pullmon::Policy* inner_;
  Chronon last_chronon_ = -1;
  Clock::time_point last_time_;
  std::vector<double> chronon_ms_;
};

/// Pass-through Policy that times every Score call. The latency of one
/// clock read, measured in place right before each call, is subtracted
/// from that call's interval.
class TimedPolicy : public pullmon::Policy {
 public:
  explicit TimedPolicy(pullmon::Policy* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  pullmon::PolicyLevel level() const override { return inner_->level(); }
  void Reset() override {
    inner_->Reset();
    calls_ = 0;
    busy_ = Clock::duration::zero();
  }
  void AttachHealth(const pullmon::ResourceHealthTracker* health) override {
    inner_->AttachHealth(health);
  }
  double Score(const pullmon::ExecutionInterval& ei,
               const pullmon::TIntervalRuntime& parent, int ei_index,
               Chronon now) override {
    const auto before = Clock::now();
    const auto start = Clock::now();
    const double score = inner_->Score(ei, parent, ei_index, now);
    busy_ += (Clock::now() - start) - (start - before);
    ++calls_;
    return score;
  }

  std::size_t calls() const { return calls_; }
  double busy_seconds() const {
    return std::chrono::duration<double>(busy_).count();
  }

 private:
  pullmon::Policy* inner_;
  std::size_t calls_ = 0;
  Clock::duration busy_ = Clock::duration::zero();
};

/// Pass-through StableStorage that times every call and counts the
/// snapshot (whole-file write) and WAL (append) traffic. One append is
/// one chronon's group flush, so their spacing is the chronon wall time.
class TimedStorage : public pullmon::StableStorage {
 public:
  explicit TimedStorage(pullmon::StableStorage* inner) : inner_(inner) {}

  Status WriteFile(const std::string& name,
                   std::string_view bytes) override {
    const auto start = Clock::now();
    Status st = inner_->WriteFile(name, bytes);
    busy_ += Clock::now() - start;
    snapshot_bytes_ += bytes.size();
    ++snapshots_;
    return st;
  }
  Status AppendFile(const std::string& name,
                    std::string_view bytes) override {
    const auto start = Clock::now();
    if (appends_ > 0) flush_gap_ms_.push_back(Ms(start - last_append_));
    last_append_ = start;
    Status st = inner_->AppendFile(name, bytes);
    busy_ += Clock::now() - start;
    wal_bytes_ += bytes.size();
    ++appends_;
    return st;
  }
  Result<std::string> ReadFile(const std::string& name) const override {
    const auto start = Clock::now();
    auto bytes = inner_->ReadFile(name);
    busy_ += Clock::now() - start;
    return bytes;
  }
  Status TruncateFile(const std::string& name, std::size_t size) override {
    const auto start = Clock::now();
    Status st = inner_->TruncateFile(name, size);
    busy_ += Clock::now() - start;
    return st;
  }
  Status RemoveFile(const std::string& name) override {
    const auto start = Clock::now();
    Status st = inner_->RemoveFile(name);
    busy_ += Clock::now() - start;
    return st;
  }
  Result<std::vector<std::string>> ListFiles() const override {
    const auto start = Clock::now();
    auto files = inner_->ListFiles();
    busy_ += Clock::now() - start;
    return files;
  }

  double busy_seconds() const {
    return std::chrono::duration<double>(busy_).count();
  }
  std::size_t wal_bytes() const { return wal_bytes_; }
  std::size_t snapshot_bytes() const { return snapshot_bytes_; }
  std::size_t snapshots() const { return snapshots_; }
  std::size_t appends() const { return appends_; }
  const std::vector<double>& flush_gap_ms() const { return flush_gap_ms_; }

 private:
  pullmon::StableStorage* inner_;
  mutable Clock::duration busy_ = Clock::duration::zero();
  std::size_t wal_bytes_ = 0;
  std::size_t snapshot_bytes_ = 0;
  std::size_t snapshots_ = 0;
  std::size_t appends_ = 0;
  Clock::time_point last_append_;
  std::vector<double> flush_gap_ms_;
};

/// The policy the entry points build for (spec, seed).
Result<std::unique_ptr<pullmon::Policy>> MakeWorkloadPolicy(
    const Workload& w, uint64_t seed, int num_resources) {
  pullmon::PolicyOptions po;
  po.random_seed = seed ^ 0x5bf03635ULL;
  po.num_resources = num_resources;
  return pullmon::MakePolicy(w.spec.policy, po);
}

/// The proxy options RunProxyOnce derives from the config.
pullmon::ProxyOptions ProxyOptionsFor(const Workload& w, uint64_t seed) {
  const pullmon::SimulationConfig& c = w.config;
  pullmon::ProxyOptions options;
  options.faults = c.faults;
  options.fault_seed = c.fault_seed ^ (seed * 0x9E3779B97F4A7C15ULL);
  options.retry = c.retry;
  options.breaker = c.breaker;
  options.backend = c.executor_backend;
  options.parse_cache = c.parse_cache;
  options.trace_backend = c.trace_backend;
  options.threads = c.threads;
  return options;
}

/// The logical scheduler alone: OnlineExecutor without callbacks, on the
/// workload's backend.
Result<pullmon::OnlineRunResult> RunLogical(const Workload& w,
                                            const Setup& setup,
                                            pullmon::Policy* policy) {
  pullmon::OnlineExecutor executor(&setup.problem, policy, w.spec.mode);
  executor.set_backend(w.config.executor_backend);
  executor.set_threads(w.config.threads);
  return executor.Run();
}

struct FeedReplay {
  double server_s = 0.0;
  double parse_s = 0.0;
  double ingest_s = 0.0;
  double forecast_s = 0.0;
  std::size_t items = 0;
  std::size_t bytes = 0;
};

/// Replays `schedule` on a fresh FeedNetwork with per-resource
/// validators, parsing every body; with `model`, also ingests each probe
/// as a ProbeObservation and forecasts every resource once per horizon.
Result<FeedReplay> ReplayFeeds(const Workload& w, const Setup& setup,
                               const pullmon::Schedule& schedule,
                               pullmon::EstimationSession* model) {
  pullmon::FeedNetwork network(&setup.trace, BufferCapacity(w.config));
  const int n = setup.problem.num_resources;
  const Chronon epoch = setup.problem.epoch.length;
  const Chronon horizon = w.config.forecast_horizon;
  const pullmon::ChrononClock clock;
  std::vector<std::string> etags(static_cast<std::size_t>(n));
  pullmon::Arena arena;
  FeedReplay out;
  for (Chronon t = 0; t < epoch; ++t) {
    if (model != nullptr && t % horizon == 0) {
      const auto start = Clock::now();
      const Chronon end = std::min<Chronon>(t + horizon, epoch);
      for (ResourceId r = 0; r < n; ++r) {
        model->PredictEvents(r, t, end);  // only its cost is measured
      }
      out.forecast_s += SecondsSince(start);
    }
    const std::vector<ResourceId>& probes = schedule.ProbesAt(t);
    if (probes.empty()) continue;
    auto start = Clock::now();
    network.AdvanceTo(t);
    out.server_s += SecondsSince(start);
    for (ResourceId r : probes) {
      std::string& etag = etags[static_cast<std::size_t>(r)];
      start = Clock::now();
      auto fetched = network.ProbeConditionalView(r, etag);
      out.server_s += SecondsSince(start);
      if (!fetched.ok()) return fetched.status();
      pullmon::ProbeObservation obs;
      obs.resource = r;
      obs.probed_at = t;
      obs.success = true;
      obs.not_modified = fetched->not_modified;
      if (!fetched->not_modified) {
        out.bytes += fetched->body.size();
        start = Clock::now();
        arena.Reset();
        auto parsed = pullmon::ParseFeed(fetched->body, &arena);
        out.parse_s += SecondsSince(start);
        if (!parsed.ok()) return parsed.status();
        out.items += (*parsed)->num_items;
        if (model != nullptr) {
          for (const pullmon::FeedItemView* item = (*parsed)->first_item;
               item != nullptr; item = item->next) {
            const Chronon u = clock.FromUnix(item->published);
            obs.update_chronons.push_back(
                std::clamp<Chronon>(u, 0, epoch - 1));
          }
          std::sort(obs.update_chronons.begin(), obs.update_chronons.end());
        }
      }
      etag.assign(fetched->etag);
      if (model != nullptr) {
        start = Clock::now();
        model->Ingest(obs);
        out.ingest_s += SecondsSince(start);
      }
    }
  }
  return out;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"trace.build_s", "s"},
      {"trace.eis", "count"},
      {"core.schedule_s", "s"},
      {"core.candidates_scored", "count"},
      {"core.max_candidates", "count"},
      {"core.ns_per_candidate", "ns"},
      {"core.mt_speedup", "x"},
      {"core.mt_threads", "count"},
      {"core.nproc", "count"},
      {"core.shard_merge_entries", "count"},
      {"core.churn_accepted", "count"},
      {"core.churn_rejected_ratio", "fraction"},
      {"core.orphaned_probes", "count"},
      {"policies.score_calls", "count"},
      {"policies.score_s", "s"},
      {"feeds.server_s", "s"},
      {"feeds.parse_s", "s"},
      {"feeds.items_parsed", "count"},
      {"feeds.bytes_fetched", "B"},
      {"feeds.not_modified_ratio", "fraction"},
      {"feeds.parse_cache_hit_ratio", "fraction"},
      {"feeds.probes_failed", "count"},
      {"feeds.retries", "count"},
      {"feeds.circuits_opened", "count"},
      {"sim.proxy_s", "s"},
      {"sim.push_s", "s"},
      {"sim.notifications", "count"},
      {"sim.items_delivered", "count"},
      {"sim.chronon_p50_ms", "ms"},
      {"sim.chronon_p99_ms", "ms"},
      {"sim.trace_overhead", "x"},
      {"recovery.overhead_s", "s"},
      {"recovery.storage_s", "s"},
      {"recovery.wal_bytes", "B"},
      {"recovery.snapshot_bytes", "B"},
      {"recovery.snapshots", "count"},
      {"recovery.appends", "count"},
      {"estimation.ingest_s", "s"},
      {"estimation.forecast_s", "s"},
      {"estimation.probes_observed", "count"},
      {"estimation.predicted_eis", "count"},
      {"estimation.explore_probes", "count"},
      {"estimation.gc_vs_oracle", "x"},
  };
  return kMetrics;
}

Result<TracedPass> RunTracedPass(const Workload& w, uint64_t seed,
                                 int threads, int nproc, GateLog* gate) {
  TracedPass pass;
  auto& v = pass.values;
  for (const MetricSpec& m : PerLayerMetrics()) v[m.name] = 0.0;
  v["core.nproc"] = nproc;

  PULLMON_ASSIGN_OR_RETURN(pass.setup, RunSetup(w, seed));
  Setup& setup = *pass.setup;
  v["trace.build_s"] = setup.seconds;
  v["trace.eis"] = static_cast<double>(setup.problem.TotalEiCount());

  // Untraced entry-point run: the baseline of the trace overhead.
  auto start = Clock::now();
  PULLMON_ASSIGN_OR_RETURN(ProxyRunReport untraced, RunEntry(w, seed));
  const double untraced_s = SecondsSince(start) - setup.seconds;

  // Traced entry-point run.
  double traced_s = 0.0;
  std::vector<double> chronon_ms;
  if (w.entry == Entry::kProxy) {
    // RunProxyOnce rebuilt from its public parts, with the clock policy
    // around the workload's policy. Set-up and teardown (the
    // notification payloads) stay inside the timed scope, as in the
    // entry point; the set-up time is subtracted as there.
    double own_setup_s = 0.0;
    start = Clock::now();
    {
      PULLMON_ASSIGN_OR_RETURN(std::unique_ptr<Setup> own,
                               RunSetup(w, seed));
      own_setup_s = own->seconds;
      PULLMON_ASSIGN_OR_RETURN(
          auto inner, MakeWorkloadPolicy(w, seed, own->problem.num_resources));
      ChrononClockPolicy policy(inner.get());
      pullmon::MonitoringProxy proxy(&own->problem, &*own->network, &policy,
                                     w.spec.mode, ProxyOptionsFor(w, seed));
      PULLMON_ASSIGN_OR_RETURN(pass.report, proxy.Run());
      chronon_ms = policy.chronon_ms();
      std::size_t items = 0;
      for (const pullmon::ProxyNotification& n : proxy.notifications()) {
        items += n.items.size();
      }
      v["sim.notifications"] =
          static_cast<double>(proxy.notifications().size());
      v["sim.items_delivered"] = static_cast<double>(items);
      gate->Check("notifications list vs report",
                  proxy.notifications().size() ==
                          pass.report.notifications_delivered
                      ? ""
                      : "count differs");
    }
    traced_s = SecondsSince(start) - own_setup_s;
  } else if (w.entry == Entry::kDurable) {
    pullmon::MemoryStorage memory;
    TimedStorage storage(&memory);
    start = Clock::now();
    PULLMON_ASSIGN_OR_RETURN(pass.report, RunEntry(w, seed, &storage));
    traced_s = SecondsSince(start) - setup.seconds;
    chronon_ms = storage.flush_gap_ms();
    v["recovery.storage_s"] = storage.busy_seconds();
    v["recovery.wal_bytes"] = static_cast<double>(storage.wal_bytes());
    v["recovery.snapshot_bytes"] =
        static_cast<double>(storage.snapshot_bytes());
    v["recovery.snapshots"] = static_cast<double>(storage.snapshots());
    v["recovery.appends"] = static_cast<double>(storage.appends());
    v["sim.notifications"] =
        static_cast<double>(pass.report.notifications_delivered);

    // The same epoch without durability.
    start = Clock::now();
    PULLMON_ASSIGN_OR_RETURN(ProxyRunReport churn,
                             pullmon::RunChurnOnce(w.config, w.spec, seed));
    const double churn_s = SecondsSince(start) - setup.seconds;
    v["recovery.overhead_s"] = untraced_s - churn_s;
    gate->Check("durable vs RunChurnOnce",
                CompareFingerprints(FingerprintOf(pass.report),
                                    FingerprintOf(churn), "recovery_"));
  } else {
    start = Clock::now();
    PULLMON_ASSIGN_OR_RETURN(pass.report, RunEntry(w, seed));
    traced_s = SecondsSince(start) - setup.seconds;
    v["sim.notifications"] =
        static_cast<double>(pass.report.notifications_delivered);

    // The same epoch on the sharded backend at `threads` threads; shard
    // telemetry does not depend on the thread count.
    Workload mt = w;
    mt.config.threads = threads;
    start = Clock::now();
    PULLMON_ASSIGN_OR_RETURN(ProxyRunReport multi, RunEntry(mt, seed));
    const double mt_s = SecondsSince(start) - setup.seconds;
    v["core.mt_speedup"] = Ratio(untraced_s, mt_s);
    v["core.mt_threads"] = threads;
    gate->Check("adaptive 1 thread vs N threads",
                CompareFingerprints(FingerprintOf(pass.report),
                                    FingerprintOf(multi)));

    // The same instance under oracle knowledge.
    Workload oracle = w;
    oracle.config.knowledge = pullmon::KnowledgeModel::kOracle;
    PULLMON_ASSIGN_OR_RETURN(ProxyRunReport oracle_report,
                             RunEntry(oracle, seed));
    v["estimation.gc_vs_oracle"] =
        Ratio(GcOf(pass.report), GcOf(oracle_report));
  }
  gate->Check("traced vs untraced report",
              CompareFingerprints(FingerprintOf(pass.report),
                                  FingerprintOf(untraced)));
  const ProxyRunReport& r = pass.report;
  v["sim.proxy_s"] = traced_s;
  v["sim.trace_overhead"] = Ratio(traced_s, untraced_s);
  v["sim.chronon_p50_ms"] = Percentile(chronon_ms, 50.0);
  v["sim.chronon_p99_ms"] = Percentile(chronon_ms, 99.0);

  // Scheduler alone, then again with every Score call timed.
  PULLMON_ASSIGN_OR_RETURN(
      auto policy, MakeWorkloadPolicy(w, seed, setup.problem.num_resources));
  start = Clock::now();
  PULLMON_ASSIGN_OR_RETURN(pullmon::OnlineRunResult logical,
                           RunLogical(w, setup, policy.get()));
  const double schedule_s = SecondsSince(start);
  v["core.schedule_s"] = schedule_s;
  v["core.candidates_scored"] = static_cast<double>(logical.candidates_scored);
  v["core.max_candidates"] =
      static_cast<double>(logical.max_concurrent_candidates);
  v["core.ns_per_candidate"] =
      1e9 * Ratio(schedule_s, static_cast<double>(logical.candidates_scored));
  if (w.entry == Entry::kProxy) {
    // Without faults the logical run takes the proxy's decisions.
    gate->Check("logical executor vs proxy",
                logical.probes_used == r.run.probes_used &&
                        logical.completeness.captured_t_intervals ==
                            r.run.completeness.captured_t_intervals
                    ? ""
                    : "decisions differ");
  }
  TimedPolicy timed(policy.get());
  PULLMON_RETURN_NOT_OK(RunLogical(w, setup, &timed).status());
  v["policies.score_calls"] = static_cast<double>(timed.calls());
  v["policies.score_s"] = timed.busy_seconds();

  // Feed servers and parser (plus the estimator) on the run's schedule.
  std::optional<pullmon::EstimationSession> model;
  if (w.entry == Entry::kAdaptive) {
    pullmon::EstimationOptions eopts;
    eopts.half_life = w.config.estimator_half_life;
    model.emplace(setup.problem.num_resources, setup.problem.epoch.length,
                  eopts);
  }
  PULLMON_ASSIGN_OR_RETURN(
      FeedReplay feeds,
      ReplayFeeds(w, setup, r.run.schedule, model ? &*model : nullptr));
  v["feeds.server_s"] = feeds.server_s;
  v["feeds.parse_s"] = feeds.parse_s;
  v["feeds.items_parsed"] = static_cast<double>(feeds.items);
  if (w.entry == Entry::kProxy) {
    gate->Check("feed replay vs proxy bytes and items",
                feeds.items == r.items_parsed && feeds.bytes == r.feed_bytes
                    ? ""
                    : "replay differs");
  }
  if (model) {
    v["estimation.ingest_s"] = feeds.ingest_s;
    v["estimation.forecast_s"] = feeds.forecast_s;
  }
  v["sim.push_s"] = std::max(
      0.0, traced_s - schedule_s - feeds.server_s - feeds.parse_s);

  // Report counters.
  const std::size_t accepted =
      r.churn_cancelled + r.churn_edited + r.churn_unregistered_profiles;
  v["core.shard_merge_entries"] = static_cast<double>(r.shard_merge_entries);
  v["core.churn_accepted"] = static_cast<double>(accepted);
  v["core.churn_rejected_ratio"] =
      Ratio(static_cast<double>(r.churn_rejected_ops),
            static_cast<double>(accepted + r.churn_rejected_ops));
  v["core.orphaned_probes"] = static_cast<double>(r.orphaned_probes);
  v["feeds.bytes_fetched"] = static_cast<double>(r.feed_bytes);
  v["feeds.not_modified_ratio"] =
      Ratio(static_cast<double>(r.not_modified),
            static_cast<double>(r.feeds_fetched));
  v["feeds.parse_cache_hit_ratio"] =
      Ratio(static_cast<double>(r.parse_cache_hits),
            static_cast<double>(r.parse_cache_hits + r.parse_cache_misses));
  v["feeds.probes_failed"] = static_cast<double>(r.probes_failed);
  v["feeds.retries"] = static_cast<double>(r.retries_issued);
  v["feeds.circuits_opened"] = static_cast<double>(r.circuits_opened);
  v["estimation.probes_observed"] =
      static_cast<double>(r.estimation_probes_observed);
  v["estimation.predicted_eis"] =
      static_cast<double>(r.estimation_predicted_eis);
  v["estimation.explore_probes"] =
      static_cast<double>(r.estimation_explore_probes);
  return pass;
}

}  // namespace perfbench
