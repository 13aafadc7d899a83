#include "sim/proxy.h"

#include <string>
#include <utility>

#include "feeds/atom.h"
#include "util/logging.h"

namespace pullmon {

Status ProxyOptions::Validate() const {
  PULLMON_RETURN_NOT_OK(faults.Validate());
  PULLMON_RETURN_NOT_OK(retry.Validate());
  return breaker.Validate();
}

FeedPullSession::FeedPullSession(FeedNetwork* network, int num_resources,
                                 const ProxyOptions& options,
                                 ProxyRunReport* report)
    : network_(network),
      report_(report),
      etags_(static_cast<std::size_t>(num_resources)) {
  // The fault layer sits between session and network only when some rate
  // is non-zero; a fresh plan per session makes repeated runs replay the
  // identical fault sequence.
  if (!options.faults.AllZero()) {
    plan_.emplace(network_, options.fault_seed, options.faults);
  }
  if (options.parse_cache) {
    cache_.emplace(static_cast<std::size_t>(num_resources));
  }
}

bool FeedPullSession::Probe(ResourceId resource, Chronon now) {
  // Clock advancement goes through the fault plan when one exists, so
  // its per-resource outage chains see the current chronon.
  if (plan_.has_value()) {
    plan_->AdvanceTo(now);
  } else {
    network_->AdvanceTo(now);
  }
  if (now != fetch_chronon_) {
    if (current_items_.use_count() > 1) {
      current_items_ = std::make_shared<std::vector<FeedItem>>();
    } else {
      current_items_->clear();
    }
    fetch_chronon_ = now;
  }
  const std::size_t items_before = current_items_->size();
  bool not_modified = false;
  const bool success = Fetch(resource, &not_modified);
  if (observer_) {
    observer_(PullAttempt{
        resource, now, success, not_modified,
        std::span<const FeedItem>(*current_items_).subspan(items_before)});
  }
  return success;
}

bool FeedPullSession::Fetch(ResourceId resource, bool* not_modified_out) {
  std::string& etag = etags_[static_cast<std::size_t>(resource)];
  // One response type on both paths: views into the server's reused
  // buffers, or into the fault plan's scratch buffers for the bytes it
  // mangled — either way alive for the rest of this probe.
  FeedServer::ConditionalFetchView fetch;
  bool mangled = false;
  if (plan_.has_value()) {
    auto outcome = plan_->ProbeConditional(resource, etag);
    if (!outcome.ok()) {
      ++report_->parse_failures;
      return false;
    }
    // Timeouts, server errors and outages deliver nothing; the fault
    // plan counts them.
    if (outcome->fault != FaultPlan::FaultKind::kNone) return false;
    mangled = outcome->truncated || outcome->corrupted;
    fetch = outcome->fetch;
  } else {
    auto direct = network_->ProbeConditionalView(resource, etag);
    if (!direct.ok()) {
      ++report_->parse_failures;
      return false;
    }
    fetch = *direct;
  }
  ++report_->feeds_fetched;
  if (fetch.not_modified) {
    ++report_->not_modified;
    *not_modified_out = true;
    etag.assign(fetch.etag);
    return true;  // nothing new to parse or deliver
  }
  report_->feed_bytes += fetch.body.size();
  if (cache_.has_value()) {
    auto lookup = cache_->Lookup(resource, fetch.etag, fetch.body, mangled);
    if (!lookup.ok()) {
      if (status_.ok()) status_ = lookup.status();
      return false;
    }
    if (const FeedDocument* replay = *lookup; replay != nullptr) {
      etag.assign(fetch.etag);
      report_->items_parsed += replay->items.size();
      current_items_->insert(current_items_->end(), replay->items.begin(),
                             replay->items.end());
      return true;
    }
  }
  arena_.Reset();
  auto parsed = ParseFeed(fetch.body, &arena_);
  if (!parsed.ok()) {
    ++report_->parse_failures;
    // An unparsable response proves nothing about the feed state: keep
    // the previous validator so a retry refetches the full body, drop
    // any cached document (it can no longer be trusted as current), and
    // report failure so the EI stays a candidate.
    if (cache_.has_value()) cache_->Invalidate(resource);
    return false;
  }
  const FeedDocumentView& view = **parsed;
  etag.assign(fetch.etag);
  report_->items_parsed += view.num_items;
  if (cache_.has_value()) {
    const FeedDocument& stored =
        cache_->Store(resource, fetch.etag, fetch.body, view.Materialize());
    current_items_->insert(current_items_->end(), stored.items.begin(),
                           stored.items.end());
  } else {
    view.AppendItems(current_items_.get());
  }
  return true;
}

void FeedPullSession::FinishReport(OnlineRunResult run) {
  report_->run = std::move(run);
  const OnlineRunResult& r = report_->run;
  report_->probes_failed = r.probes_failed;
  report_->retries_issued = r.retries_issued;
  report_->retry_probes_spent = r.retry_probes_spent;
  static_cast<HealthStats&>(*report_) = r;
  const std::size_t total = r.completeness.total_t_intervals;
  report_->gc_lost_to_faults =
      total == 0 ? 0.0
                 : static_cast<double>(r.t_intervals_lost_to_faults) /
                       static_cast<double>(total);
  if (plan_.has_value()) {
    const FaultStats& f = report_->fault_stats = plan_->stats();
    report_->corrupt_bodies = f.truncations + f.corruptions;
    report_->timeouts = f.timeouts;
    report_->server_errors = f.server_errors;
    report_->outage_probes = f.outage_probes;
    report_->etag_invalidations = f.etag_invalidations;
  }
  if (cache_.has_value()) {
    static_cast<ParseCacheStats&>(*report_) = cache_->stats();
  }
  if (const TraceStore* store = network_->trace_store();
      store != nullptr) {
    static_cast<TraceStoreStats&>(*report_) = store->stats();
  }
}

PullSessionImage FeedPullSession::Capture() const {
  PullSessionImage image;
  image.etags = etags_;
  if (plan_.has_value()) image.fault_plan = plan_->Capture();
  if (cache_.has_value()) image.parse_cache = cache_->Capture();
  return image;
}

Status FeedPullSession::Restore(const PullSessionImage& image) {
  if (image.etags.size() != etags_.size()) {
    return Status::InvalidArgument(
        "session image resource count does not match the session");
  }
  if (image.fault_plan.has_value() != plan_.has_value()) {
    return Status::InvalidArgument(
        "session image and session disagree on the fault layer");
  }
  if (image.parse_cache.has_value() != cache_.has_value()) {
    return Status::InvalidArgument(
        "session image and session disagree on the parse cache");
  }
  etags_ = image.etags;
  if (plan_.has_value()) {
    PULLMON_RETURN_NOT_OK(plan_->Restore(*image.fault_plan));
  }
  if (cache_.has_value()) {
    PULLMON_RETURN_NOT_OK(cache_->Restore(*image.parse_cache));
  }
  return Status::OK();
}

namespace {

/// Keeps the name of the first compared pair that differs. A block is
/// compared through its defaulted operator==, by naming its struct as
/// T: Check<ProbeStats>("ProbeStats", a, b).
class FirstDifference {
 public:
  template <typename T>
  FirstDifference& Check(const char* name, const T& a, const T& b,
                         bool compare = true) {
    if (name_.empty() && compare && !(a == b)) name_ = name;
    return *this;
  }

  std::string name() const { return name_; }

 private:
  std::string name_;
};

}  // namespace

std::string ReportDifference(const ProxyRunReport& a, const ProxyRunReport& b,
                             const ReportEqualityOptions& options) {
  const Schedule& sa = a.run.schedule;
  const Schedule& sb = b.run.schedule;
  if (sa.epoch_length() != sb.epoch_length()) return "run.schedule length";
  for (Chronon t = 0; t < sa.epoch_length(); ++t) {
    if (sa.ProbesAt(t) != sb.ProbesAt(t)) {
      return "run.schedule at chronon " + std::to_string(t);
    }
  }
  return FirstDifference()
      .Check("run.completeness", a.run.completeness.GainedCompleteness(),
             b.run.completeness.GainedCompleteness())
      .Check<ProbeStats>("run.ProbeStats", a.run, b.run)
      .Check("run.t_intervals_completed", a.run.t_intervals_completed,
             b.run.t_intervals_completed)
      .Check("run.t_intervals_failed", a.run.t_intervals_failed,
             b.run.t_intervals_failed)
      .Check<HealthStats>("run.HealthStats", a.run, b.run)
      .Check("run.open_chronons_by_resource",
             a.run.open_chronons_by_resource,
             b.run.open_chronons_by_resource)
      .Check<LiveReportCounters>("LiveReportCounters", a, b)
      .Check("probes_failed", a.probes_failed, b.probes_failed)
      .Check("corrupt_bodies", a.corrupt_bodies, b.corrupt_bodies)
      .Check("timeouts", a.timeouts, b.timeouts)
      .Check("server_errors", a.server_errors, b.server_errors)
      .Check("outage_probes", a.outage_probes, b.outage_probes)
      .Check("retries_issued", a.retries_issued, b.retries_issued)
      .Check("retry_probes_spent", a.retry_probes_spent,
             b.retry_probes_spent)
      .Check("etag_invalidations", a.etag_invalidations,
             b.etag_invalidations)
      .Check("gc_lost_to_faults", a.gc_lost_to_faults, b.gc_lost_to_faults)
      .Check("fault_stats", a.fault_stats, b.fault_stats)
      .Check<HealthStats>("HealthStats", a, b)
      .Check<ParseCacheStats>("ParseCacheStats", a, b,
                              options.parse_cache_stats)
      .Check<ChurnStats>("ChurnStats", a, b)
      .Check<TraceStoreStats>("TraceStoreStats", a, b, options.trace_stats)
      .Check<EstimationStats>("EstimationStats", a, b)
      .Check<AdaptiveRunStats>("AdaptiveRunStats", a, b)
      .name();
}

MonitoringProxy::MonitoringProxy(const MonitoringProblem* problem,
                                 FeedNetwork* network, Policy* policy,
                                 ExecutionMode mode, ProxyOptions options)
    : problem_(problem),
      network_(network),
      policy_(policy),
      mode_(mode),
      options_(options) {}

Result<ProxyRunReport> MonitoringProxy::Run() {
  PULLMON_RETURN_NOT_OK(options_.Validate());
  if (options_.trace_backend == TraceBackend::kPaged &&
      network_->trace_store() == nullptr) {
    return Status::InvalidArgument(
        "trace_backend is paged but the feed network replays an "
        "in-memory trace");
  }
  notifications_.clear();
  ProxyRunReport report;

  OnlineExecutor executor(problem_, policy_, mode_);
  executor.set_retry_policy(options_.retry);
  executor.set_breaker_options(options_.breaker);
  executor.set_backend(options_.backend);

  FeedPullSession session(network_, problem_->num_resources, options_,
                          &report);
  session.AttachTo(&executor);

  executor.set_capture_callback([&](ProfileId profile,
                                    std::size_t t_interval_index,
                                    Chronon now) {
    // The push leg: deliver the captured t-interval to its client.
    ProxyNotification notification;
    notification.profile = profile;
    notification.t_interval_index = t_interval_index;
    notification.chronon = now;
    // A capture at `now` always follows a successful Probe(_, now).
    PULLMON_CHECK(now == session.fetch_chronon());
    notification.items = session.current_items();
    notifications_.push_back(std::move(notification));
    ++report.notifications_delivered;
  });

  PULLMON_ASSIGN_OR_RETURN(OnlineRunResult run, executor.Run());
  session.FinishReport(std::move(run));
  return report;
}

}  // namespace pullmon
