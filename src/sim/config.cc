#include "sim/config.h"

#include "util/string_util.h"

namespace pullmon {

const char* DatasetKindToString(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kPoisson:
      return "poisson";
    case DatasetKind::kAuction:
      return "auction";
    case DatasetKind::kFeedWorkload:
      return "feed-workload";
  }
  return "?";
}

const char* KnowledgeModelToString(KnowledgeModel model) {
  switch (model) {
    case KnowledgeModel::kOracle:
      return "oracle";
    case KnowledgeModel::kEstimated:
      return "estimated";
  }
  return "?";
}

SimulationConfig BaselineConfig() { return SimulationConfig{}; }

Status SimulationConfig::Validate() const {
  PULLMON_RETURN_NOT_OK(faults.Validate());
  PULLMON_RETURN_NOT_OK(retry.Validate());
  PULLMON_RETURN_NOT_OK(breaker.Validate());
  PULLMON_RETURN_NOT_OK(churn.Validate());
  PULLMON_RETURN_NOT_OK(trace_store.Validate());
  if (checkpoint_every < 0) {
    return Status::InvalidArgument(
        "checkpoint-every must be >= 0 chronons");
  }
  if (feed_buffer_capacity < 1) {
    return Status::InvalidArgument("buffer-capacity must be >= 1 items");
  }
  if (checkpoint_dir.empty()) {
    if (checkpoint_every > 0) {
      return Status::InvalidArgument(
          "--checkpoint-every requires --checkpoint-dir");
    }
    if (crash_at_chronon >= 0) {
      return Status::InvalidArgument(
          "--crash-at requires --checkpoint-dir (there is nothing "
          "durable to crash)");
    }
    if (recover) {
      return Status::InvalidArgument(
          "--recover requires --checkpoint-dir (nowhere to recover "
          "from)");
    }
  }
  PULLMON_RETURN_NOT_OK(ValidateEstimation());
  if (knowledge == KnowledgeModel::kEstimated) {
    if (churn.enabled) {
      return Status::InvalidArgument(
          "--knowledge=estimated does not combine with --churn (the "
          "adaptive runner generates its own predicted submissions)");
    }
    if (!checkpoint_dir.empty() || recover) {
      return Status::InvalidArgument(
          "--knowledge=estimated does not offer checkpoint/recovery "
          "yet; run it volatile");
    }
  }
  return Status::OK();
}

Status SimulationConfig::ValidateEstimation() const {
  if (estimator_half_life <= 0.0) {
    return Status::InvalidArgument(
        "--estimator-half-life must be > 0 chronons");
  }
  if (explore_eps < 0.0 || explore_eps > 1.0) {
    return Status::InvalidArgument("--explore-eps must be in [0, 1]");
  }
  if (forecast_horizon < 1) {
    return Status::InvalidArgument(
        "--forecast-horizon must be >= 1 chronons");
  }
  return Status::OK();
}

std::vector<std::pair<std::string, std::string>> SimulationConfig::ToRows()
    const {
  std::vector<std::pair<std::string, std::string>> rows;
  rows.emplace_back("dataset", DatasetKindToString(dataset));
  rows.emplace_back("n (resources)", StringFormat("%d", num_resources));
  rows.emplace_back("K (chronons)", StringFormat("%d", epoch_length));
  rows.emplace_back("m (profiles)", StringFormat("%d", num_profiles));
  rows.emplace_back("k = rank(P)", StringFormat("%d", max_rank));
  if (dataset == DatasetKind::kPoisson) {
    rows.emplace_back("lambda (updates/resource)",
                      StringFormat("%.1f", lambda));
  }
  rows.emplace_back("alpha (inter-user)", StringFormat("%.2f", alpha));
  rows.emplace_back("beta (intra-user)", StringFormat("%.2f", beta));
  rows.emplace_back("restriction",
                    LengthRestrictionToString(restriction));
  if (restriction == LengthRestriction::kWindow) {
    rows.emplace_back("W (window)", StringFormat("%d", window));
  }
  rows.emplace_back("C (budget/chronon)", StringFormat("%d", budget));
  if (!faults.AllZero()) {
    rows.emplace_back(
        "faults (to/err/trunc/corr/storm)",
        StringFormat("%.2f/%.2f/%.2f/%.2f/%.2f", faults.timeout_rate,
                     faults.server_error_rate, faults.truncation_rate,
                     faults.corruption_rate, faults.etag_storm_rate));
    if (faults.latency_mean > 0.0) {
      rows.emplace_back("latency mean (chronons)",
                        StringFormat("%.3f", faults.latency_mean));
    }
  }
  if (faults.outage_enter_rate > 0.0) {
    rows.emplace_back("outage (enter/exit)",
                      StringFormat("%.3f/%.3f", faults.outage_enter_rate,
                                   faults.outage_exit_rate));
  }
  if (breaker.enabled) {
    rows.emplace_back(
        "circuit breaker",
        StringFormat("thresh %d, cooldown %d x%.1f cap %d",
                     breaker.failure_threshold, breaker.cooldown_base,
                     breaker.cooldown_multiplier, breaker.max_cooldown));
  }
  if (retry.max_retries > 0) {
    rows.emplace_back("probe retries",
                      StringFormat("%d (backoff %.3f x%.1f)",
                                   retry.max_retries, retry.backoff_base,
                                   retry.backoff_multiplier));
  }
  if (executor_backend != ExecutorBackend::kIndexed) {
    rows.emplace_back("executor",
                      ExecutorBackendToString(executor_backend));
  }
  if (parse_cache) rows.emplace_back("parse cache", "on");
  if (trace_backend != TraceBackend::kInMemory) {
    rows.emplace_back("trace backend",
                      TraceBackendToString(trace_backend));
    rows.emplace_back(
        "trace store (page/cache)",
        StringFormat("%zu B / %zu pages", trace_store.page_size,
                     trace_store.cache_pages));
  }
  if (churn.enabled) {
    rows.emplace_back(
        "churn (ops/chronon)",
        StringFormat("%.2f (cancel %.2f / edit %.2f / unreg %.2f)",
                     churn.ops_per_chronon, churn.cancel_fraction,
                     churn.edit_fraction, churn.unregister_fraction));
    rows.emplace_back("churn zipf theta",
                      StringFormat("%.2f", churn.zipf_theta));
  }
  if (!checkpoint_dir.empty()) {
    rows.emplace_back("checkpoint dir", checkpoint_dir);
    rows.emplace_back("checkpoint every",
                      checkpoint_every > 0
                          ? StringFormat("%d chronons", checkpoint_every)
                          : std::string("WAL-size only"));
    if (crash_at_chronon >= 0) {
      rows.emplace_back("crash at",
                        StringFormat("chronon %d + %zu B",
                                     crash_at_chronon, crash_at_offset));
    }
    if (recover) rows.emplace_back("recover", "yes");
  }
  if (knowledge != KnowledgeModel::kOracle) {
    rows.emplace_back("knowledge", KnowledgeModelToString(knowledge));
    rows.emplace_back("estimator half-life",
                      StringFormat("%.1f", estimator_half_life));
    rows.emplace_back("explore eps", StringFormat("%.3f", explore_eps));
    rows.emplace_back("forecast horizon",
                      StringFormat("%d", forecast_horizon));
  }
  return rows;
}

}  // namespace pullmon
