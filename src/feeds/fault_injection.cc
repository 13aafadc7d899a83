#include "feeds/fault_injection.h"

#include <algorithm>
#include <cstdio>

#include "util/string_util.h"

namespace pullmon {

namespace {

Status ValidateRate(double rate, const char* name) {
  if (rate < 0.0 || rate > 1.0) {
    return Status::InvalidArgument(
        StringFormat("%s must be in [0,1], got %g", name, rate));
  }
  return Status::OK();
}

}  // namespace

bool FaultOptions::AllZero() const {
  return timeout_rate == 0.0 && server_error_rate == 0.0 &&
         truncation_rate == 0.0 && corruption_rate == 0.0 &&
         etag_storm_rate == 0.0 && latency_mean == 0.0 &&
         outage_enter_rate == 0.0;
}

Status FaultOptions::Validate() const {
  PULLMON_RETURN_NOT_OK(ValidateRate(timeout_rate, "timeout_rate"));
  PULLMON_RETURN_NOT_OK(ValidateRate(server_error_rate, "server_error_rate"));
  PULLMON_RETURN_NOT_OK(ValidateRate(truncation_rate, "truncation_rate"));
  PULLMON_RETURN_NOT_OK(ValidateRate(corruption_rate, "corruption_rate"));
  PULLMON_RETURN_NOT_OK(ValidateRate(etag_storm_rate, "etag_storm_rate"));
  if (etag_storm_rate > 0.0 && etag_storm_length <= 0) {
    return Status::InvalidArgument(
        "etag_storm_length must be positive when storms are enabled");
  }
  if (latency_mean < 0.0) {
    return Status::InvalidArgument("latency_mean must be >= 0");
  }
  if (latency_timeout <= 0.0) {
    return Status::InvalidArgument("latency_timeout must be > 0");
  }
  PULLMON_RETURN_NOT_OK(ValidateRate(outage_enter_rate, "outage_enter_rate"));
  PULLMON_RETURN_NOT_OK(ValidateRate(outage_exit_rate, "outage_exit_rate"));
  return Status::OK();
}

std::string_view TruncateBody(std::string_view body, Rng* rng) {
  // Serialized feeds end in a closing root tag of at most 8 bytes
  // ("</feed>\n"); keeping strictly fewer than size-8 bytes guarantees
  // the root element is left open and the parser reports an error.
  if (body.size() <= 9) return body.substr(0, 1);
  std::size_t keep =
      1 + static_cast<std::size_t>(
              rng->NextBounded(static_cast<uint64_t>(body.size() - 9)));
  return body.substr(0, keep);
}

std::string CorruptBody(std::string_view body, Rng* rng) {
  std::string mangled(body);
  if (mangled.size() < 16) return "<<";
  // Land the damage in the second half of the document — past the XML
  // declaration, inside the root element — so the raw "<<" is a
  // guaranteed structural error for WriteFeed output (which contains no
  // CDATA or comment sections that could hide it).
  std::size_t half = mangled.size() / 2;
  std::size_t offset =
      half + static_cast<std::size_t>(
                 rng->NextBounded(static_cast<uint64_t>(half - 6)));
  static constexpr char kGarbage[] = "<&#;\x01\xff";
  mangled[offset] = '<';
  mangled[offset + 1] = '<';
  mangled[offset + 2] = kGarbage[rng->NextBounded(sizeof(kGarbage) - 1)];
  mangled[offset + 3] = kGarbage[rng->NextBounded(sizeof(kGarbage) - 1)];
  return mangled;
}

FaultPlan::FaultPlan(FeedNetwork* network, uint64_t seed,
                     FaultOptions options)
    : network_(network), seed_(seed), options_(options) {
  std::size_t n = network_->num_servers();
  streams_.resize(n, Rng(0));
  stream_ready_.assign(n, 0);
  storm_left_.assign(n, 0);
  outage_streams_.resize(n, Rng(0));
  outage_stream_ready_.assign(n, 0);
  outage_dark_.assign(n, 0);
  outage_eval_from_.assign(n, 0);
}

FaultPlanImage FaultPlan::Capture() const {
  FaultPlanImage image;
  image.stream_states.reserve(streams_.size());
  for (const Rng& rng : streams_) {
    image.stream_states.push_back(rng.SaveState());
  }
  image.stream_ready = stream_ready_;
  image.storm_left = storm_left_;
  image.outage_stream_states.reserve(outage_streams_.size());
  for (const Rng& rng : outage_streams_) {
    image.outage_stream_states.push_back(rng.SaveState());
  }
  image.outage_stream_ready = outage_stream_ready_;
  image.outage_dark = outage_dark_;
  image.outage_eval_from = outage_eval_from_;
  image.now = now_;
  image.stats = stats_;
  return image;
}

Status FaultPlan::Restore(const FaultPlanImage& image) {
  const std::size_t n = streams_.size();
  if (image.stream_states.size() != n || image.stream_ready.size() != n ||
      image.storm_left.size() != n ||
      image.outage_stream_states.size() != n ||
      image.outage_stream_ready.size() != n ||
      image.outage_dark.size() != n ||
      image.outage_eval_from.size() != n) {
    return Status::InvalidArgument(
        "fault-plan image resource count does not match the plan");
  }
  for (std::size_t r = 0; r < n; ++r) {
    streams_[r].RestoreState(image.stream_states[r]);
    outage_streams_[r].RestoreState(image.outage_stream_states[r]);
  }
  stream_ready_ = image.stream_ready;
  storm_left_ = image.storm_left;
  outage_stream_ready_ = image.outage_stream_ready;
  outage_dark_ = image.outage_dark;
  outage_eval_from_ = image.outage_eval_from;
  now_ = image.now;
  stats_ = image.stats;
  return Status::OK();
}

Rng& FaultPlan::StreamFor(ResourceId resource) {
  std::size_t r = static_cast<std::size_t>(resource);
  if (!stream_ready_[r]) {
    // One SplitMix64 step decorrelates the per-resource seeds even for
    // adjacent resource ids; the Rng constructor mixes further.
    uint64_t state = seed_ + 0x9E3779B97F4A7C15ULL * (resource + 1);
    streams_[r] = Rng(SplitMix64(&state));
    stream_ready_[r] = 1;
  }
  return streams_[r];
}

Rng& FaultPlan::OutageStreamFor(ResourceId resource) {
  std::size_t r = static_cast<std::size_t>(resource);
  if (!outage_stream_ready_[r]) {
    // Same derivation as StreamFor, salted so the outage chain and the
    // per-probe fault stream of a resource are independent.
    uint64_t state = (seed_ ^ 0xA5A5A5A55A5A5A5AULL) +
                     0x9E3779B97F4A7C15ULL * (resource + 1);
    outage_streams_[r] = Rng(SplitMix64(&state));
    outage_stream_ready_[r] = 1;
  }
  return outage_streams_[r];
}

bool FaultPlan::InOutage(ResourceId resource, Chronon t) {
  const FaultOptions& options = options_;
  if (options.outage_enter_rate <= 0.0) return false;
  std::size_t r = static_cast<std::size_t>(resource);
  Rng& rng = OutageStreamFor(resource);
  // One Gilbert-Elliott step per chronon in [eval_from, t]; the state
  // after the step at chronon c is the state *during* chronon c.
  while (outage_eval_from_[r] <= t) {
    if (outage_dark_[r]) {
      if (options.outage_exit_rate > 0.0 &&
          rng.NextBool(options.outage_exit_rate)) {
        outage_dark_[r] = 0;
      }
    } else if (rng.NextBool(options.outage_enter_rate)) {
      outage_dark_[r] = 1;
      ++stats_.outages_entered;
    }
    if (outage_dark_[r]) ++stats_.outage_chronons;
    ++outage_eval_from_[r];
  }
  return outage_dark_[r] != 0;
}

Result<FaultPlan::FaultedFetch> FaultPlan::ProbeConditional(
    ResourceId resource, std::string_view if_none_match) {
  if (resource < 0 ||
      static_cast<std::size_t>(resource) >= storm_left_.size()) {
    return Status::NotFound(
        StringFormat("no feed server for resource %d", resource));
  }
  const FaultOptions& options = options_;
  ++stats_.probes_seen;
  FaultedFetch outcome;
  if (options.AllZero()) {
    // Fast pass-through: no stream is touched, the wrapped network is
    // probed verbatim — byte-identical to running without the layer.
    PULLMON_ASSIGN_OR_RETURN(
        outcome.fetch,
        network_->ProbeConditionalView(resource, if_none_match));
    return outcome;
  }

  auto record_latency = [&] {
    stats_.latency_total += outcome.latency;
    stats_.latency_max = std::max(stats_.latency_max, outcome.latency);
  };

  // Outages swallow the probe before any per-probe fate is drawn, so a
  // dark stretch does not consume the resource's fault stream: the
  // per-probe fault sequence after recovery is the same one the
  // resource would have seen without the outage.
  if (InOutage(resource, now_)) {
    outcome.fault = FaultKind::kOutage;
    if (options.latency_mean > 0.0) {
      outcome.latency = options.latency_timeout;
    }
    ++stats_.outage_probes;
    record_latency();
    return outcome;
  }

  Rng& rng = StreamFor(resource);
  if (options.latency_mean > 0.0) {
    outcome.latency = rng.NextExponential(1.0 / options.latency_mean);
  }

  // Hard faults first: the request dies before a response exists, so
  // the wrapped server never sees a fetch.
  if (options.timeout_rate > 0.0 && rng.NextBool(options.timeout_rate)) {
    outcome.fault = FaultKind::kTimeout;
    outcome.latency = std::max(outcome.latency, options.latency_timeout);
    ++stats_.timeouts;
    record_latency();
    return outcome;
  }
  if (options.server_error_rate > 0.0 &&
      rng.NextBool(options.server_error_rate)) {
    outcome.fault = FaultKind::kServerError;
    ++stats_.server_errors;
    record_latency();
    return outcome;
  }
  // A response slower than the chronon boundary is indistinguishable
  // from a timeout to the prober.
  if (outcome.latency >= options.latency_timeout) {
    outcome.fault = FaultKind::kTimeout;
    ++stats_.timeouts;
    record_latency();
    return outcome;
  }
  record_latency();

  // ETag invalidation storms: while active, the server's validators are
  // unstable — the client's If-None-Match can never hit, so the probe is
  // forced to an unconditional full-body fetch and the echoed validator
  // is salted so the *next* conditional fetch misses too.
  std::size_t r = static_cast<std::size_t>(resource);
  bool storm = storm_left_[r] > 0;
  if (!storm && options.etag_storm_rate > 0.0 &&
      rng.NextBool(options.etag_storm_rate)) {
    storm = true;
    storm_left_[r] = options.etag_storm_length;
    ++stats_.storms_started;
  }
  PULLMON_ASSIGN_OR_RETURN(
      outcome.fetch,
      network_->ProbeConditionalView(
          resource, storm ? std::string_view() : if_none_match));
  if (storm) {
    --storm_left_[r];
    char salt[24];
    std::snprintf(salt, sizeof(salt), "-storm%016llx",
                  static_cast<unsigned long long>(rng.Next()));
    storm_etag_.assign(outcome.fetch.etag).append(salt);
    outcome.fetch.etag = storm_etag_;
    ++stats_.etag_invalidations;
  }

  // Served bodies are never empty (WriteFeed output always carries the
  // document skeleton), so a delivered response is mangle-eligible iff
  // it is a full body rather than a 304.
  if (outcome.fetch.not_modified) return outcome;
  if (options.truncation_rate > 0.0 &&
      rng.NextBool(options.truncation_rate)) {
    outcome.truncated = true;
    ++stats_.truncations;
  } else if (options.corruption_rate > 0.0 &&
             rng.NextBool(options.corruption_rate)) {
    outcome.corrupted = true;
    ++stats_.corruptions;
  }
  if (outcome.truncated || outcome.corrupted) {
    // One draw seeds a dedicated mangling generator; letting the cut
    // points draw from the resource stream directly would make the
    // stream's position depend on the fetched document.
    Rng mangle_rng(rng.Next());
    if (outcome.truncated) {
      outcome.fetch.body = TruncateBody(outcome.fetch.body, &mangle_rng);
    } else {
      corrupt_body_ = CorruptBody(outcome.fetch.body, &mangle_rng);
      outcome.fetch.body = corrupt_body_;
    }
  }
  return outcome;
}

}  // namespace pullmon
