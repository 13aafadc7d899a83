#ifndef PULLMON_FEEDS_FAULT_INJECTION_H_
#define PULLMON_FEEDS_FAULT_INJECTION_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/chronon.h"
#include "feeds/feed_server.h"
#include "util/random.h"
#include "util/status.h"

namespace pullmon {

/// Per-resource fault rates of the injection layer. All rates are
/// per-probe probabilities in [0, 1]; latency is measured in fractional
/// chronons. The default (all zero) injects nothing and is guaranteed to
/// leave the probe path byte-identical to running without the layer.
struct FaultOptions {
  /// Probability that a probe times out: the request never completes
  /// within its chronon and no response (not even headers) is seen.
  double timeout_rate = 0.0;
  /// Probability of a transient server-side error (an HTTP 5xx): the
  /// request completes but carries no usable feed document.
  double server_error_rate = 0.0;
  /// Probability that a served body arrives truncated mid-document.
  double truncation_rate = 0.0;
  /// Probability that a served body arrives with garbled bytes.
  double corruption_rate = 0.0;
  /// Probability that a probe triggers an ETag invalidation storm: for
  /// the next `etag_storm_length` probes of the resource the server's
  /// validators are unstable, so every conditional fetch misses and pays
  /// for a full body.
  double etag_storm_rate = 0.0;
  /// Number of subsequent probes an ETag storm lasts.
  int etag_storm_length = 8;
  /// Mean simulated response latency in fractional chronons,
  /// exponentially distributed (0 disables latency simulation).
  double latency_mean = 0.0;
  /// A response slower than this many chronons misses its chronon
  /// boundary and is accounted as a timeout.
  double latency_timeout = 1.0;
  /// Per-chronon probability that a healthy resource enters an outage:
  /// the "bad" state of a two-state Gilbert-Elliott chain under which
  /// every probe of the resource fails until the outage ends. Models the
  /// correlated failure bursts of real Web sources (0 disables the
  /// chain entirely).
  double outage_enter_rate = 0.0;
  /// Per-chronon probability that a dark resource recovers. The mean
  /// outage length is 1/outage_exit_rate chronons; 0 makes outages
  /// permanent (a decommissioned source).
  double outage_exit_rate = 0.25;

  /// True when every knob is off — the layer is a pass-through.
  bool AllZero() const;
  /// Rates within [0,1], latency/storm parameters sane.
  Status Validate() const;
};

/// Deterministic counters of everything the fault layer did. Two runs
/// from the same seed produce equal stats (operator==).
struct FaultStats {
  std::size_t probes_seen = 0;
  std::size_t timeouts = 0;
  std::size_t server_errors = 0;
  std::size_t truncations = 0;
  std::size_t corruptions = 0;
  std::size_t storms_started = 0;
  /// Conditional fetches forced to full-body by an active storm.
  std::size_t etag_invalidations = 0;
  /// Probes swallowed because their resource was inside an outage.
  std::size_t outage_probes = 0;
  /// Healthy -> dark transitions of the per-resource outage chains.
  std::size_t outages_entered = 0;
  /// Dark chronons among those the outage chains were evaluated over
  /// (chains advance lazily, up to each resource's last probed chronon).
  std::size_t outage_chronons = 0;
  double latency_total = 0.0;
  double latency_max = 0.0;

  bool operator==(const FaultStats& other) const = default;
};

/// Truncates a serialized feed body at a pseudo-random cut point chosen
/// so the closing root tag is always lost — the result never parses.
/// The result is a prefix of `body`: no byte is copied. Deterministic
/// given the generator state.
std::string_view TruncateBody(std::string_view body, Rng* rng);

/// Garbles a copy of a serialized feed body by overwriting a window in
/// its second half with structurally invalid bytes (always containing
/// "<<"), so the result never parses for documents produced by
/// WriteFeed. Deterministic given the generator state.
std::string CorruptBody(std::string_view body, Rng* rng);

/// Resumable state of one FaultPlan, produced by Capture() and consumed
/// by Restore() — the recovery layer serializes it into proxy snapshots
/// so a restored run replays the exact fault sequence from the point of
/// interruption. The options and seed are not part of the image: they
/// come from the run configuration.
struct FaultPlanImage {
  /// Raw xoshiro states of the lazily created per-resource streams
  /// (entries where *_ready is 0 are placeholders).
  std::vector<std::array<uint64_t, 4>> stream_states;
  std::vector<uint8_t> stream_ready;
  std::vector<int> storm_left;
  std::vector<std::array<uint64_t, 4>> outage_stream_states;
  std::vector<uint8_t> outage_stream_ready;
  std::vector<uint8_t> outage_dark;
  std::vector<Chronon> outage_eval_from;
  Chronon now = 0;
  FaultStats stats;
};

/// The fault-injection layer: wraps a FeedNetwork and decides, per
/// probe, whether and how the probe degrades. Every decision is drawn
/// from a per-resource stream derived from a single 64-bit seed, so the
/// full fault sequence of a run is reproducible from (seed, probe order)
/// and independent streams keep resources from perturbing each other.
///
/// Responses cross the layer as views. The layer writes bytes only where
/// it changes them — a corrupted body and a storm-salted validator — and
/// those go into scratch buffers the plan owns; everything else is a
/// view of the wrapped server's buffers (a truncated body is a prefix of
/// one).
class FaultPlan {
 public:
  /// What a probe through the layer experienced.
  enum class FaultKind {
    kNone,         // response delivered (possibly mangled)
    kTimeout,      // no response within the chronon
    kServerError,  // transient 5xx, no usable document
    kOutage,       // the resource is dark (Gilbert-Elliott bad state)
  };

  struct FaultedFetch {
    FaultKind fault = FaultKind::kNone;
    bool truncated = false;
    bool corrupted = false;
    /// Simulated response latency in fractional chronons (includes the
    /// full chronon waited on a timeout).
    double latency = 0.0;
    /// The (possibly mangled) response; meaningful iff fault == kNone.
    /// Its views are valid until this plan's next ProbeConditional or the
    /// probed server's next Publish(), whichever comes first.
    FeedServer::ConditionalFetchView fetch;
  };

  /// `network` must outlive the plan; no ownership taken. Every
  /// resource draws its faults at the rates of `options`.
  FaultPlan(FeedNetwork* network, uint64_t seed,
            FaultOptions options = FaultOptions{});

  /// Delegates clock advancement to the wrapped network and records the
  /// current chronon: the per-resource outage chains are evaluated lazily
  /// up to the clock seen here, once per chronon, so a resource's outage
  /// trajectory depends only on (seed, chronon) — never on how often or
  /// in which order resources are probed.
  void AdvanceTo(Chronon t) {
    now_ = t;
    network_->AdvanceTo(t);
  }

  /// The faulty pull-probe: draws this probe's fate, performs the
  /// underlying conditional fetch unless the fault swallowed it, and
  /// applies body/validator degradations. NotFound for unknown
  /// resources, like the wrapped network. Past the outage chain, draws
  /// come from the resource's stream in a fixed order — latency,
  /// timeout, server error, storm, storm salt, truncation/corruption,
  /// mangle seed — which checkpoints and golden tests depend on.
  Result<FaultedFetch> ProbeConditional(ResourceId resource,
                                        std::string_view if_none_match);

  const FaultStats& stats() const { return stats_; }

  /// Checkpoint support: Capture() freezes the full dynamic state
  /// (stream positions, storm/outage progress, stats); Restore() resumes
  /// it on a plan built over the same network size, seed, and options.
  /// InvalidArgument on a size mismatch.
  FaultPlanImage Capture() const;
  Status Restore(const FaultPlanImage& image);

 private:
  Rng& StreamFor(ResourceId resource);
  Rng& OutageStreamFor(ResourceId resource);
  /// Whether `resource` is dark at chronon `t` (advances its chain to
  /// `t` if needed; `t` must not precede chronons already evaluated).
  bool InOutage(ResourceId resource, Chronon t);

  FeedNetwork* network_;
  uint64_t seed_;
  FaultOptions options_;
  /// Lazily created per-resource generators (index == ResourceId).
  std::vector<Rng> streams_;
  std::vector<uint8_t> stream_ready_;
  /// Remaining probes of an active ETag storm, per resource.
  std::vector<int> storm_left_;
  /// The outage chains draw from dedicated per-resource streams, one
  /// draw per evaluated chronon, so per-probe fault draws never shift a
  /// resource's outage trajectory (and vice versa).
  std::vector<Rng> outage_streams_;
  std::vector<uint8_t> outage_stream_ready_;
  std::vector<uint8_t> outage_dark_;
  /// First chronon each chain has not been evaluated for yet.
  std::vector<Chronon> outage_eval_from_;
  Chronon now_ = 0;
  FaultStats stats_;
  /// What FaultedFetch::fetch views for a corrupted body or a salted
  /// validator. Not part of the checkpoint image: no response outlives
  /// a probe.
  std::string corrupt_body_;
  std::string storm_etag_;
};

}  // namespace pullmon

#endif  // PULLMON_FEEDS_FAULT_INJECTION_H_
