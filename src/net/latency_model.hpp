// End-to-end RTT composition: path + last mile + noise.
//
// RTT(probe, region) = path propagation & processing (deterministic,
// distance- and tier-driven) + access-technology contribution (stochastic)
// + multiplicative queueing noise + a rare Pareto congestion/rerouting
// spike. Losses come from the access profile plus a small core rate.
//
// The model is the substitution for "the real Internet" in this
// reproduction; every figure of the paper is regenerated by sampling it
// through the atlas campaign engine.
#pragma once

#include <algorithm>

#include "net/access.hpp"
#include "net/endpoint.hpp"
#include "net/path.hpp"
#include "net/ping.hpp"
#include "stats/distributions.hpp"
#include "stats/rng.hpp"
#include "topology/region.hpp"

namespace shears::net {

struct LatencyModelConfig {
  PathModelConfig path{};

  /// Transient queueing along the route is *additive* above the physical
  /// base (the minimum RTT of a path is its propagation + processing; no
  /// sample can beat physics). The excess is log-normal with median
  /// `excess_fraction * base` and multiplicative spread `excess_spread`.
  double excess_fraction = 0.18;
  double excess_spread = 2.1;

  /// Rare congestion / rerouting spikes: probability per ping, Pareto
  /// severity (min, tail index).
  double spike_probability = 0.004;
  double spike_min_ms = 5.0;
  double spike_alpha = 1.5;

  /// Core (non-access) loss probability per packet.
  double core_loss_rate = 0.001;

  /// Scale applied to *wireless* access medians — the 5G what-if knob
  /// (§5, A2 ablation). 1.0 models the 2019/2020 status quo; 0.1 would be
  /// the "5G delivers" scenario.
  double wireless_latency_scale = 1.0;

  /// Diurnal load cycle: access networks congest in the local evening.
  /// The access median and bufferbloat probability are multiplied by
  /// 1 + amplitude * w(h), where w is a raised cosine peaking at
  /// `diurnal_peak_hour` local time. 0 disables (ping_once at its default
  /// load of 1 is always off-peak).
  double diurnal_amplitude = 0.15;
  double diurnal_peak_hour = 20.0;

  /// Temporal correlation of congestion: a per-probe AR(1) log-load
  /// process c_t = rho * c_{t-1} + N(0, sigma), applied as exp(c_t) on
  /// top of the diurnal load. Real RTT series show congestion epochs
  /// spanning hours, not i.i.d. ticks. sigma 0 disables.
  double temporal_rho = 0.7;
  double temporal_sigma = 0.12;
};

/// Per-probe AR(1) congestion state; the campaign evolves one per probe,
/// one step per scheduler tick.
class CongestionState {
 public:
  /// A neutral placeholder (c = 0) for fixed-size arrays of states; the
  /// campaign assigns every slot it uses from the constructor below.
  CongestionState() noexcept = default;

  /// Draws the stationary distribution so campaigns start in steady
  /// state.
  CongestionState(const LatencyModelConfig& config, stats::Xoshiro256& rng);

  /// Advances one tick and returns the multiplicative load exp(c_t).
  double step(const LatencyModelConfig& config, stats::Xoshiro256& rng);

  /// Current multiplicative load without advancing.
  [[nodiscard]] double load() const noexcept;

 private:
  double c_ = 0.0;
};

/// Fault-injection hook: an external perturbation applied to one ping
/// burst. The fault scheduler (src/faults) maps active faults onto these
/// knobs; the model stays fault-agnostic. A default-constructed
/// perturbation is neutral — it consumes exactly the same RNG draws and
/// produces bit-identical samples to the unperturbed path, so campaigns
/// with fault injection disabled reproduce the pre-fault datasets.
struct Perturbation {
  /// Multiplies the transit RTT (propagation + queueing, not the last
  /// mile) — a route flap detouring through distant transit.
  double latency_scale = 1.0;
  /// Additive bias on the reported RTT (clock-skew firmware episodes);
  /// may be negative, results clamp at 0.
  double offset_ms = 0.0;
  /// Extra independent per-packet loss probability.
  double extra_loss = 0.0;
};

/// RNG-free precomputed state for one (endpoint, region) pair. A campaign
/// samples millions of bursts over an invariant probe × region matrix, so
/// the deterministic path work (haversine, stretch, hop budget) is hoisted
/// here and computed once instead of once per packet. Consuming a cached
/// path draws exactly the same RNG stream as the recomputing entry points:
/// samples are bit-identical (see DESIGN.md, "Sampling cache").
struct CachedPath {
  PathCharacteristics path{};
  /// path.base_rtt_ms(), the congestion-free path RTT.
  double base_rtt_ms = 0.0;
  /// Median of the additive queueing excess: base * excess_fraction.
  double excess_median_ms = 0.0;
};

/// RNG-free per-endpoint state: the tier/what-if-adjusted access profile
/// plus the derived constants every packet consumes.
struct CachedProfile {
  AccessProfile profile{};  ///< access_profile_of(endpoint)
  /// Access + core loss combined as independent events:
  /// p + c - p*c. Perturbation loss composes on top per burst.
  double combined_loss = 0.0;
  /// stats::lognormal_sigma_of_spread(profile.spread).
  double log_spread = 0.0;
};

/// Raised-cosine weight of the diurnal cycle at a local hour: 1 at the
/// peak hour, 0 twelve hours away.
[[nodiscard]] double diurnal_weight(double local_hour,
                                    double peak_hour) noexcept;

/// Local solar hour for a longitude at a UTC hour (wraps to [0, 24)).
[[nodiscard]] double local_hour_at(double utc_hour, double lon_deg) noexcept;

class LatencyModel {
 public:
  LatencyModel() = default;
  explicit LatencyModel(LatencyModelConfig config)
      : config_(config),
        excess_sigma_(stats::lognormal_sigma_of_spread(config.excess_spread)) {}

  [[nodiscard]] const LatencyModelConfig& config() const noexcept {
    return config_;
  }

  /// Installs an alternative routed-distance source (e.g. the transport
  /// graph). Non-owning; pass nullptr to restore the stretch model. The
  /// provider must outlive the model and be thread-safe (campaigns call
  /// it from worker threads).
  void set_path_provider(const PathProvider* provider) noexcept {
    path_provider_ = provider;
  }
  [[nodiscard]] const PathProvider* path_provider() const noexcept {
    return path_provider_;
  }

  /// Deterministic path description for a probe/region pair.
  [[nodiscard]] PathCharacteristics path_to(
      const Endpoint& src, const topology::CloudRegion& dst) const noexcept;

  /// Congestion-free expected RTT: path base + access median. This is the
  /// "physics" floor the stochastic samples scatter around; useful for
  /// calibration and for fast what-if sweeps that skip sampling.
  [[nodiscard]] double baseline_rtt_ms(
      const Endpoint& src, const topology::CloudRegion& dst) const noexcept;

  /// The (tier- and what-if-adjusted) access profile of an endpoint.
  [[nodiscard]] AccessProfile access_profile_of(
      const Endpoint& src) const noexcept;

  /// Samples a single echo observation, recomputing the path and access
  /// profile from scratch, under a last-mile load multiplier (1 is
  /// off-peak; diurnal_load(src, h) is the diurnal cycle at UTC hour h,
  /// and the campaign multiplies in its temporal congestion) and a fault
  /// perturbation. This is the reference the cached kernel is compared
  /// against: ping_cached draws the same stream and yields the same bits
  /// as detail::aggregate_burst over this.
  [[nodiscard]] PingObservation ping_once(
      const Endpoint& src, const topology::CloudRegion& dst,
      stats::Xoshiro256& rng, double load_factor = 1.0,
      const Perturbation& perturbation = {}) const noexcept;

  /// The diurnal load multiplier the model applies at a UTC hour for an
  /// endpoint's longitude.
  [[nodiscard]] double diurnal_load(const Endpoint& src,
                                    double utc_hour) const noexcept;

  /// Precomputes the deterministic per-pair path state for cached
  /// sampling. Pure — consumes no RNG.
  [[nodiscard]] CachedPath cache_path(
      const Endpoint& src, const topology::CloudRegion& dst) const noexcept;

  /// Precomputes the deterministic per-endpoint access state for cached
  /// sampling. Pure — consumes no RNG.
  [[nodiscard]] CachedProfile cache_profile(
      const Endpoint& src) const noexcept;

  /// Samples a ping burst from precomputed state. Bit-identical to
  /// detail::aggregate_burst over ping_once(src, dst, rng, load_factor,
  /// perturbation) when `path` / `profile` were produced by cache_path /
  /// cache_profile for the same (src, dst): the cache consumes no RNG
  /// draws, so the streams stay aligned.
  [[nodiscard]] PingResult ping_cached(const CachedPath& path,
                                       const CachedProfile& profile,
                                       int packets, double load_factor,
                                       const Perturbation& perturbation,
                                       stats::Xoshiro256& rng) const noexcept;

 private:
  LatencyModelConfig config_{};
  /// ln(excess_spread), hoisted out of per-burst sampling (the config is
  /// immutable after construction).
  double excess_sigma_ =
      stats::lognormal_sigma_of_spread(LatencyModelConfig{}.excess_spread);
  const PathProvider* path_provider_ = nullptr;
};

namespace detail {

/// Per-burst invariants hoisted out of the packet loop. Every field is a
/// pure function of (config, pair, load, perturbation); building one
/// consumes no RNG draws, which is what keeps cached and recomputing
/// sampling on the same stream.
struct BurstState {
  double loss = 0.0;  ///< access + core + perturbation, independent events
  double base_rtt_ms = 0.0;
  double excess_median_ms = 0.0;
  double excess_sigma = 0.0;
  double latency_scale = 1.0;
  double offset_ms = 0.0;
  double median_ms = 0.0;          ///< load-adjusted access median
  double bloat_probability = 0.0;  ///< load-adjusted, clamped at 1
  double bloat_scale_ms = 0.0;
  double log_spread = 0.0;
};

inline BurstState make_burst_state(const CachedPath& path,
                                   const CachedProfile& cached_profile,
                                   double load_factor,
                                   const Perturbation& perturbation,
                                   double excess_sigma) noexcept {
  BurstState s;
  s.median_ms = cached_profile.profile.median_ms * load_factor;
  s.bloat_probability =
      std::min(cached_profile.profile.bloat_probability * load_factor, 1.0);
  s.bloat_scale_ms = cached_profile.profile.bloat_scale_ms;
  s.log_spread = cached_profile.log_spread;
  s.loss = cached_profile.combined_loss + perturbation.extra_loss -
           cached_profile.combined_loss * perturbation.extra_loss;
  s.base_rtt_ms = path.base_rtt_ms;
  s.excess_median_ms = path.excess_median_ms;
  s.excess_sigma = excess_sigma;
  s.latency_scale = perturbation.latency_scale;
  s.offset_ms = perturbation.offset_ms;
  return s;
}

/// One simulated echo from hoisted burst state. Inline (with the samplers
/// it calls) because a nine-month campaign runs this tens of millions of
/// times. It draws and computes exactly what LatencyModel::ping_once
/// does from scratch, which is what makes the two byte-identical.
inline PingObservation sample_ping(const LatencyModelConfig& config,
                                   const BurstState& s,
                                   stats::Xoshiro256& rng) noexcept {
  if (rng.bernoulli(s.loss)) return {true, 0.0};
  double rtt = s.base_rtt_ms;
  if (config.excess_fraction > 0.0) {
    rtt += stats::sample_lognormal_presigma(rng, s.excess_median_ms,
                                            s.excess_sigma);
  }
  rtt *= s.latency_scale;  // route detour scales transit only
  rtt += sample_access_latency_raw(s.median_ms, s.log_spread,
                                   s.bloat_probability, s.bloat_scale_ms, rng);
  if (rng.bernoulli(config.spike_probability)) {
    rtt += stats::sample_pareto(rng, config.spike_min_ms, config.spike_alpha);
  }
  rtt = std::max(0.0, rtt + s.offset_ms);
  return {false, rtt};
}

template <typename Sampler>
PingResult aggregate_burst(int packets, Sampler&& sample) noexcept {
  PingResult result;
  result.sent = packets;
  double sum = 0.0;
  for (int i = 0; i < packets; ++i) {
    const PingObservation obs = sample();
    if (obs.lost) continue;
    if (result.received == 0) {
      result.min_ms = result.max_ms = obs.rtt_ms;
    } else {
      result.min_ms = std::min(result.min_ms, obs.rtt_ms);
      result.max_ms = std::max(result.max_ms, obs.rtt_ms);
    }
    sum += obs.rtt_ms;
    ++result.received;
  }
  if (result.received > 0) result.avg_ms = sum / result.received;
  return result;
}

}  // namespace detail

inline PingResult LatencyModel::ping_cached(
    const CachedPath& path, const CachedProfile& profile, int packets,
    double load_factor, const Perturbation& perturbation,
    stats::Xoshiro256& rng) const noexcept {
  const detail::BurstState state = detail::make_burst_state(
      path, profile, load_factor, perturbation, excess_sigma_);
  return detail::aggregate_burst(
      packets, [&] { return detail::sample_ping(config_, state, rng); });
}

}  // namespace shears::net
