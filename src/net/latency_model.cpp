#include "net/latency_model.hpp"

#include <algorithm>
#include <cmath>

#include "stats/distributions.hpp"

namespace shears::net {

PathCharacteristics LatencyModel::path_to(
    const Endpoint& src, const topology::CloudRegion& dst) const noexcept {
  const topology::BackboneClass backbone =
      topology::backbone_class(dst.provider);
  if (path_provider_ != nullptr) {
    return characterize_path_with_routed(
        config_.path, geo::haversine_km(src.location, dst.location),
        path_provider_->routed_km(src.location, src.tier, dst.location,
                                  backbone),
        backbone);
  }
  return characterize_path(config_.path, src.location, src.tier, dst.location,
                           backbone);
}

AccessProfile LatencyModel::access_profile_of(
    const Endpoint& src) const noexcept {
  AccessProfile profile = profile_for(src.access, src.tier);
  profile.median_ms *= src.access_quality;
  if (is_wireless(src.access)) {
    profile.median_ms *= config_.wireless_latency_scale;
  }
  return profile;
}

double LatencyModel::baseline_rtt_ms(
    const Endpoint& src, const topology::CloudRegion& dst) const noexcept {
  return path_to(src, dst).base_rtt_ms() + access_profile_of(src).median_ms;
}

double diurnal_weight(double local_hour, double peak_hour) noexcept {
  constexpr double kTwoPi = 2.0 * 3.14159265358979323846;
  const double phase = (local_hour - peak_hour) / 24.0;
  const double raised = 0.5 * (1.0 + std::cos(kTwoPi * phase));
  return raised * raised;  // sharpen: congestion is an evening phenomenon
}

double local_hour_at(double utc_hour, double lon_deg) noexcept {
  double h = utc_hour + lon_deg / 15.0;
  h = std::fmod(h, 24.0);
  return h < 0.0 ? h + 24.0 : h;
}

CachedPath LatencyModel::cache_path(
    const Endpoint& src, const topology::CloudRegion& dst) const noexcept {
  CachedPath c;
  c.path = path_to(src, dst);
  c.base_rtt_ms = c.path.base_rtt_ms();
  c.excess_median_ms = c.base_rtt_ms * config_.excess_fraction;
  return c;
}

CachedProfile LatencyModel::cache_profile(
    const Endpoint& src) const noexcept {
  CachedProfile c;
  c.profile = access_profile_of(src);
  c.combined_loss =
      c.profile.loss_rate + config_.core_loss_rate -
      c.profile.loss_rate * config_.core_loss_rate;  // independent losses
  c.log_spread = stats::lognormal_sigma_of_spread(c.profile.spread);
  return c;
}

PingObservation LatencyModel::ping_once(
    const Endpoint& src, const topology::CloudRegion& dst,
    stats::Xoshiro256& rng, double load_factor,
    const Perturbation& perturbation) const noexcept {
  // Everything is recomputed per echo on purpose: this is the reference
  // the cached kernel (detail::sample_ping over hoisted BurstState) must
  // reproduce draw for draw and bit for bit.
  AccessProfile profile = access_profile_of(src);
  profile.median_ms *= load_factor;
  profile.bloat_probability =
      std::min(profile.bloat_probability * load_factor, 1.0);

  double loss =
      profile.loss_rate + config_.core_loss_rate -
      profile.loss_rate * config_.core_loss_rate;  // independent losses
  loss = loss + perturbation.extra_loss - loss * perturbation.extra_loss;
  if (rng.bernoulli(loss)) return {true, 0.0};

  const double base = path_to(src, dst).base_rtt_ms();
  double rtt = base;
  if (config_.excess_fraction > 0.0) {
    rtt += stats::sample_lognormal_median(rng, base * config_.excess_fraction,
                                          config_.excess_spread);
  }
  rtt *= perturbation.latency_scale;  // route detour scales transit only
  rtt += sample_access_latency(profile, rng);
  if (rng.bernoulli(config_.spike_probability)) {
    rtt += stats::sample_pareto(rng, config_.spike_min_ms, config_.spike_alpha);
  }
  rtt = std::max(0.0, rtt + perturbation.offset_ms);
  return {false, rtt};
}

double LatencyModel::diurnal_load(const Endpoint& src,
                                  double utc_hour) const noexcept {
  return 1.0 + config_.diurnal_amplitude *
                   diurnal_weight(
                       local_hour_at(utc_hour, src.location.lon_deg),
                       config_.diurnal_peak_hour);
}

CongestionState::CongestionState(const LatencyModelConfig& config,
                                 stats::Xoshiro256& rng) {
  if (config.temporal_sigma > 0.0 && config.temporal_rho < 1.0) {
    // Stationary distribution of the AR(1): N(0, sigma^2 / (1 - rho^2)).
    const double stationary_sd =
        config.temporal_sigma /
        std::sqrt(1.0 - config.temporal_rho * config.temporal_rho);
    c_ = stats::sample_normal(rng, 0.0, stationary_sd);
  }
}

double CongestionState::step(const LatencyModelConfig& config,
                             stats::Xoshiro256& rng) {
  if (config.temporal_sigma <= 0.0) return 1.0;
  c_ = config.temporal_rho * c_ +
       stats::sample_normal(rng, 0.0, config.temporal_sigma);
  return load();
}

double CongestionState::load() const noexcept { return std::exp(c_); }

}  // namespace shears::net
