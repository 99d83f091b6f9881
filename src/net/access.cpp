#include "net/access.hpp"

#include "stats/distributions.hpp"

namespace shears::net {

AccessProfile base_profile(AccessTechnology t) noexcept {
  // Medians are added round-trip milliseconds on a tier-1 network.
  // Sources (paper citations in brackets): home broadband 2-15 ms [65],
  // WiFi adds ~10 ms over its uplink [66], LTE 20-40 ms with seconds-long
  // bufferbloat episodes [35], early commercial 5G ~1.5-2x better than LTE
  // but far from the 1 ms ITU target [49, 71].
  switch (t) {
    case AccessTechnology::kEthernet:
      return {1.5, 1.30, 0.002, 15.0, 0.001};
    case AccessTechnology::kFibre:
      return {3.5, 1.35, 0.004, 20.0, 0.001};
    case AccessTechnology::kCable:
      return {10.0, 1.45, 0.010, 40.0, 0.003};
    case AccessTechnology::kDsl:
      return {16.0, 1.45, 0.015, 60.0, 0.004};
    case AccessTechnology::kWifi:
      return {16.0, 1.70, 0.030, 60.0, 0.008};
    case AccessTechnology::kLte:
      return {37.0, 1.60, 0.060, 220.0, 0.015};
    case AccessTechnology::kFiveG:
      return {14.0, 1.50, 0.030, 120.0, 0.008};
  }
  return {};
}

AccessProfile profile_for(AccessTechnology t,
                          geo::ConnectivityTier tier) noexcept {
  AccessProfile p = base_profile(t);
  const double m = tier_latency_multiplier(tier);
  p.median_ms *= m;
  // Burstiness and loss grow with tier too, but sub-linearly.
  const double burst = 1.0 + (m - 1.0) * 0.75;
  p.bloat_probability *= burst;
  p.loss_rate *= burst;
  return p;
}

double sample_access_latency(const AccessProfile& profile,
                             stats::Xoshiro256& rng) noexcept {
  return sample_access_latency_raw(
      profile.median_ms, stats::lognormal_sigma_of_spread(profile.spread),
      profile.bloat_probability, profile.bloat_scale_ms, rng);
}

}  // namespace shears::net
