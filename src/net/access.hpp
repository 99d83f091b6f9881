// Last-mile access models.
//
// §4.3 of the paper ("Nature of last-mile access") rests on the
// well-established result that the last mile — not the core — is the
// latency bottleneck, and that wireless links add 10-40 ms over wired
// ([65, 66] in the paper) with heavy-tailed bufferbloat episodes on
// cellular ([35]). Each technology is modelled as an additive RTT
// component: a log-normal body around a median plus a rare Weibull
// bufferbloat episode. Country connectivity tier scales the median
// (poorer infrastructure → slower and noisier last mile).
#pragma once

#include <array>
#include <string_view>

#include "geo/country.hpp"
#include "stats/distributions.hpp"
#include "stats/rng.hpp"

namespace shears::net {

enum class AccessTechnology : unsigned char {
  kEthernet = 0,  ///< enterprise/university wired (probe tag "ethernet")
  kFibre,         ///< FTTH residential
  kCable,         ///< DOCSIS residential
  kDsl,           ///< ADSL/VDSL residential (tag "broadband"/"dsl")
  kWifi,          ///< home WLAN in front of a broadband uplink
  kLte,           ///< 4G cellular
  kFiveG,         ///< early NSA 5G (2019/2020 deployments)
};

inline constexpr std::size_t kAccessTechnologyCount = 7;

inline constexpr std::array<AccessTechnology, kAccessTechnologyCount>
    kAllAccessTechnologies = {
        AccessTechnology::kEthernet, AccessTechnology::kFibre,
        AccessTechnology::kCable,    AccessTechnology::kDsl,
        AccessTechnology::kWifi,     AccessTechnology::kLte,
        AccessTechnology::kFiveG,
};

[[nodiscard]] constexpr bool is_wireless(AccessTechnology t) noexcept {
  return t == AccessTechnology::kWifi || t == AccessTechnology::kLte ||
         t == AccessTechnology::kFiveG;
}

[[nodiscard]] constexpr std::string_view to_string(AccessTechnology t) noexcept {
  switch (t) {
    case AccessTechnology::kEthernet: return "ethernet";
    case AccessTechnology::kFibre: return "fibre";
    case AccessTechnology::kCable: return "cable";
    case AccessTechnology::kDsl: return "dsl";
    case AccessTechnology::kWifi: return "wifi";
    case AccessTechnology::kLte: return "lte";
    case AccessTechnology::kFiveG: return "5g";
  }
  return "unknown";
}

/// Stochastic description of one access technology's RTT contribution.
struct AccessProfile {
  double median_ms = 0.0;        ///< median added round-trip latency
  double spread = 1.0;           ///< log-normal multiplicative spread (>= 1)
  double bloat_probability = 0;  ///< chance a sample hits a bufferbloat episode
  double bloat_scale_ms = 0.0;   ///< Weibull scale of episode severity
  double loss_rate = 0.0;        ///< probability a ping is lost outright
};

/// Baseline (tier-1) profile of a technology. Values calibrated against
/// the literature the paper cites: wired broadband 2-15 ms, WiFi ~+10 ms,
/// LTE +20-40 ms with multi-hundred-ms bufferbloat tail, early 5G ~+12 ms.
[[nodiscard]] AccessProfile base_profile(AccessTechnology t) noexcept;

/// Profile adjusted for the country's connectivity tier. Tier multiplies
/// the median and loss/bloat rates (under-served networks are both slower
/// and burstier).
[[nodiscard]] AccessProfile profile_for(AccessTechnology t,
                                        geo::ConnectivityTier tier) noexcept;

/// Draws the access-latency contribution of one ping (milliseconds).
[[nodiscard]] double sample_access_latency(const AccessProfile& profile,
                                           stats::Xoshiro256& rng) noexcept;

/// Lowest-level access sampler over the already load-adjusted fields; the
/// campaign's cached hot path hoists the adjustment out of the packet
/// loop. Same draws, bit-identical samples. Inline: this runs once per
/// simulated packet, tens of millions of times per campaign.
[[nodiscard]] inline double sample_access_latency_raw(
    double median_ms, double log_spread, double bloat_probability,
    double bloat_scale_ms, stats::Xoshiro256& rng) noexcept {
  double latency = stats::sample_lognormal_presigma(rng, median_ms, log_spread);
  if (rng.bernoulli(bloat_probability)) {
    // Bufferbloat episode: shape < 1 gives the heavy upper tail observed
    // on loaded cellular links (occasionally whole seconds).
    latency += stats::sample_weibull(rng, 0.8, bloat_scale_ms);
  }
  // A physical floor: no access technology contributes negative latency,
  // and even ideal ethernet costs a few hundred microseconds round trip.
  return latency < 0.2 ? 0.2 : latency;
}

/// Multiplier applied to a tier-1 median by each connectivity tier.
[[nodiscard]] constexpr double tier_latency_multiplier(
    geo::ConnectivityTier tier) noexcept {
  switch (tier) {
    case geo::ConnectivityTier::kTier1: return 1.0;
    case geo::ConnectivityTier::kTier2: return 1.3;
    case geo::ConnectivityTier::kTier3: return 1.7;
    case geo::ConnectivityTier::kTier4: return 2.2;
  }
  return 1.0;
}

}  // namespace shears::net
