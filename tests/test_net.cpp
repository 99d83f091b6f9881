// Tests for the network latency model: access profiles, path physics,
// end-to-end sampling invariants, and the published calibration anchors.
#include <gtest/gtest.h>

#include <vector>

#include "geo/country.hpp"
#include "net/access.hpp"
#include "net/endpoint.hpp"
#include "net/latency_model.hpp"
#include "net/path.hpp"
#include "stats/ecdf.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"
#include "topology/registry.hpp"

namespace shears::net {
namespace {

using geo::ConnectivityTier;

const topology::CloudRegion* region_by_id(std::string_view id) {
  for (const topology::CloudRegion& r : topology::all_regions()) {
    if (r.region_id == id) return &r;
  }
  return nullptr;
}

TEST(Access, WirelessClassification) {
  EXPECT_FALSE(is_wireless(AccessTechnology::kEthernet));
  EXPECT_FALSE(is_wireless(AccessTechnology::kFibre));
  EXPECT_FALSE(is_wireless(AccessTechnology::kCable));
  EXPECT_FALSE(is_wireless(AccessTechnology::kDsl));
  EXPECT_TRUE(is_wireless(AccessTechnology::kWifi));
  EXPECT_TRUE(is_wireless(AccessTechnology::kLte));
  EXPECT_TRUE(is_wireless(AccessTechnology::kFiveG));
}

TEST(Access, WiredFasterThanWirelessAtEveryTier) {
  for (const auto tier :
       {ConnectivityTier::kTier1, ConnectivityTier::kTier2,
        ConnectivityTier::kTier3, ConnectivityTier::kTier4}) {
    const double ethernet = profile_for(AccessTechnology::kEthernet, tier).median_ms;
    const double fibre = profile_for(AccessTechnology::kFibre, tier).median_ms;
    const double wifi = profile_for(AccessTechnology::kWifi, tier).median_ms;
    const double lte = profile_for(AccessTechnology::kLte, tier).median_ms;
    EXPECT_LT(ethernet, wifi);
    EXPECT_LT(fibre, wifi);
    EXPECT_LT(wifi, lte);
  }
}

TEST(Access, TierMonotonicallyDegrades) {
  for (const AccessTechnology t : kAllAccessTechnologies) {
    double prev = 0.0;
    for (const auto tier :
         {ConnectivityTier::kTier1, ConnectivityTier::kTier2,
          ConnectivityTier::kTier3, ConnectivityTier::kTier4}) {
      const AccessProfile p = profile_for(t, tier);
      EXPECT_GT(p.median_ms, prev) << to_string(t);
      prev = p.median_ms;
    }
  }
}

TEST(Access, LtePenaltyMatchesLiterature) {
  // The paper cites 10-40 ms of added last-mile latency on wireless.
  const double wired =
      profile_for(AccessTechnology::kCable, ConnectivityTier::kTier1).median_ms;
  const double lte =
      profile_for(AccessTechnology::kLte, ConnectivityTier::kTier1).median_ms;
  EXPECT_GE(lte - wired, 10.0);
  EXPECT_LE(lte - wired, 40.0);
}

TEST(Access, FiveGImprovesOnLteButMissesItuTarget) {
  // §5: early 5G is far from the 1 ms ITU target but better than LTE.
  const double lte =
      profile_for(AccessTechnology::kLte, ConnectivityTier::kTier1).median_ms;
  const double five_g =
      profile_for(AccessTechnology::kFiveG, ConnectivityTier::kTier1).median_ms;
  EXPECT_LT(five_g, lte);
  EXPECT_GT(five_g, 1.0);
}

TEST(Access, SamplesRespectFloorAndScatter) {
  stats::Xoshiro256 rng(5);
  const AccessProfile p =
      profile_for(AccessTechnology::kDsl, ConnectivityTier::kTier2);
  stats::Summary s;
  for (int i = 0; i < 20000; ++i) s.add(sample_access_latency(p, rng));
  EXPECT_GE(s.min(), 0.2);
  EXPECT_GT(s.max(), s.min() * 2);  // real scatter, not a constant
  // Median of samples near the profile median.
  std::vector<double> sample;
  for (int i = 0; i < 20000; ++i) sample.push_back(sample_access_latency(p, rng));
  EXPECT_NEAR(stats::Ecdf(std::move(sample)).median(), p.median_ms,
              p.median_ms * 0.15);
}

TEST(Access, BufferbloatCreatesHeavyTail) {
  stats::Xoshiro256 rng(6);
  const AccessProfile lte =
      profile_for(AccessTechnology::kLte, ConnectivityTier::kTier1);
  std::vector<double> sample;
  for (int i = 0; i < 100000; ++i) {
    sample.push_back(sample_access_latency(lte, rng));
  }
  const stats::Ecdf ecdf(std::move(sample));
  // §5: LTE "commonly experiences delays lasting several seconds due to
  // queue build-ups" — the extreme tail must reach hundreds of ms.
  EXPECT_GT(ecdf.quantile(0.9999), 300.0);
  EXPECT_LT(ecdf.median(), 60.0);
}

TEST(Path, PropagationScalesWithDistance) {
  const PathModelConfig config;
  const geo::GeoPoint frankfurt{50.11, 8.68};
  const geo::GeoPoint vienna{48.21, 16.37};
  const geo::GeoPoint tokyo{35.68, 139.69};
  const auto near = characterize_path(config, vienna,
                                      ConnectivityTier::kTier1, frankfurt,
                                      topology::BackboneClass::kPrivate);
  const auto far = characterize_path(config, tokyo, ConnectivityTier::kTier1,
                                     frankfurt,
                                     topology::BackboneClass::kPrivate);
  EXPECT_LT(near.propagation_ms, far.propagation_ms);
  EXPECT_GT(far.geodesic_km, 9000.0);
  EXPECT_GT(near.routed_km, near.geodesic_km);  // stretch > 1
}

TEST(Path, MetroFloorAppliesToTinyDistances) {
  const PathModelConfig config;
  const geo::GeoPoint a{50.11, 8.68};
  const geo::GeoPoint b{50.12, 8.69};
  const auto path = characterize_path(config, a, ConnectivityTier::kTier1, b,
                                      topology::BackboneClass::kPrivate);
  EXPECT_GE(path.routed_km, config.min_routed_km);
  EXPECT_GT(path.base_rtt_ms(), 0.5);
}

TEST(Path, TierWorsensStretch) {
  const PathModelConfig config;
  double prev = 0.0;
  for (const auto tier :
       {ConnectivityTier::kTier1, ConnectivityTier::kTier2,
        ConnectivityTier::kTier3, ConnectivityTier::kTier4}) {
    const double s =
        stretch_for(config, tier, topology::BackboneClass::kPrivate);
    EXPECT_GT(s, prev);
    prev = s;
  }
}

TEST(Path, PrivateBackboneBeatsPublicTransit) {
  const PathModelConfig config;
  for (const auto tier :
       {ConnectivityTier::kTier1, ConnectivityTier::kTier2,
        ConnectivityTier::kTier3, ConnectivityTier::kTier4}) {
    EXPECT_LT(stretch_for(config, tier, topology::BackboneClass::kPrivate),
              stretch_for(config, tier, topology::BackboneClass::kPublic));
  }
  // Public transit also crosses more AS boundaries.
  const geo::GeoPoint a{48.86, 2.35};
  const geo::GeoPoint b{50.11, 8.68};
  const auto private_path = characterize_path(
      config, a, ConnectivityTier::kTier1, b, topology::BackboneClass::kPrivate);
  const auto public_path = characterize_path(
      config, a, ConnectivityTier::kTier1, b, topology::BackboneClass::kPublic);
  EXPECT_LT(private_path.hop_count, public_path.hop_count);
  EXPECT_LT(private_path.base_rtt_ms(), public_path.base_rtt_ms());
}

TEST(Path, LongHaulStretchDecays) {
  const PathModelConfig config;
  const double regional = effective_stretch(
      config, ConnectivityTier::kTier3, topology::BackboneClass::kPrivate, 0.0);
  const double long_haul =
      effective_stretch(config, ConnectivityTier::kTier3,
                        topology::BackboneClass::kPrivate, 15000.0);
  EXPECT_DOUBLE_EQ(regional,
                   stretch_for(config, ConnectivityTier::kTier3,
                               topology::BackboneClass::kPrivate));
  EXPECT_LT(long_haul, regional);
  EXPECT_GT(long_haul, config.long_haul_stretch);
}

TEST(Path, FibrePaceMatchesPhysics) {
  // ~4.9 us/km one way -> a 1000 km routed path costs ~9.8 ms RTT.
  PathModelConfig config;
  config.stretch_private[0] = 1.0;
  config.min_routed_km = 0.0;
  const geo::GeoPoint a{0.0, 0.0};
  const geo::GeoPoint b{0.0, 8.9932};  // ~1000 km on the equator
  const auto path = characterize_path(config, a, ConnectivityTier::kTier1, b,
                                      topology::BackboneClass::kPrivate);
  EXPECT_NEAR(path.geodesic_km, 1000.0, 2.0);
  EXPECT_NEAR(path.propagation_ms, 9.8, 0.1);
}

TEST(LatencyModel, BaselineIsDeterministicAndPositive) {
  const LatencyModel model;
  const Endpoint src{{48.86, 2.35}, ConnectivityTier::kTier1,
                     AccessTechnology::kEthernet};
  const auto* region = region_by_id("eu-west-3");
  ASSERT_NE(region, nullptr);
  const double a = model.baseline_rtt_ms(src, *region);
  const double b = model.baseline_rtt_ms(src, *region);
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_GT(a, 0.5);
  EXPECT_LT(a, 20.0);  // Paris probe to Paris region is metro-scale
}

TEST(LatencyModel, SamplesNeverBeatPhysics) {
  const LatencyModel model;
  const Endpoint src{{52.37, 4.90}, ConnectivityTier::kTier1,
                     AccessTechnology::kCable};
  const auto* region = region_by_id("eu-central-1");
  ASSERT_NE(region, nullptr);
  const double floor = model.path_to(src, *region).propagation_ms;
  stats::Xoshiro256 rng(77);
  for (int i = 0; i < 50000; ++i) {
    const PingObservation obs = model.ping_once(src, *region, rng);
    if (!obs.lost) {
      EXPECT_GE(obs.rtt_ms, floor);
    }
  }
}

TEST(LatencyModel, PingBurstAggregatesCorrectly) {
  const LatencyModel model;
  const Endpoint src{{51.51, -0.13}, ConnectivityTier::kTier1,
                     AccessTechnology::kFibre};
  const auto* region = region_by_id("eu-west-2");
  ASSERT_NE(region, nullptr);
  stats::Xoshiro256 rng(88);
  for (int i = 0; i < 2000; ++i) {
    const PingResult r = detail::aggregate_burst(
        3, [&] { return model.ping_once(src, *region, rng); });
    EXPECT_EQ(r.sent, 3);
    EXPECT_LE(r.received, 3);
    if (r.received > 0) {
      EXPECT_LE(r.min_ms, r.avg_ms);
      EXPECT_LE(r.avg_ms, r.max_ms);
      EXPECT_GT(r.min_ms, 0.0);
    }
  }
}

TEST(LatencyModel, LossRateIsSmallButNonzero) {
  LatencyModelConfig config;
  const LatencyModel model(config);
  const Endpoint src{{40.42, -3.70}, ConnectivityTier::kTier1,
                     AccessTechnology::kDsl};
  const auto* region = region_by_id("eu-west-3");
  ASSERT_NE(region, nullptr);
  stats::Xoshiro256 rng(99);
  int lost = 0;
  constexpr int kPings = 100000;
  for (int i = 0; i < kPings; ++i) {
    if (model.ping_once(src, *region, rng).lost) ++lost;
  }
  EXPECT_GT(lost, 0);
  EXPECT_LT(lost, kPings / 20);  // well under 5%
}

TEST(LatencyModel, WirelessScaleKnobOnlyAffectsWireless) {
  LatencyModelConfig improved;
  improved.wireless_latency_scale = 0.25;
  const LatencyModel base;
  const LatencyModel model(improved);
  const Endpoint wired{{48.21, 16.37}, ConnectivityTier::kTier1,
                       AccessTechnology::kEthernet};
  const Endpoint wireless{{48.21, 16.37}, ConnectivityTier::kTier1,
                          AccessTechnology::kLte};
  const auto* region = region_by_id("eu-central-1");
  ASSERT_NE(region, nullptr);
  EXPECT_DOUBLE_EQ(model.baseline_rtt_ms(wired, *region),
                   base.baseline_rtt_ms(wired, *region));
  EXPECT_LT(model.baseline_rtt_ms(wireless, *region),
            base.baseline_rtt_ms(wireless, *region));
}

TEST(LatencyModel, CalibrationAnchorIntraEurope) {
  // A well-connected German probe must reach Frankfurt in single-digit
  // milliseconds; an Austrian one in ~8-20 ms (Fig. 4's 10-20 ms band).
  const LatencyModel model;
  const auto* fra = region_by_id("eu-central-1");
  ASSERT_NE(fra, nullptr);
  const Endpoint de{{50.5, 8.9}, ConnectivityTier::kTier1,
                    AccessTechnology::kEthernet};
  const Endpoint at{{48.21, 16.37}, ConnectivityTier::kTier1,
                    AccessTechnology::kEthernet};
  EXPECT_LT(model.baseline_rtt_ms(de, *fra), 10.0);
  const double vienna = model.baseline_rtt_ms(at, *fra);
  EXPECT_GT(vienna, 8.0);
  EXPECT_LT(vienna, 20.0);
}

TEST(LatencyModel, CalibrationAnchorAfricaToEurope) {
  // §5: under-served countries see 150-200 ms; a tier-4 central-African
  // vantage point to Frankfurt must exceed the PL threshold.
  const LatencyModel model;
  const auto* fra = region_by_id("eu-central-1");
  ASSERT_NE(fra, nullptr);
  const geo::Country* td = geo::find_country("TD");
  ASSERT_NE(td, nullptr);
  const Endpoint chad{td->site, td->tier, AccessTechnology::kEthernet};
  const double rtt = model.baseline_rtt_ms(chad, *fra);
  EXPECT_GT(rtt, 100.0);
  EXPECT_LT(rtt, 250.0);
}

TEST(LatencyModel, DiurnalWeightShape) {
  // Peak at the peak hour, trough 12 hours away, symmetric, in [0, 1].
  EXPECT_DOUBLE_EQ(diurnal_weight(20.0, 20.0), 1.0);
  EXPECT_NEAR(diurnal_weight(8.0, 20.0), 0.0, 1e-12);
  EXPECT_NEAR(diurnal_weight(18.0, 20.0), diurnal_weight(22.0, 20.0), 1e-12);
  for (double h = 0.0; h < 24.0; h += 0.5) {
    const double w = diurnal_weight(h, 20.0);
    EXPECT_GE(w, 0.0);
    EXPECT_LE(w, 1.0);
  }
}

TEST(LatencyModel, LocalHourWrapsCorrectly) {
  EXPECT_DOUBLE_EQ(local_hour_at(12.0, 0.0), 12.0);
  EXPECT_DOUBLE_EQ(local_hour_at(12.0, 90.0), 18.0);   // +6h east
  EXPECT_DOUBLE_EQ(local_hour_at(12.0, -90.0), 6.0);   // -6h west
  EXPECT_DOUBLE_EQ(local_hour_at(23.0, 30.0), 1.0);    // wraps past 24
  EXPECT_DOUBLE_EQ(local_hour_at(1.0, -45.0), 22.0);   // wraps below 0
}

TEST(LatencyModel, EveningPingsAreSlowerThanNightPings) {
  const LatencyModel model;  // default diurnal amplitude
  const Endpoint src{{48.86, 2.35}, ConnectivityTier::kTier1,
                     AccessTechnology::kDsl};
  const auto* region = region_by_id("eu-west-3");
  ASSERT_NE(region, nullptr);
  stats::Xoshiro256 rng(1234);
  // Paris is ~UTC; local evening ~ 20h UTC, deep night ~ 4h UTC.
  const double evening_load = model.diurnal_load(src, 20.0);
  const double night_load = model.diurnal_load(src, 4.0);
  stats::Summary evening;
  stats::Summary night;
  for (int i = 0; i < 40000; ++i) {
    const PingObservation e = model.ping_once(src, *region, rng, evening_load);
    if (!e.lost) evening.add(e.rtt_ms);
    const PingObservation n = model.ping_once(src, *region, rng, night_load);
    if (!n.lost) night.add(n.rtt_ms);
  }
  EXPECT_GT(evening.mean(), night.mean() * 1.05);
}

TEST(LatencyModel, ZeroAmplitudeDisablesDiurnal) {
  LatencyModelConfig config;
  config.diurnal_amplitude = 0.0;
  const LatencyModel model(config);
  const Endpoint src{{48.86, 2.35}, ConnectivityTier::kTier1,
                     AccessTechnology::kCable};
  const auto* region = region_by_id("eu-west-3");
  ASSERT_NE(region, nullptr);
  stats::Xoshiro256 a(7);
  stats::Xoshiro256 b(7);
  for (int i = 0; i < 1000; ++i) {
    const PingObservation peak =
        model.ping_once(src, *region, a, model.diurnal_load(src, 20.0));
    const PingObservation off = model.ping_once(src, *region, b);
    EXPECT_EQ(peak.lost, off.lost);
    if (!peak.lost) {
      EXPECT_DOUBLE_EQ(peak.rtt_ms, off.rtt_ms);
    }
  }
}

TEST(LatencyModel, CalibrationAnchorFacebook40ms) {
  // Schlinker et al. (cited §5): wired users in served regions rarely see
  // more than ~40 ms to the cloud. Median wired sample for a tier-1
  // mid-distance European probe stays under 40 ms.
  const LatencyModel model;
  const auto* fra = region_by_id("eu-central-1");
  ASSERT_NE(fra, nullptr);
  const Endpoint probe{{45.46, 9.19}, ConnectivityTier::kTier1,
                       AccessTechnology::kCable};  // Milan
  stats::Xoshiro256 rng(123);
  std::vector<double> sample;
  for (int i = 0; i < 20000; ++i) {
    const PingObservation obs = model.ping_once(probe, *fra, rng);
    if (!obs.lost) sample.push_back(obs.rtt_ms);
  }
  EXPECT_LT(stats::Ecdf(std::move(sample)).median(), 40.0);
}

}  // namespace
}  // namespace shears::net
