// Fidelity of the lane engine against the scalar reference, measured on
// the values examples/full_reproduction reports: Fig. 4 band counts and
// population coverage, Fig. 5 per-continent fractions, Fig. 6
// per-continent p25 / median / fraction under PL, and the Fig. 7 ratio
// and added latency.
//
// The two engines agree in distribution, not byte for byte, so the gate
// is sized from the seed spread the reference itself shows: over the
// same seeds, the lane engine's mean of each value must lie within the
// scalar engine's min–max, widened by half that range on each side.
// EXPERIMENTS.md records the table this test prints.
//
// Thirty seeds, not five: several values move in steps of one probe or
// one country, and over five seeds the reference's min–max can span a
// single step. Seeds 1-5 put Fig. 5's North America F(50) scalar range
// at [0.9452, 0.9476] and the lane mean at 0.9438, one probe in 420
// below it; over thirty seeds the two means are 0.9444 and 0.9448.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "atlas/campaign.hpp"
#include "atlas/placement.hpp"
#include "check/reference.hpp"
#include "core/access_comparison.hpp"
#include "core/analysis.hpp"
#include "geo/continent.hpp"
#include "net/latency_model.hpp"
#include "stats/ecdf.hpp"
#include "topology/registry.hpp"

namespace shears {
namespace {

constexpr int kDays = 30;
constexpr std::uint64_t kSeeds = 30;  ///< campaign seeds 1..kSeeds

struct FigureValue {
  std::string name;
  double value;
};

/// The figure values full_reproduction prints, in its order.
std::vector<FigureValue> figure_values(const atlas::MeasurementDataset& ds) {
  std::vector<FigureValue> out;
  const auto rows = core::country_min_latency(ds);
  const auto bands = core::band_country_latencies(rows);
  const auto coverage = core::population_coverage(rows);
  out.push_back({"fig4 countries <10ms", static_cast<double>(bands.under_10)});
  out.push_back({"fig4 countries 10-20ms",
                 static_cast<double>(bands.from_10_to_20)});
  out.push_back({"fig4 countries >=100ms",
                 static_cast<double>(bands.over_100)});
  out.push_back({"fig4 population <=PL", coverage.under_pl});
  out.push_back({"fig4 population <=HRT", coverage.under_hrt});

  const auto mins = core::min_rtt_by_continent(ds);
  for (const geo::Continent c : geo::kAllContinents) {
    const auto& sample = mins[geo::index_of(c)];
    if (sample.empty()) continue;
    const stats::Ecdf ecdf(sample);
    const std::string code(geo::to_code(c));
    out.push_back({"fig5 " + code + " F(20)", ecdf.fraction_at_or_below(20.0)});
    out.push_back({"fig5 " + code + " F(50)", ecdf.fraction_at_or_below(50.0)});
    out.push_back(
        {"fig5 " + code + " F(100)", ecdf.fraction_at_or_below(100.0)});
  }

  const auto samples = core::best_region_samples_by_continent(ds);
  for (const geo::Continent c : geo::kAllContinents) {
    const auto& sample = samples[geo::index_of(c)];
    if (sample.empty()) continue;
    const stats::Ecdf ecdf(sample);
    const std::string code(geo::to_code(c));
    out.push_back({"fig6 " + code + " p25", ecdf.percentile(25.0)});
    out.push_back({"fig6 " + code + " median", ecdf.median()});
    out.push_back(
        {"fig6 " + code + " F(100)", ecdf.fraction_at_or_below(100.0)});
  }

  const core::AccessComparison cmp = core::compare_access(ds);
  out.push_back({"fig7 wireless/wired ratio", cmp.median_ratio});
  out.push_back({"fig7 added ms", cmp.added_latency_ms});
  return out;
}

TEST(EngineFidelity, LaneMeansLieWithinScalarSeedSpread) {
  const auto fleet = atlas::ProbeFleet::generate({});
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;

  // values[engine][seed][k]
  std::vector<std::vector<FigureValue>> scalar, lanes;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    atlas::CampaignConfig config;
    config.duration_days = kDays;
    config.seed = seed;
    const atlas::Campaign campaign(fleet, registry, model, config);
    ASSERT_TRUE(campaign.batched_eligible());
    atlas::CampaignTelemetry telemetry;
    scalar.push_back(
        figure_values(check::reference_campaign(campaign, telemetry)));
    lanes.push_back(figure_values(campaign.run()));
    ASSERT_EQ(scalar.back().size(), scalar.front().size());
    ASSERT_EQ(lanes.back().size(), scalar.front().size());
  }

  const std::size_t seeds = scalar.size();
  std::printf("%-26s %10s %10s %10s %10s\n", "value", "scalar min",
              "scalar max", "lane mean", "scalar mean");
  for (std::size_t k = 0; k < scalar.front().size(); ++k) {
    double lo = scalar[0][k].value, hi = lo, scalar_mean = 0.0,
           lane_mean = 0.0;
    for (std::size_t s = 0; s < seeds; ++s) {
      ASSERT_EQ(lanes[s][k].name, scalar[s][k].name);
      lo = std::min(lo, scalar[s][k].value);
      hi = std::max(hi, scalar[s][k].value);
      scalar_mean += scalar[s][k].value;
      lane_mean += lanes[s][k].value;
    }
    scalar_mean /= static_cast<double>(seeds);
    lane_mean /= static_cast<double>(seeds);
    std::printf("%-26s %10.4f %10.4f %10.4f %10.4f\n",
                scalar[0][k].name.c_str(), lo, hi, lane_mean, scalar_mean);
    const double slack = 0.5 * (hi - lo);
    EXPECT_GE(lane_mean, lo - slack) << scalar[0][k].name;
    EXPECT_LE(lane_mean, hi + slack) << scalar[0][k].name;
  }
}

}  // namespace
}  // namespace shears
