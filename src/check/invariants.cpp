#include "check/invariants.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "apps/application.hpp"
#include "check/property.hpp"
#include "core/analysis.hpp"
#include "core/feasibility.hpp"
#include "geo/continent.hpp"
#include "geo/coordinates.hpp"
#include "stats/ecdf.hpp"
#include "stats/p2_quantile.hpp"

namespace shears::check {

void check_rtt_floor(const World& world,
                     const atlas::MeasurementDataset& dataset) {
  // Round-trip light-in-fibre time over the geodesic; every modelled
  // component on top (stretch >= 1, processing, access, excess, spikes,
  // generated fault skew >= 0) only adds. The tiny slack absorbs the
  // float cast of the stored record.
  const double us_per_km = world.model_config.path.fibre_us_per_km;
  for (const atlas::Measurement& m : dataset.records()) {
    if (m.received == 0) continue;
    const atlas::Probe& probe = dataset.probe_of(m);
    const topology::CloudRegion& region = dataset.region_of(m);
    const double geodesic_km =
        geo::haversine_km(probe.endpoint.location, region.location);
    const double floor_ms = 2.0 * geodesic_km * us_per_km / 1000.0;
    if (static_cast<double>(m.min_ms) < floor_ms * 0.9999) {
      std::ostringstream os;
      os << "RTT below propagation floor: probe " << m.probe_id << " -> "
         << region.region_id << " tick " << m.tick << ": min "
         << m.min_ms << " ms < floor " << floor_ms << " ms (geodesic "
         << geodesic_km << " km) [" << world.summary << "]";
      throw PropertyFailure(os.str());
    }
  }
}

void check_ecdf_properties(Gen& gen) {
  const int n = gen.scaled(0);
  std::vector<double> sample;
  sample.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    // A burst of small integers forces ties; the rest is continuous.
    sample.push_back(gen.chance(0.25)
                         ? static_cast<double>(gen.int_in(0, 20))
                         : gen.real_in(0.0, 500.0));
  }
  const stats::Ecdf ecdf(sample);
  require(ecdf.size() == sample.size(), "Ecdf dropped samples");
  require(ecdf.invariants_ok(), "Ecdf retained an unsorted sample");
  if (ecdf.empty()) {
    require(ecdf.fraction_at_or_below(0.0) == 0.0,
            "empty Ecdf: F must be 0 everywhere");
    require(std::isnan(ecdf.quantile(0.5)),
            "empty Ecdf: quantile must be NaN, not a sentinel value");
    require(std::isnan(ecdf.min()) && std::isnan(ecdf.max()),
            "empty Ecdf: min/max must be NaN, not a sentinel value");
    return;
  }
  require(ecdf.min() <= ecdf.max(), "Ecdf min exceeds max");
  require(ecdf.quantile(0.0) == ecdf.min(), "quantile(0) must be the minimum");
  require(ecdf.quantile(1.0) == ecdf.max(), "quantile(1) must be the maximum");
  require(ecdf.fraction_at_or_below(ecdf.max()) == 1.0, "F(max) must be 1");
  require(ecdf.fraction_below(ecdf.min()) == 0.0,
          "fraction strictly below the minimum must be 0");
  for (int i = 0; i < 8; ++i) {
    double x1 = gen.real_in(-50.0, 600.0);
    double x2 = gen.real_in(-50.0, 600.0);
    if (x2 < x1) std::swap(x1, x2);
    require(ecdf.fraction_at_or_below(x1) <= ecdf.fraction_at_or_below(x2),
            "ECDF is not monotone in x");
    require(ecdf.fraction_below(x1) <= ecdf.fraction_at_or_below(x1),
            "strict fraction exceeds inclusive fraction");

    double q1 = gen.real_in(0.0, 1.0);
    double q2 = gen.real_in(0.0, 1.0);
    if (q2 < q1) std::swap(q1, q2);
    const double v1 = ecdf.quantile(q1);
    const double v2 = ecdf.quantile(q2);
    require(v1 <= v2, "quantile is not monotone in q");
    require(v1 >= ecdf.min() && v2 <= ecdf.max(),
            "quantile left the sample range");
  }
}

void check_quantile_properties(Gen& gen) {
  const double q = gen.real_in(0.05, 0.95);
  stats::P2Quantile estimator(q);
  require(estimator.value() == 0.0, "P2Quantile: value before samples");

  const int n = gen.scaled(1);
  std::vector<double> fed;
  double lo = 0.0;
  double hi = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = gen.chance(0.3) ? static_cast<double>(gen.int_in(0, 5))
                                     : gen.real_in(0.0, 200.0);
    fed.push_back(x);
    lo = fed.size() == 1 ? x : std::min(lo, x);
    hi = fed.size() == 1 ? x : std::max(hi, x);
    estimator.add(x);
    require(estimator.count() == fed.size(), "P2Quantile: count mismatch");
    require(estimator.invariants_ok(), "P2Quantile: marker invariants broken");
    const double value = estimator.value();
    if (fed.size() < 5) {
      // The documented small-n contract: exact nearest-rank quantile.
      std::vector<double> sorted = fed;
      std::sort(sorted.begin(), sorted.end());
      const auto rank = static_cast<std::size_t>(std::min<double>(
          static_cast<double>(sorted.size() - 1),
          std::floor(q * static_cast<double>(sorted.size()))));
      require(value == sorted[rank],
              "P2Quantile: small-n value is not the exact nearest-rank");
    }
    require(value >= lo && value <= hi,
            "P2Quantile: estimate left the observed sample range");
  }
}

void check_feasibility_monotonicity(Gen& gen) {
  for (int i = 0; i < 16; ++i) {
    apps::Application app{};
    app.id = "generated";
    app.name = "generated";
    app.latency_floor_ms = gen.real_in(0.5, 300.0);
    app.latency_ceiling_ms = app.latency_floor_ms + gen.real_in(0.0, 400.0);
    app.data_gb_per_entity_day = gen.real_in(0.0, 10.0);
    app.market_2025_busd = gen.real_in(0.0, 100.0);
    app.hyped_edge_driver = gen.chance(0.5);

    core::FeasibilityConfig config;
    config.latency_floor_ms = gen.real_in(5.0, 15.0);
    config.latency_ceiling_ms = gen.real_in(100.0, 300.0);

    // Lowering the measured cloud RTT can only move toward
    // cloud-sufficient.
    const double rtt_low = gen.real_in(0.0, 500.0);
    const double rtt_high = rtt_low + gen.real_in(0.0, 300.0);
    if (core::classify(app, rtt_high, config) ==
        core::EdgeVerdict::kCloudSufficient) {
      require(core::classify(app, rtt_low, config) ==
                  core::EdgeVerdict::kCloudSufficient,
              "classify: cloud-sufficient not monotone in measured RTT");
    }

    // Loosening the zone's latency ceiling never evicts an application.
    core::FeasibilityConfig looser = config;
    looser.latency_ceiling_ms += gen.real_in(0.0, 200.0);
    if (core::in_feasibility_zone(app, config)) {
      require(core::in_feasibility_zone(app, looser),
              "in_feasibility_zone: not monotone in the latency ceiling");
    }

    // Relaxing the application's own budget keeps a satisfied cloud
    // satisfied.
    apps::Application relaxed = app;
    relaxed.latency_ceiling_ms += gen.real_in(0.0, 300.0);
    if (core::classify(app, rtt_low, config) ==
        core::EdgeVerdict::kCloudSufficient) {
      require(core::classify(relaxed, rtt_low, config) ==
                  core::EdgeVerdict::kCloudSufficient,
              "classify: cloud-sufficient not monotone in the app budget");
    }
  }
}

void check_permutation_invariance(Gen& gen, const World& world,
                                  const atlas::MeasurementDataset& dataset) {
  atlas::Records shuffled(dataset.records().begin(), dataset.records().end());
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[gen.below(i)]);
  }
  const atlas::MeasurementDataset permuted(&world.fleet, &world.registry,
                                           std::move(shuffled));

  core::AnalysisOptions options;
  options.threads = 1;

  // Fig. 4 aggregates: per-country minima and contributing-probe counts
  // are set functions of the rows — row order must not matter. The best
  // region is excluded: exact RTT ties may break by scan order.
  using CountryAggregate = std::pair<std::uint64_t, std::size_t>;
  const auto aggregate = [&](const atlas::MeasurementDataset& ds) {
    std::map<const geo::Country*, CountryAggregate> by_country;
    for (const core::CountryMinLatency& row :
         core::country_min_latency(ds, options)) {
      by_country[row.country] = {std::bit_cast<std::uint64_t>(row.min_rtt_ms),
                                 row.probe_count};
    }
    return by_country;
  };
  require(aggregate(dataset) == aggregate(permuted),
          "country_min_latency aggregates changed under row permutation");

  // Per-probe minima (indexed by probe id) are equally order-free.
  const auto best_a = core::per_probe_best(dataset, options);
  const auto best_b = core::per_probe_best(permuted, options);
  require(best_a.size() == best_b.size(),
          "per_probe_best size changed under row permutation");
  for (std::size_t i = 0; i < best_a.size(); ++i) {
    require(best_a[i].valid == best_b[i].valid &&
                std::bit_cast<std::uint64_t>(best_a[i].min_ms) ==
                    std::bit_cast<std::uint64_t>(best_b[i].min_ms),
            "per_probe_best minima changed under row permutation");
  }

  // Continent sample multisets (Fig. 5) are permutation-invariant once
  // sorted.
  auto fig5_a = core::min_rtt_by_continent(dataset, options);
  auto fig5_b = core::min_rtt_by_continent(permuted, options);
  for (std::size_t c = 0; c < geo::kContinentCount; ++c) {
    std::sort(fig5_a[c].begin(), fig5_a[c].end());
    std::sort(fig5_b[c].begin(), fig5_b[c].end());
    require(fig5_a[c] == fig5_b[c],
            "min_rtt_by_continent multiset changed under row permutation");
  }
}

}  // namespace shears::check
