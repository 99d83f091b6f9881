// Scenario-overlay evaluation: answer "what if?" against the columnar
// store without rebuilding it.
//
// A ScenarioDelta perturbs the measured world in three ways — new edge
// sites (users within a site's disc are served at edge RTT when that
// beats their cloud RTT), a wireless last-mile scaling (the 5G
// counterfactual of §5), and a routing change (a whole-RTT multiplier
// approximating better peering). The evaluator answers queries under a
// delta by substituting summary tables for exactly the (country, access)
// cells the delta touches, leaving every other scope on the base store's
// tables — the overlay seam serve::SummaryOverlay carries the
// substitution into the oracle.
//
// Determinism contract (the differential suite pins all three):
//   * Every transformed sample is produced by one shared per-row float
//     transform (transform_rtt). The overlay recomputes affected cells
//     from the store's raw shard columns with the same bucket → sort →
//     summarise_cell pipeline as ColumnarStore::refresh, and their
//     country rollups by the same selection across the cells' runs
//     (summarise_rollup); the rebuild reference materialises
//     transformed measurement rows and runs the store's own build. Same
//     multiset, same machinery → bit-exact summaries, so an
//     overlay-answered batch equals a rebuilt-store batch byte for byte.
//   * The identity delta is a bitwise no-op: rtt * 1.0f == rtt,
//     v - 0.0f == v, and stored samples already sit on or above the
//     0.2 ms access floor.
//   * Coverage reports fold per-country integer counts sequentially in
//     registry order on the calling thread; worker threads only ever
//     produce independent per-shard integers — byte-identical results
//     for any thread count.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "geo/spatial_index.hpp"
#include "net/path.hpp"
#include "opt/candidates.hpp"
#include "serve/columnar.hpp"
#include "serve/oracle.hpp"

namespace shears::opt {

/// One edge site of a scenario (a chosen CandidateSite, or any ad-hoc
/// location a scenario wants to probe).
struct SiteSpec {
  geo::GeoPoint where{};
  edge::EdgePlacement placement = edge::EdgePlacement::kMetroPop;
  /// Serviceable disc (km); 0 = edge::placement_serve_radius_km default.
  double radius_km = 0.0;

  [[nodiscard]] double effective_radius_km() const noexcept {
    return radius_km > 0.0 ? radius_km
                           : edge::placement_serve_radius_km(placement);
  }
};

[[nodiscard]] inline SiteSpec to_spec(const CandidateSite& c) noexcept {
  return SiteSpec{c.where, c.placement, c.radius_km};
}

/// The what-if: applied on top of the base store's measured world.
struct ScenarioDelta {
  std::vector<SiteSpec> sites;
  /// Multiplier on the wireless (WiFi/LTE/5G) last-mile median — the §5
  /// "what does 5G buy" knob. Applied as a per-cell constant relief
  /// (1 - scale) * tier-scaled access median subtracted from each
  /// sample; wired cells are untouched bitwise.
  double wireless_scale = 1.0;
  /// Whole-RTT multiplier approximating a routing/peering change. A
  /// coarse model — real routing changes move path stretch, not access
  /// latency — but it is monotone, cheap, and exactly invertible for
  /// the differential tests.
  double route_scale = 1.0;

  [[nodiscard]] bool identity() const noexcept {
    return sites.empty() && wireless_scale == 1.0 && route_scale == 1.0;
  }
};

/// The shared per-row transform. Float in, float out, double-free: both
/// the overlay path and the rebuild reference call exactly this, which
/// is what makes them bit-exact to each other. `relief_ms` is the
/// per-cell wireless relief (0.0f for wired cells), `route_scale` the
/// delta's multiplier narrowed once per evaluation, `best_edge_ms` the
/// row's probe's best edge RTT under the delta's sites (+inf when no
/// site covers the probe).
[[nodiscard]] inline float transform_rtt(float rtt, float relief_ms,
                                         float route_scale,
                                         float best_edge_ms) noexcept {
  float v = rtt * route_scale;
  v -= relief_ms;
  if (v < 0.2f) v = 0.2f;  // the access-layer physical floor
  return best_edge_ms < v ? best_edge_ms : v;
}

struct OverlayConfig {
  /// Path model for the metro fibre leg user → edge site.
  net::PathModelConfig path{};
  /// Worker threads for cell materialisation and coverage scans
  /// (0 = hardware concurrency). Results identical for any value.
  std::size_t threads = 0;
};

/// Per-country slice of a coverage report.
struct CountryCoverage {
  const geo::Country* country = nullptr;
  std::uint64_t rows = 0;     ///< stored samples of the country
  std::uint64_t covered = 0;  ///< samples with transformed RTT <= threshold
  double fraction = 0.0;      ///< covered / rows
  double weight = 0.0;        ///< geo::population_share(country)

  friend bool operator==(const CountryCoverage&,
                         const CountryCoverage&) = default;
};

/// Population-weighted latency coverage of a scenario — the optimizer's
/// objective, reported per country and folded deterministically.
struct CoverageReport {
  /// Countries with stored data, registry order.
  std::vector<CountryCoverage> countries;
  /// Sum of weights over `countries` (the reachable population mass).
  double weight_with_data = 0.0;
  /// Σ weight · fraction / weight_with_data (0 when no data at all).
  double weighted_fraction = 0.0;

  friend bool operator==(const CoverageReport&,
                         const CoverageReport&) = default;
};

/// Materialised summary substitution for one delta: the overlay the
/// oracle consults. Owns its tables; keep it alive across the batches
/// that use it. Move-only by value semantics of the tables (copying is
/// allowed but pointless).
class OverlayView final : public serve::SummaryOverlay {
 public:
  [[nodiscard]] std::optional<std::span<const serve::RegionStats>> stats(
      std::size_t country_index,
      std::optional<net::AccessTechnology> access) const override;

  /// Number of (country, access) cells the delta touched.
  [[nodiscard]] std::size_t affected_cells() const noexcept;
  /// Number of country rollups the delta touched.
  [[nodiscard]] std::size_t affected_countries() const noexcept;

 private:
  friend class OverlayEvaluator;
  /// Scope key: country_index * (kAccessTechnologyCount + 1); +0 is the
  /// country rollup, +1+access a shard cell. Sorted ascending for
  /// binary-search lookup.
  std::vector<std::uint64_t> keys_;
  std::vector<std::vector<serve::RegionStats>> tables_;
  std::size_t cell_entries_ = 0;
};

/// Binds a refreshed store and answers deltas against it. Construction
/// caches per-probe facts (location, cell, access median, wireless
/// flag) and a spatial index over analysis-eligible probes; each
/// evaluate()/coverage() call then touches only what its delta affects.
class OverlayEvaluator {
 public:
  /// `store` must be fresh() and outlive the evaluator.
  explicit OverlayEvaluator(const serve::ColumnarStore* store,
                            OverlayConfig config = {});

  /// Materialises the delta's summary substitution.
  [[nodiscard]] OverlayView evaluate(const ScenarioDelta& delta) const;

  /// The brute-force referee: a fresh store built from the transformed
  /// rows. Expensive (full rebuild) — differential tests and the bench
  /// gate's naive baseline only.
  [[nodiscard]] serve::ColumnarStore rebuild_reference(
      const ScenarioDelta& delta) const;

  /// Population-weighted coverage at `threshold_ms` under the delta,
  /// counted exactly from the raw shard columns (no summaries needed).
  [[nodiscard]] CoverageReport coverage(const ScenarioDelta& delta,
                                        double threshold_ms) const;

  /// Best edge RTT per probe under the delta's sites: +inf for probes no
  /// site covers, indexed by probe id. The search engine's ground truth
  /// for candidate coverage lists.
  [[nodiscard]] std::vector<float> best_edge_ms(
      std::span<const SiteSpec> sites, double wireless_scale) const;

  /// Eligible probes within `radius_km` of a point, ascending by
  /// (distance, probe id). Hit ids are probe ids.
  [[nodiscard]] std::vector<geo::SpatialHit> probes_within(
      const geo::GeoPoint& where, double radius_km) const;

  /// RTT user-at-probe → edge site: (wireless-scaled) access median +
  /// tier-scaled placement backhaul + metro fibre at the country's
  /// public stretch, narrowed to float once.
  [[nodiscard]] float edge_rtt_ms(std::uint32_t probe_id,
                                  const SiteSpec& site, double distance_km,
                                  double wireless_scale) const;

  /// Per-cell wireless relief constant of the transform:
  /// (1 - wireless_scale) * tier-scaled wireless median, narrowed to
  /// float once; 0.0f for wired cells or an unscaled delta. Public so
  /// the search engine's incremental model applies the exact same
  /// constant the overlay does.
  [[nodiscard]] float relief_for(const serve::ColumnarStore::ShardView& shard,
                                 double wireless_scale) const;

  [[nodiscard]] const serve::ColumnarStore& store() const noexcept {
    return *store_;
  }
  [[nodiscard]] const OverlayConfig& config() const noexcept {
    return config_;
  }

 private:
  struct ProbeInfo {
    const geo::Country* country = nullptr;
    /// country_index * kAccessTechnologyCount + access; kNoCell for
    /// privileged (analysis-excluded) probes.
    std::uint32_t cell = kNoCell;
    double access_median_ms = 0.0;  ///< tier-scaled access median
    bool wireless = false;
  };
  static constexpr std::uint32_t kNoCell = 0xffffffffu;

  /// Marks the cells the delta touches; returns true per shard index.
  [[nodiscard]] std::vector<std::uint8_t> affected_shards(
      const ScenarioDelta& delta, std::span<const float> best_edge) const;

  const serve::ColumnarStore* store_;
  OverlayConfig config_;
  std::vector<serve::ColumnarStore::ShardView> shards_;
  std::vector<ProbeInfo> probes_;        ///< by probe id
  geo::SpatialIndex probe_index_;        ///< eligible probes only
  std::vector<std::uint32_t> probe_of_hit_;
};

}  // namespace shears::opt
