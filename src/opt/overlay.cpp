#include "opt/overlay.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/parallel.hpp"
#include "net/access.hpp"

namespace shears::opt {

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr std::size_t kAccess = net::kAccessTechnologyCount;

/// Scope key of OverlayView: rollup first, then cells in access order,
/// so assembling per country in ascending index yields sorted keys.
[[nodiscard]] std::uint64_t rollup_key(std::size_t country_index) noexcept {
  return static_cast<std::uint64_t>(country_index) * (kAccess + 1);
}
[[nodiscard]] std::uint64_t cell_key(std::size_t country_index,
                                     std::size_t access) noexcept {
  return rollup_key(country_index) + 1 + access;
}

}  // namespace

std::optional<std::span<const serve::RegionStats>> OverlayView::stats(
    std::size_t country_index,
    std::optional<net::AccessTechnology> access) const {
  const std::uint64_t key =
      access.has_value()
          ? cell_key(country_index, static_cast<std::size_t>(*access))
          : rollup_key(country_index);
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) return std::nullopt;
  return std::span<const serve::RegionStats>(
      tables_[static_cast<std::size_t>(it - keys_.begin())]);
}

std::size_t OverlayView::affected_cells() const noexcept {
  return cell_entries_;
}

std::size_t OverlayView::affected_countries() const noexcept {
  return keys_.size() - cell_entries_;
}

OverlayEvaluator::OverlayEvaluator(const serve::ColumnarStore* store,
                                   OverlayConfig config)
    : store_(store), config_(config) {
  if (!store_->fresh()) {
    throw std::logic_error(
        "OverlayEvaluator: store has unrefreshed appends (call refresh())");
  }
  shards_ = store_->shards();

  const std::span<const atlas::Probe> fleet = store_->fleet().probes();
  probes_.resize(fleet.size());
  std::vector<geo::GeoPoint> points;
  for (const atlas::Probe& probe : fleet) {
    if (probe.privileged()) continue;  // excluded from every analysis
    ProbeInfo& info = probes_[probe.id];
    info.country = probe.country;
    info.cell = static_cast<std::uint32_t>(
        serve::country_index_of(probe.country) * kAccess +
        static_cast<std::size_t>(probe.endpoint.access));
    info.access_median_ms =
        net::profile_for(probe.endpoint.access, probe.country->tier).median_ms;
    info.wireless = net::is_wireless(probe.endpoint.access);
    points.push_back(probe.endpoint.location);
    probe_of_hit_.push_back(probe.id);
  }
  probe_index_ = geo::SpatialIndex(points);
}

float OverlayEvaluator::edge_rtt_ms(std::uint32_t probe_id,
                                    const SiteSpec& site, double distance_km,
                                    double wireless_scale) const {
  const ProbeInfo& p = probes_[probe_id];
  if (p.cell == kNoCell) return kInf;
  // Last mile (the 5G knob applies to it too — an edge user still
  // crosses their own access link), tier-scaled backhaul to the
  // placement, and metro fibre at the country's short-path stretch.
  const double access =
      p.access_median_ms * (p.wireless ? wireless_scale : 1.0);
  const double backhaul = edge::placement_backhaul_ms(site.placement) *
                          net::tier_latency_multiplier(p.country->tier);
  const double stretch = net::stretch_for(config_.path, p.country->tier,
                                          topology::BackboneClass::kPublic);
  const double metro_ms =
      2.0 * distance_km * stretch * config_.path.fibre_us_per_km / 1000.0;
  return static_cast<float>(access + backhaul + metro_ms);
}

std::vector<geo::SpatialHit> OverlayEvaluator::probes_within(
    const geo::GeoPoint& where, double radius_km) const {
  std::vector<geo::SpatialHit> hits =
      probe_index_.within_radius(where, radius_km);
  for (geo::SpatialHit& hit : hits) hit.id = probe_of_hit_[hit.id];
  return hits;
}

std::vector<float> OverlayEvaluator::best_edge_ms(
    std::span<const SiteSpec> sites, double wireless_scale) const {
  std::vector<float> best(probes_.size(), kInf);
  for (const SiteSpec& site : sites) {
    // min() is exact and order-independent, so site order cannot matter.
    for (const geo::SpatialHit& hit :
         probes_within(site.where, site.effective_radius_km())) {
      const float rtt =
          edge_rtt_ms(hit.id, site, hit.distance_km, wireless_scale);
      if (rtt < best[hit.id]) best[hit.id] = rtt;
    }
  }
  return best;
}

float OverlayEvaluator::relief_for(
    const serve::ColumnarStore::ShardView& shard,
    double wireless_scale) const {
  if (!net::is_wireless(shard.access) || wireless_scale == 1.0) return 0.0f;
  const double median =
      net::profile_for(shard.access, shard.country->tier).median_ms;
  return static_cast<float>((1.0 - wireless_scale) * median);
}

std::vector<std::uint8_t> OverlayEvaluator::affected_shards(
    const ScenarioDelta& delta, std::span<const float> best_edge) const {
  std::vector<std::uint8_t> affected(shards_.size(), 0);
  // Cells holding at least one site-covered probe.
  std::vector<std::uint8_t> cell_hit;
  if (!best_edge.empty()) {
    cell_hit.assign(geo::country_count() * kAccess, 0);
    for (std::size_t id = 0; id < probes_.size(); ++id) {
      if (best_edge[id] < kInf && probes_[id].cell != kNoCell) {
        cell_hit[probes_[id].cell] = 1;
      }
    }
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const serve::ColumnarStore::ShardView& shard = shards_[i];
    if (delta.route_scale != 1.0) {
      affected[i] = 1;
    } else if (delta.wireless_scale != 1.0 && net::is_wireless(shard.access)) {
      affected[i] = 1;
    } else if (!cell_hit.empty()) {
      const std::size_t cell =
          serve::country_index_of(shard.country) * kAccess +
          static_cast<std::size_t>(shard.access);
      affected[i] = cell_hit[cell];
    }
  }
  return affected;
}

OverlayView OverlayEvaluator::evaluate(const ScenarioDelta& delta) const {
  OverlayView view;
  if (delta.identity()) return view;  // nothing to substitute

  const std::vector<float> best_edge =
      delta.sites.empty() ? std::vector<float>{}
                          : best_edge_ms(delta.sites, delta.wireless_scale);
  const std::vector<std::uint8_t> affected =
      affected_shards(delta, best_edge);

  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (affected[i] != 0) todo.push_back(i);
  }
  if (todo.empty()) return view;

  // Recompute each affected cell from its raw columns with the same
  // bucket → sort → summarise_cell pipeline as ColumnarStore::refresh —
  // the first half of the bit-exactness contract.
  const std::size_t regions = store_->registry().size();
  const float route = static_cast<float>(delta.route_scale);
  // Shard sizes span orders of magnitude, so both phases hand out work
  // largest first, weighted by rows.
  std::vector<std::vector<serve::RegionStats>> cells(todo.size());
  std::vector<std::uint64_t> weights(todo.size());
  for (std::size_t k = 0; k < todo.size(); ++k) {
    weights[k] = shards_[todo[k]].rtt_ms.size();
  }
  core::parallel_largest_first(weights, config_.threads, [&](std::size_t k) {
    const serve::ColumnarStore::ShardView& shard = shards_[todo[k]];
    const float relief = relief_for(shard, delta.wireless_scale);
    std::vector<std::vector<float>> samples(regions);
    for (std::size_t i = 0; i < shard.rtt_ms.size(); ++i) {
      const float be =
          best_edge.empty() ? kInf : best_edge[shard.probe_ids[i]];
      samples[shard.region_index[i]].push_back(
          transform_rtt(shard.rtt_ms[i], relief, route, be));
    }
    cells[k].assign(regions, serve::RegionStats{});
    for (std::size_t r = 0; r < regions; ++r) {
      if (samples[r].empty()) continue;
      std::sort(samples[r].begin(), samples[r].end());
      serve::RegionStats& cell = cells[k][r];
      cell.sorted = std::move(samples[r]);
      serve::summarise_cell(cell);
    }
  });

  // Affected-country rollups: select across the per-access cells' runs
  // exactly like ColumnarStore::refresh_country, pulling the
  // transformed table where the cell changed and the base table where
  // it did not.
  std::vector<std::size_t> substituted_cell(geo::country_count() * kAccess,
                                            todo.size());
  std::vector<std::size_t> countries;  // ascending country index
  for (std::size_t k = 0; k < todo.size(); ++k) {
    const serve::ColumnarStore::ShardView& shard = shards_[todo[k]];
    const std::size_t ci = serve::country_index_of(shard.country);
    const std::size_t cell = ci * kAccess + static_cast<std::size_t>(shard.access);
    substituted_cell[cell] = k;
    if (countries.empty() || countries.back() != ci) countries.push_back(ci);
  }

  std::vector<std::vector<serve::RegionStats>> rollups(countries.size());
  std::vector<std::uint64_t> country_rows(geo::country_count(), 0);
  for (const serve::ColumnarStore::ShardView& shard : shards_) {
    country_rows[serve::country_index_of(shard.country)] +=
        shard.rtt_ms.size();
  }
  weights.resize(countries.size());
  for (std::size_t k = 0; k < countries.size(); ++k) {
    weights[k] = country_rows[countries[k]];
  }
  core::parallel_largest_first(weights, config_.threads, [&](std::size_t k) {
    const std::size_t ci = countries[k];
    std::array<std::span<const serve::RegionStats>, kAccess> tables;
    for (std::size_t a = 0; a < kAccess; ++a) {
      const std::size_t sub = substituted_cell[ci * kAccess + a];
      tables[a] = sub < todo.size()
                      ? std::span<const serve::RegionStats>(cells[sub])
                      : store_->shard_stats(
                            ci, static_cast<net::AccessTechnology>(a));
    }
    rollups[k].assign(regions, serve::RegionStats{});
    for (std::size_t r = 0; r < regions; ++r) {
      std::array<std::span<const float>, kAccess> runs;
      bool any = false;
      for (std::size_t a = 0; a < kAccess; ++a) {
        if (tables[a].empty() || tables[a][r].empty()) continue;
        runs[a] = tables[a][r].sorted;
        any = true;
      }
      if (any) serve::summarise_rollup(rollups[k][r], runs);
    }
  });

  // Assemble sorted (key, table) entries: countries ascend, and within a
  // country the rollup key precedes its cell keys.
  std::size_t next_cell = 0;
  for (std::size_t k = 0; k < countries.size(); ++k) {
    const std::size_t ci = countries[k];
    view.keys_.push_back(rollup_key(ci));
    view.tables_.push_back(std::move(rollups[k]));
    while (next_cell < todo.size() &&
           serve::country_index_of(shards_[todo[next_cell]].country) == ci) {
      view.keys_.push_back(cell_key(
          ci, static_cast<std::size_t>(shards_[todo[next_cell]].access)));
      view.tables_.push_back(std::move(cells[next_cell]));
      ++next_cell;
      ++view.cell_entries_;
    }
  }
  return view;
}

serve::ColumnarStore OverlayEvaluator::rebuild_reference(
    const ScenarioDelta& delta) const {
  const std::vector<float> best_edge =
      delta.sites.empty() ? std::vector<float>{}
                          : best_edge_ms(delta.sites, delta.wireless_scale);
  const float route = static_cast<float>(delta.route_scale);

  atlas::Records rows;
  rows.reserve(store_->rows_stored());
  for (const serve::ColumnarStore::ShardView& shard : shards_) {
    const float relief = relief_for(shard, delta.wireless_scale);
    for (std::size_t i = 0; i < shard.rtt_ms.size(); ++i) {
      const float be =
          best_edge.empty() ? kInf : best_edge[shard.probe_ids[i]];
      atlas::Measurement m;
      m.probe_id = shard.probe_ids[i];
      m.region_index = shard.region_index[i];
      m.tick = shard.ticks[i];
      m.min_ms = transform_rtt(shard.rtt_ms[i], relief, route, be);
      m.avg_ms = m.min_ms;
      m.max_ms = m.min_ms;
      m.sent = 1;
      m.received = 1;
      rows.push_back(m);
    }
  }
  const atlas::MeasurementDataset dataset(&store_->fleet(),
                                          &store_->registry(),
                                          std::move(rows));
  serve::StoreConfig config;
  config.threads = config_.threads;
  return serve::ColumnarStore::build(dataset, config);
}

CoverageReport OverlayEvaluator::coverage(const ScenarioDelta& delta,
                                          double threshold_ms) const {
  const std::vector<float> best_edge =
      delta.sites.empty() ? std::vector<float>{}
                          : best_edge_ms(delta.sites, delta.wireless_scale);
  const float route = static_cast<float>(delta.route_scale);

  // Exact integer counts per shard, in parallel; shards are disjoint.
  struct ShardCounts {
    std::uint64_t rows = 0;
    std::uint64_t covered = 0;
  };
  std::vector<ShardCounts> counts(shards_.size());
  const std::size_t workers =
      core::resolve_threads(config_.threads, shards_.size(), 1);
  core::parallel_shards(shards_.size(), workers,
                        [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      const serve::ColumnarStore::ShardView& shard = shards_[s];
      const float relief = relief_for(shard, delta.wireless_scale);
      ShardCounts& c = counts[s];
      c.rows = shard.rtt_ms.size();
      for (std::size_t i = 0; i < shard.rtt_ms.size(); ++i) {
        const float be =
            best_edge.empty() ? kInf : best_edge[shard.probe_ids[i]];
        const float v = transform_rtt(shard.rtt_ms[i], relief, route, be);
        c.covered += static_cast<double>(v) <= threshold_ms ? 1 : 0;
      }
    }
  });

  // Sequential folds from here on: shard counts into country counts in
  // shard order, countries into the report in registry order.
  std::vector<ShardCounts> by_country(geo::country_count());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardCounts& c = by_country[serve::country_index_of(shards_[s].country)];
    c.rows += counts[s].rows;
    c.covered += counts[s].covered;
  }

  CoverageReport report;
  const std::span<const geo::Country> all = geo::all_countries();
  for (std::size_t ci = 0; ci < all.size(); ++ci) {
    if (by_country[ci].rows == 0) continue;
    CountryCoverage country;
    country.country = &all[ci];
    country.rows = by_country[ci].rows;
    country.covered = by_country[ci].covered;
    country.fraction = static_cast<double>(country.covered) /
                       static_cast<double>(country.rows);
    country.weight = geo::population_share(all[ci]);
    report.weight_with_data += country.weight;
    report.weighted_fraction += country.weight * country.fraction;
    report.countries.push_back(country);
  }
  if (report.weight_with_data > 0.0) {
    report.weighted_fraction /= report.weight_with_data;
  }
  return report;
}

}  // namespace shears::opt
