#include "serve/reference.hpp"

#include <algorithm>
#include <sstream>

#include "stats/ecdf.hpp"

namespace shears::serve {

ReferenceOracle::ReferenceOracle(const atlas::MeasurementDataset* dataset,
                                 OracleConfig config)
    : dataset_(dataset), config_(config) {}

const geo::Country* ReferenceOracle::resolve_country(const Query& q) const {
  if (!q.country_iso2.empty()) return geo::find_country(q.country_iso2);
  // Nearest eligible probe by exact geodesic distance; the first (lowest
  // fleet position) wins ties, matching the spatial index's id order.
  const geo::Country* country = nullptr;
  double best = 0.0;
  for (const atlas::Probe& probe : dataset_->fleet().probes()) {
    if (probe.privileged()) continue;
    if (!q.any_access && probe.endpoint.access != q.access) continue;
    const double d = geo::haversine_km(q.where, probe.endpoint.location);
    if (country == nullptr || d < best) {
      country = probe.country;
      best = d;
    }
  }
  return country;
}

std::vector<RegionStats> ReferenceOracle::scan_stats(
    const Query& q, const geo::Country* country) const {
  const std::size_t regions = dataset_->registry().size();
  std::vector<std::vector<double>> samples(regions);
  for (const atlas::Measurement& m : dataset_->records()) {
    if (m.lost()) continue;
    const atlas::Probe& probe = dataset_->probe_of(m);
    if (probe.privileged() || probe.country != country) continue;
    if (!q.any_access && probe.endpoint.access != q.access) continue;
    samples[m.region_index].push_back(static_cast<double>(m.min_ms));
  }
  std::vector<RegionStats> stats(regions);
  for (std::size_t r = 0; r < regions; ++r) {
    if (samples[r].empty()) continue;
    std::sort(samples[r].begin(), samples[r].end());
    // Deliberately not the store's float selection: the reference's
    // scalars come from an Ecdf over the widened doubles, so the
    // differential suites compare two independent derivations.
    const stats::Ecdf ecdf = stats::Ecdf::from_sorted(std::move(samples[r]));
    RegionStats& cell = stats[r];
    cell.count = ecdf.size();
    cell.min_ms = ecdf.min();
    cell.median_ms = ecdf.quantile(0.5);
    cell.p95_ms = ecdf.quantile(0.95);
  }
  return stats;
}

std::vector<Answer> ReferenceOracle::answer(
    std::span<const Query> queries) const {
  std::vector<Answer> out(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    out[i] = answer_one(queries[i]);
  }
  return out;
}

Answer ReferenceOracle::answer_one(const Query& query) const {
  const geo::Country* country = resolve_country(query);
  std::vector<RegionStats> stats;
  if (country != nullptr) stats = scan_stats(query, country);
  Answer out;
  detail::answer_from_stats(query, country, stats, dataset_->registry(),
                            config_.feasibility, out);
  return out;
}

bool answers_identical(std::span<const Answer> a, std::span<const Answer> b,
                       std::string& why) {
  if (a.size() != b.size()) {
    std::ostringstream os;
    os << "batch sizes differ: " << a.size() << " vs " << b.size();
    why = os.str();
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) continue;
    std::ostringstream os;
    os << "answer " << i << " diverges:";
    if (a[i].ok != b[i].ok) os << " ok " << a[i].ok << " vs " << b[i].ok;
    if (a[i].country != b[i].country) {
      os << " country "
         << (a[i].country != nullptr ? a[i].country->iso2 : "null") << " vs "
         << (b[i].country != nullptr ? b[i].country->iso2 : "null");
    }
    if (a[i].best_region != b[i].best_region) {
      os << " best_region "
         << (a[i].best_region != nullptr ? a[i].best_region->region_id
                                         : "null")
         << " vs "
         << (b[i].best_region != nullptr ? b[i].best_region->region_id
                                         : "null");
    }
    if (a[i].best_ms != b[i].best_ms) {
      os << " best_ms " << a[i].best_ms << " vs " << b[i].best_ms;
    }
    if (a[i].median_ms != b[i].median_ms) {
      os << " median_ms " << a[i].median_ms << " vs " << b[i].median_ms;
    }
    if (a[i].p95_ms != b[i].p95_ms) {
      os << " p95_ms " << a[i].p95_ms << " vs " << b[i].p95_ms;
    }
    if (a[i].verdict != b[i].verdict) {
      os << " verdict " << to_string(a[i].verdict) << " vs "
         << to_string(b[i].verdict);
    }
    if (a[i].in_zone != b[i].in_zone) {
      os << " in_zone " << a[i].in_zone << " vs " << b[i].in_zone;
    }
    if (a[i].regions != b[i].regions) {
      os << " top-k lists differ (" << a[i].regions.size() << " vs "
         << b[i].regions.size() << " entries)";
    }
    why = os.str();
    return false;
  }
  why.clear();
  return true;
}

}  // namespace shears::serve
