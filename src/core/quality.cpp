#include "core/quality.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "core/analysis.hpp"
#include "topology/provider.hpp"

namespace shears::core {

atlas::MeasurementDataset apply_quality_guards(
    const atlas::MeasurementDataset& dataset, const QualityPolicy& policy,
    QualityReport* report) {
  QualityReport local;
  local.records_in = dataset.size();

  // Pass 1: per-probe loss and per-(country, provider) successful-burst
  // counts, over the records the fault-mask rule keeps.
  std::map<atlas::ProbeId, std::pair<std::size_t, std::size_t>>
      probe_loss;  // probe -> (lost, total)
  std::map<std::pair<std::string_view, topology::CloudProvider>, std::size_t>
      cell_samples;
  for (const atlas::Measurement& m : dataset.records()) {
    if ((m.faults & policy.drop_fault_mask) != 0) continue;
    auto& [lost, total] = probe_loss[m.probe_id];
    ++total;
    if (m.lost()) ++lost;
  }
  std::vector<atlas::ProbeId> lossy;
  for (const auto& [probe_id, counts] : probe_loss) {
    if (policy.max_probe_loss < 1.0 && counts.second > 0 &&
        static_cast<double>(counts.first) >
            policy.max_probe_loss * static_cast<double>(counts.second)) {
      lossy.push_back(probe_id);
    }
  }
  local.probes_dropped = lossy.size();
  const auto is_lossy = [&lossy](atlas::ProbeId id) {
    return std::binary_search(lossy.begin(), lossy.end(), id);
  };
  for (const atlas::Measurement& m : dataset.records()) {
    if ((m.faults & policy.drop_fault_mask) != 0) continue;
    if (is_lossy(m.probe_id)) continue;
    if (m.lost()) continue;
    const atlas::Probe& p = dataset.probe_of(m);
    const topology::CloudRegion& r = dataset.region_of(m);
    ++cell_samples[{p.country->iso2, r.provider}];
  }
  local.cells_total = cell_samples.size();

  // Pass 2: keep what survives all three rules.
  atlas::Records kept;
  kept.reserve(dataset.size());
  for (const atlas::Measurement& m : dataset.records()) {
    if ((m.faults & policy.drop_fault_mask) != 0) {
      ++local.dropped_faulted;
      continue;
    }
    if (is_lossy(m.probe_id)) {
      ++local.dropped_lossy_probes;
      continue;
    }
    const atlas::Probe& p = dataset.probe_of(m);
    const topology::CloudRegion& r = dataset.region_of(m);
    const auto cell = cell_samples.find({p.country->iso2, r.provider});
    const std::size_t samples =
        cell != cell_samples.end() ? cell->second : 0;
    if (policy.min_cell_samples > 0 && samples < policy.min_cell_samples) {
      ++local.dropped_thin_cells;
      continue;
    }
    kept.push_back(m);
  }
  local.records_out = kept.size();
  if (policy.min_cell_samples > 0) {
    for (const auto& [cell, samples] : cell_samples) {
      if (samples < policy.min_cell_samples) ++local.cells_dropped;
    }
  }
  if (report != nullptr) *report = local;
  return atlas::MeasurementDataset(&dataset.fleet(), &dataset.registry(),
                                   std::move(kept));
}

namespace {

/// Median of a continent's per-probe campaign minima; 0 when empty.
double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double upper = values[mid];
  if (values.size() % 2 == 0) {
    const double lower =
        *std::max_element(values.begin(), values.begin() + mid);
    return 0.5 * (lower + upper);
  }
  return upper;
}

}  // namespace

DegradationReport degradation_report(
    const atlas::MeasurementDataset& clean,
    const atlas::MeasurementDataset& faulted,
    std::span<const apps::Application> catalog, const QualityPolicy& policy,
    const FeasibilityConfig& config) {
  const atlas::MeasurementDataset clean_guarded =
      apply_quality_guards(clean, policy);
  const atlas::MeasurementDataset faulted_guarded =
      apply_quality_guards(faulted, policy);
  const auto clean_minima = min_rtt_by_continent(clean_guarded);
  const auto faulted_minima = min_rtt_by_continent(faulted_guarded);

  DegradationReport report;
  for (const geo::Continent c : geo::kAllContinents) {
    const auto& a = clean_minima[geo::index_of(c)];
    const auto& b = faulted_minima[geo::index_of(c)];
    if (a.empty() || b.empty()) continue;
    VerdictShift row;
    row.continent = c;
    row.clean_median_ms = median_of(a);
    row.faulted_median_ms = median_of(b);
    const auto clean_rows =
        classify_catalog(catalog, row.clean_median_ms, config);
    const auto faulted_rows =
        classify_catalog(catalog, row.faulted_median_ms, config);
    row.apps = clean_rows.size();
    for (std::size_t i = 0; i < clean_rows.size(); ++i) {
      if (clean_rows[i].verdict != faulted_rows[i].verdict) ++row.changed;
    }
    report.apps_total += row.apps;
    report.changed_total += row.changed;
    report.rows.push_back(row);
  }
  return report;
}

}  // namespace shears::core
