// Tests for the data-quality guards and the clean-vs-faulted degradation
// report.
#include <gtest/gtest.h>

#include <vector>

#include "apps/application.hpp"
#include "atlas/campaign.hpp"
#include "atlas/measurement.hpp"
#include "atlas/placement.hpp"
#include "core/quality.hpp"
#include "faults/fault_schedule.hpp"
#include "net/latency_model.hpp"
#include "topology/registry.hpp"

namespace shears::core {
namespace {

using atlas::Measurement;
using atlas::MeasurementDataset;
using atlas::Records;

const atlas::ProbeFleet& test_fleet() {
  static const atlas::ProbeFleet fleet = [] {
    atlas::PlacementConfig config;
    config.probe_count = 400;
    config.seed = 11;
    return atlas::ProbeFleet::generate(config);
  }();
  return fleet;
}

const topology::CloudRegistry& test_registry() {
  static const topology::CloudRegistry registry =
      topology::CloudRegistry::campaign_footprint();
  return registry;
}

Measurement make_record(atlas::ProbeId probe, std::uint16_t region,
                        std::uint32_t tick, std::uint8_t received,
                        std::uint8_t faults = 0) {
  Measurement m;
  m.probe_id = probe;
  m.region_index = region;
  m.tick = tick;
  m.sent = 3;
  m.received = received;
  if (received > 0) {
    m.min_ms = 20.0f;
    m.avg_ms = 25.0f;
    m.max_ms = 30.0f;
  }
  m.faults = faults;
  return m;
}

QualityPolicy lenient_policy() {
  QualityPolicy policy;
  policy.max_probe_loss = 1.0;   // disabled
  policy.min_cell_samples = 0;   // disabled
  return policy;
}

TEST(QualityGuards, FaultMaskDropsTaintedRecords) {
  const std::uint8_t skew = faults::fault_bit(faults::FaultKind::kClockSkew);
  const std::uint8_t flap = faults::fault_bit(faults::FaultKind::kRouteFlap);
  Records records;
  for (std::uint32_t t = 0; t < 5; ++t) records.push_back(make_record(0, 0, t, 3));
  for (std::uint32_t t = 5; t < 8; ++t)
    records.push_back(make_record(0, 0, t, 3, skew));
  for (std::uint32_t t = 8; t < 10; ++t)
    records.push_back(make_record(0, 0, t, 3, flap));
  const MeasurementDataset dataset(&test_fleet(), &test_registry(),
                                   std::move(records));

  QualityReport report;
  const auto guarded =
      apply_quality_guards(dataset, lenient_policy(), &report);
  EXPECT_EQ(report.records_in, 10u);
  EXPECT_EQ(report.dropped_faulted, 3u);  // skewed only; flapped kept
  EXPECT_EQ(guarded.size(), 7u);
  for (const Measurement& m : guarded.records()) {
    EXPECT_EQ(m.faults & skew, 0);
  }
}

TEST(QualityGuards, LossyProbesLoseAllRecords) {
  Records records;
  // Probe 0: 3 of 4 bursts fully lost (75% > 50%).
  records.push_back(make_record(0, 0, 0, 3));
  for (std::uint32_t t = 1; t < 4; ++t)
    records.push_back(make_record(0, 0, t, 0));
  // Probe 1: 1 of 4 lost — healthy.
  records.push_back(make_record(1, 0, 0, 0));
  for (std::uint32_t t = 1; t < 4; ++t)
    records.push_back(make_record(1, 0, t, 3));
  const MeasurementDataset dataset(&test_fleet(), &test_registry(),
                                   std::move(records));

  QualityPolicy policy = lenient_policy();
  policy.max_probe_loss = 0.5;
  QualityReport report;
  const auto guarded = apply_quality_guards(dataset, policy, &report);
  EXPECT_EQ(report.probes_dropped, 1u);
  EXPECT_EQ(report.dropped_lossy_probes, 4u);
  EXPECT_EQ(guarded.size(), 4u);
  for (const Measurement& m : guarded.records()) {
    EXPECT_EQ(m.probe_id, 1u);
  }
}

TEST(QualityGuards, ThinCellsAreDropped) {
  const auto& registry = test_registry();
  // Two target regions with different providers: two distinct
  // (country, provider) cells for the same probe.
  std::uint16_t other = 0;
  for (std::uint16_t i = 1; i < registry.size(); ++i) {
    if (registry.regions()[i]->provider != registry.regions()[0]->provider) {
      other = i;
      break;
    }
  }
  ASSERT_NE(other, 0);

  Records records;
  for (std::uint32_t t = 0; t < 3; ++t)
    records.push_back(make_record(0, 0, t, 3));     // thick cell
  records.push_back(make_record(0, other, 3, 3));   // thin cell: 1 sample
  const MeasurementDataset dataset(&test_fleet(), &test_registry(),
                                   std::move(records));

  QualityPolicy policy = lenient_policy();
  policy.min_cell_samples = 2;
  QualityReport report;
  const auto guarded = apply_quality_guards(dataset, policy, &report);
  EXPECT_EQ(report.cells_total, 2u);
  EXPECT_EQ(report.cells_dropped, 1u);
  EXPECT_EQ(report.dropped_thin_cells, 1u);
  EXPECT_EQ(guarded.size(), 3u);
  for (const Measurement& m : guarded.records()) {
    EXPECT_EQ(m.region_index, 0u);
  }
}

TEST(QualityGuards, EveryDropIsAccountedFor) {
  const std::uint8_t skew = faults::fault_bit(faults::FaultKind::kClockSkew);
  Records records;
  for (std::uint32_t t = 0; t < 12; ++t)
    records.push_back(make_record(0, 0, t, 3));
  for (std::uint32_t t = 0; t < 4; ++t)
    records.push_back(make_record(1, 0, t, 0));        // lossy probe
  records.push_back(make_record(2, 0, 0, 3, skew));    // fault-masked
  records.push_back(make_record(3, 0, 0, 3));          // thin cell? no —
  // probe 3 shares probe 0's cell only if the countries match; count via
  // the report instead of assuming.
  const MeasurementDataset dataset(&test_fleet(), &test_registry(),
                                   std::move(records));

  QualityPolicy policy;
  policy.max_probe_loss = 0.5;
  policy.min_cell_samples = 4;
  QualityReport report;
  const auto guarded = apply_quality_guards(dataset, policy, &report);
  EXPECT_EQ(report.records_in,
            report.records_out + report.dropped_faulted +
                report.dropped_lossy_probes + report.dropped_thin_cells);
  EXPECT_EQ(guarded.size(), report.records_out);
  EXPECT_EQ(report.dropped_faulted, 1u);
  EXPECT_EQ(report.dropped_lossy_probes, 4u);
}

TEST(QualityGuards, CleanCampaignSurvivesFaultAndLossGuards) {
  const net::LatencyModel model;
  atlas::CampaignConfig config;
  config.duration_days = 3;
  config.seed = 13;
  const auto dataset =
      atlas::Campaign(test_fleet(), test_registry(), model, config).run();

  QualityPolicy policy = lenient_policy();  // cell guard off: a 3-day run
                                            // is legitimately thin
  QualityReport report;
  const auto guarded = apply_quality_guards(dataset, policy, &report);
  EXPECT_EQ(guarded.size(), dataset.size());
  EXPECT_EQ(report.dropped_faulted, 0u);
  EXPECT_EQ(report.probes_dropped, 0u);
}

TEST(DegradationReport, CleanVersusItselfIsStable) {
  const net::LatencyModel model;
  atlas::CampaignConfig config;
  config.duration_days = 3;
  config.seed = 13;
  const auto dataset =
      atlas::Campaign(test_fleet(), test_registry(), model, config).run();

  const DegradationReport report = degradation_report(
      dataset, dataset, apps::application_catalog(), lenient_policy());
  EXPECT_TRUE(report.stable());
  EXPECT_FALSE(report.rows.empty());
  EXPECT_GT(report.apps_total, 0u);
  for (const VerdictShift& row : report.rows) {
    EXPECT_EQ(row.changed, 0u);
    EXPECT_DOUBLE_EQ(row.clean_median_ms, row.faulted_median_ms);
  }
}

TEST(DegradationReport, DetectsVerdictShiftsUnderHeavyDegradation) {
  const net::LatencyModel model;
  atlas::CampaignConfig config;
  config.duration_days = 3;
  config.seed = 13;
  const auto clean =
      atlas::Campaign(test_fleet(), test_registry(), model, config).run();

  // A uniformly +200 ms dataset crosses several application thresholds.
  Records shifted(clean.records().begin(), clean.records().end());
  for (Measurement& m : shifted) {
    if (m.lost()) continue;
    m.min_ms += 200.0f;
    m.avg_ms += 200.0f;
    m.max_ms += 200.0f;
  }
  const MeasurementDataset faulted(&test_fleet(), &test_registry(),
                                   std::move(shifted));

  const DegradationReport report = degradation_report(
      clean, faulted, apps::application_catalog(), lenient_policy());
  EXPECT_FALSE(report.stable());
  EXPECT_GT(report.changed_total, 0u);
  for (const VerdictShift& row : report.rows) {
    EXPECT_GT(row.faulted_median_ms, row.clean_median_ms);
  }
}

TEST(DegradationReport, StableUnderModerateFaultsWithResilience) {
  // The acceptance bar: a moderate fault regime, with retries, quarantine
  // and the quality guards in play, must leave the paper's feasibility
  // verdicts where the clean run put them.
  const net::LatencyModel model;
  atlas::CampaignConfig config;
  config.duration_days = 30;
  config.seed = 13;
  const auto clean =
      atlas::Campaign(test_fleet(), test_registry(), model, config).run();

  faults::FaultScheduleConfig fault_config;
  fault_config.region_outage_rate = 0.02;
  fault_config.route_flap_rate = 0.05;
  fault_config.storm_rate = 0.04;
  fault_config.probe_hang_rate = 0.03;
  fault_config.clock_skew_rate = 0.01;
  fault_config.blackout_rate = 0.002;
  const faults::FaultSchedule schedule(fault_config);

  atlas::CampaignConfig resilient = config;
  resilient.retry.max_retries = 2;
  resilient.quarantine.enabled = true;
  const auto faulted =
      atlas::Campaign(test_fleet(), test_registry(), model, resilient,
                      &schedule)
          .run();
  EXPECT_GT(faulted.faulted_fraction(), 0.0);

  const DegradationReport report =
      degradation_report(clean, faulted, apps::application_catalog());
  EXPECT_TRUE(report.stable())
      << "changed " << report.changed_total << " of " << report.apps_total;
}

}  // namespace
}  // namespace shears::core
