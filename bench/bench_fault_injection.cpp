// Fault-injection overhead on campaign throughput. The acceptance bar:
// an attached-but-empty schedule (or none at all) must cost < 10% over
// the pre-fault engine; active faults may cost more (they do extra
// exposure queries and perturbed sampling).
#include <benchmark/benchmark.h>

#include "atlas/campaign.hpp"
#include "atlas/placement.hpp"
#include "faults/fault_schedule.hpp"
#include "net/latency_model.hpp"
#include "topology/registry.hpp"

namespace {

using namespace shears;

atlas::CampaignConfig day_config() {
  atlas::CampaignConfig config;
  config.duration_days = 1;
  config.threads = 1;  // single-threaded for stable numbers
  return config;
}

void BM_CampaignNoSchedule(benchmark::State& state) {
  const auto fleet = atlas::ProbeFleet::generate({});
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;
  const atlas::Campaign campaign(fleet, registry, model, day_config());
  for (auto _ : state) {
    auto dataset = campaign.run();
    benchmark::DoNotOptimize(dataset);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(dataset.size()));
  }
}
BENCHMARK(BM_CampaignNoSchedule)->Unit(benchmark::kMillisecond);

void BM_CampaignEmptySchedule(benchmark::State& state) {
  // Faults wired in but no fault active anywhere: the clean lane engine.
  const auto fleet = atlas::ProbeFleet::generate({});
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;
  const faults::FaultSchedule schedule;  // empty
  const atlas::Campaign campaign(fleet, registry, model, day_config(),
                                 &schedule);
  for (auto _ : state) {
    auto dataset = campaign.run();
    benchmark::DoNotOptimize(dataset);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(dataset.size()));
  }
}
BENCHMARK(BM_CampaignEmptySchedule)->Unit(benchmark::kMillisecond);

void BM_CampaignActiveFaults(benchmark::State& state) {
  // A busy schedule plus retries and quarantine — the worst case.
  const auto fleet = atlas::ProbeFleet::generate({});
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;
  faults::FaultScheduleConfig fault_config;
  fault_config.region_outage_rate = 0.02;
  fault_config.route_flap_rate = 0.05;
  fault_config.storm_rate = 0.04;
  fault_config.probe_hang_rate = 0.03;
  fault_config.clock_skew_rate = 0.01;
  fault_config.blackout_rate = 0.002;
  const faults::FaultSchedule schedule(fault_config);
  atlas::CampaignConfig config = day_config();
  config.retry.max_retries = 2;
  config.quarantine.enabled = true;
  const atlas::Campaign campaign(fleet, registry, model, config, &schedule);
  for (auto _ : state) {
    auto dataset = campaign.run();
    benchmark::DoNotOptimize(dataset);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(dataset.size()));
  }
}
BENCHMARK(BM_CampaignActiveFaults)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
