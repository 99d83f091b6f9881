// Microbenchmarks for topology queries and campaign-engine throughput,
// plus the observability gate: a full-fleet campaign timed with and
// without an attached MetricsRegistry, asserting the two datasets are
// byte-identical and recording both wall clocks in the bench JSON (see
// bench_common.hpp). Campaign::run() times the production lane engine;
// the *Reference rows time the scalar reference engine on the same
// config, so the ratio between the two stays visible.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "atlas/campaign.hpp"
#include "atlas/placement.hpp"
#include "bench_common.hpp"
#include "check/reference.hpp"
#include "net/latency_model.hpp"
#include "obs/metrics.hpp"
#include "topology/registry.hpp"

namespace {

using namespace shears;

void BM_NearestRegion(benchmark::State& state) {
  const auto registry = topology::CloudRegistry::campaign_footprint();
  double lat = -60.0;
  for (auto _ : state) {
    lat += 0.37;
    if (lat > 60.0) lat = -60.0;
    benchmark::DoNotOptimize(registry.nearest({lat, lat * 2.5}));
  }
}
BENCHMARK(BM_NearestRegion);

void BM_FleetGeneration(benchmark::State& state) {
  atlas::PlacementConfig config;
  config.probe_count = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto fleet = atlas::ProbeFleet::generate(config);
    benchmark::DoNotOptimize(fleet);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FleetGeneration)->Arg(400)->Arg(3200);

void BM_CampaignDay(benchmark::State& state) {
  // Throughput of one full campaign day across the standard fleet
  // (3200 probes x 8 ticks), single-threaded for stable numbers.
  const auto fleet = atlas::ProbeFleet::generate({});
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;
  atlas::CampaignConfig config;
  config.duration_days = 1;
  config.threads = 1;
  const atlas::Campaign campaign(fleet, registry, model, config);
  for (auto _ : state) {
    auto dataset = campaign.run();
    benchmark::DoNotOptimize(dataset);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(dataset.size()));
  }
}
BENCHMARK(BM_CampaignDay)->Unit(benchmark::kMillisecond);

void BM_CampaignDayReference(benchmark::State& state) {
  // BM_CampaignDay on the scalar reference engine.
  const auto fleet = atlas::ProbeFleet::generate({});
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;
  atlas::CampaignConfig config;
  config.duration_days = 1;
  config.threads = 1;
  const atlas::Campaign campaign(fleet, registry, model, config);
  for (auto _ : state) {
    atlas::CampaignTelemetry telemetry;
    auto dataset = check::reference_campaign(campaign, telemetry);
    benchmark::DoNotOptimize(dataset);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(dataset.size()));
  }
}
BENCHMARK(BM_CampaignDayReference)->Unit(benchmark::kMillisecond);

void BM_CampaignDayParallel(benchmark::State& state) {
  const auto fleet = atlas::ProbeFleet::generate({});
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;
  atlas::CampaignConfig config;
  config.duration_days = 1;
  config.threads = 0;  // hardware concurrency
  const atlas::Campaign campaign(fleet, registry, model, config);
  for (auto _ : state) {
    auto dataset = campaign.run();
    benchmark::DoNotOptimize(dataset);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(dataset.size()));
  }
}
BENCHMARK(BM_CampaignDayParallel)->Unit(benchmark::kMillisecond);

/// The observability gate: the same cached campaign timed with no
/// registry attached and with full instrumentation (attach_metrics), in
/// alternating pairs. Each pair times the two back to back, and the order
/// alternates between pairs so neither side always runs second; wall
/// clocks are per-mode minima, since noise on a shared box only ever adds
/// time. Asserts the two datasets are byte-identical — metrics must observe,
/// never perturb — and that the instrumented run costs at most
/// SHEARS_TELEMETRY_GATE_PCT percent throughput (default 2; the perf
/// smoke test raises it to 50 because a 2-day run is noise-dominated).
/// Records campaign_cached (the plain run, the campaign throughput row),
/// campaign_instrumented, campaign_telemetry_overhead_pct and
/// campaign_telemetry_identical; then times the scalar reference engine
/// on the same config (minimum over as many runs) as campaign_reference,
/// and records campaign_lane_speedup, reference over plain wall clock.
int run_telemetry_overhead() {
  using clock = std::chrono::steady_clock;
  int days = 30;
  if (const char* env = std::getenv("SHEARS_BENCH_DAYS")) {
    if (const int v = std::atoi(env); v > 0) days = v;
  }
  int repeats = 5;
  if (const char* env = std::getenv("SHEARS_BENCH_REPEATS")) {
    if (const int v = std::atoi(env); v > 0) repeats = v;
  }
  double gate_pct = 2.0;
  if (const char* env = std::getenv("SHEARS_TELEMETRY_GATE_PCT")) {
    if (const double v = std::atof(env); v > 0.0) gate_pct = v;
  }

  const auto fleet = atlas::ProbeFleet::generate({});
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;
  atlas::CampaignConfig config;
  config.duration_days = days;
  config.threads = 1;

  const atlas::Campaign plain(fleet, registry, model, config);
  atlas::Campaign instrumented(fleet, registry, model, config);
  obs::MetricsRegistry metrics;
  instrumented.attach_metrics(&metrics);

  double plain_s = 1e300;
  double instrumented_s = 1e300;
  std::size_t measurements = 0;
  bool identical = true;
  for (int r = 0; r < repeats; ++r) {
    double p = 0.0;
    double i = 0.0;
    auto start = clock::now();
    const auto time_plain = [&] {
      start = clock::now();
      auto ds = plain.run();
      p = std::chrono::duration<double>(clock::now() - start).count();
      return ds;
    };
    const auto time_instrumented = [&] {
      start = clock::now();
      auto ds = instrumented.run();
      i = std::chrono::duration<double>(clock::now() - start).count();
      return ds;
    };
    if (r % 2 == 0) {
      const auto reference = time_plain();
      const auto dataset = time_instrumented();
      measurements = dataset.size();
      if (r == 0) {
        identical = dataset.size() == reference.size();
        for (std::size_t k = 0; identical && k < dataset.size(); ++k) {
          const atlas::Measurement& a = dataset.records()[k];
          const atlas::Measurement& b = reference.records()[k];
          identical = a.probe_id == b.probe_id &&
                      a.region_index == b.region_index && a.tick == b.tick &&
                      a.min_ms == b.min_ms && a.avg_ms == b.avg_ms &&
                      a.max_ms == b.max_ms && a.sent == b.sent &&
                      a.received == b.received && a.retries == b.retries &&
                      a.faults == b.faults;
        }
      }
    } else {
      const auto dataset = time_instrumented();
      const auto reference = time_plain();
      measurements = dataset.size();
    }
    plain_s = std::min(plain_s, p);
    instrumented_s = std::min(instrumented_s, i);
  }
  double reference_s = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto start = clock::now();
    atlas::CampaignTelemetry telemetry;
    const auto ds = check::reference_campaign(plain, telemetry);
    reference_s = std::min(
        reference_s,
        std::chrono::duration<double>(clock::now() - start).count());
  }
  const double overhead_pct =
      plain_s > 0.0 ? (instrumented_s / plain_s - 1.0) * 100.0 : 0.0;
  const bool within_gate = overhead_pct <= gate_pct;

  const auto items = static_cast<double>(measurements);
  bench::bench_record("campaign_cached", plain_s, items);
  bench::bench_record("campaign_instrumented", instrumented_s, items);
  bench::bench_record_value("campaign_telemetry_overhead_pct", overhead_pct);
  bench::bench_record_value("campaign_telemetry_identical",
                            identical ? 1.0 : 0.0);
  bench::bench_record("campaign_reference", reference_s, items);
  bench::bench_record_value("campaign_lane_speedup",
                            plain_s > 0.0 ? reference_s / plain_s : 0.0);

  std::printf(
      "\ntelemetry overhead (%d days, %zu measurements, 1 thread, %d pairs)\n"
      "  plain:        %.3f s\n"
      "  instrumented: %.3f s\n"
      "  overhead:     %.2f%% (gate %.1f%%: %s)   datasets %s\n"
      "  reference:    %.3f s (scalar engine, %.2fx the plain run)\n",
      days, measurements, repeats, plain_s, instrumented_s, overhead_pct,
      gate_pct, within_gate ? "ok" : "EXCEEDED",
      identical ? "byte-identical" : "DIVERGED", reference_s,
      plain_s > 0.0 ? reference_s / plain_s : 0.0);
  return identical && within_gate ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_telemetry_overhead();
}
