// The sampling-cache determinism contract (DESIGN.md, "Sampling cache"):
//
//   * golden FNV-1a checksums captured from the PRE-cache engine pin the
//     exact bytes of the scalar reference engine (check/reference.hpp),
//     so any silent divergence (a reordered draw, a folded constant, an
//     unsafe compiler flag) fails loudly;
//   * lane-engine goldens pin the bytes Campaign::run() produces, at
//     every thread count and under both kernel builds (ctest runs this
//     binary a second time with SHEARS_FORCE_SCALAR=1);
//   * a cached burst is bit-equal to a burst of the recomputing
//     LatencyModel::ping_once, faulted or not;
//   * results are invariant across campaign thread counts;
//   * the precomputed path/profile state matches the recomputing entry
//     points field for field, and the hoisted per-burst math matches the
//     formulas it replaced.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>

#include "atlas/campaign.hpp"
#include "atlas/path_cache.hpp"
#include "atlas/placement.hpp"
#include "check/reference.hpp"
#include "config/scenario.hpp"
#include "net/latency_model.hpp"
#include "stats/distributions.hpp"
#include "stats/rng.hpp"
#include "topology/registry.hpp"

namespace shears {
namespace {

/// FNV-1a over every field of every record, floats by bit pattern — the
/// same digest the capture harness used against the pre-cache engine.
std::uint64_t dataset_checksum(const atlas::MeasurementDataset& ds) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (const atlas::Measurement& m : ds.records()) {
    mix(m.probe_id);
    mix(m.region_index);
    mix(m.tick);
    std::uint32_t bits = 0;
    std::memcpy(&bits, &m.min_ms, sizeof bits);
    mix(bits);
    std::memcpy(&bits, &m.avg_ms, sizeof bits);
    mix(bits);
    std::memcpy(&bits, &m.max_ms, sizeof bits);
    mix(bits);
    mix(m.sent);
    mix(m.received);
    mix(m.retries);
    mix(m.faults);
  }
  return h;
}

// Golden checksums captured from the recomputing engine BEFORE the cache
// layer landed (commit f38bf78 lineage). They are the ground truth the
// optimised engine must keep reproducing bit for bit.
constexpr std::uint64_t kGoldenSmallDefault = 0xc651f46c9bbf3d01ULL;
constexpr std::uint64_t kGoldenChurnMulti = 0x679b79bcd1dfd8caULL;
constexpr std::uint64_t kGoldenPaper9Months = 0x46d3f0dd8d6cfb2bULL;
constexpr std::uint64_t kGoldenFaulted9Months = 0x50b5875f3010277eULL;
constexpr std::uint64_t kGoldenStressNoisy = 0x4e326ef751afea68ULL;

// Golden checksums of the lane engine Campaign::run() samples with,
// captured when it became the production engine. Identical under the
// AVX2 and generic kernel builds.
constexpr std::uint64_t kLaneGoldenSmallDefault = 0x4d965d6a0c1c29c9ULL;
constexpr std::uint64_t kLaneGoldenChurnMulti = 0xe9a36ba31f0fc5f4ULL;
constexpr std::uint64_t kLaneGoldenPaper9Months = 0xb2bbad1dc0f1f9f3ULL;
constexpr std::uint64_t kLaneGoldenStressNoisy = 0xbcb194951a9a74aaULL;

/// The scalar reference engine's dataset.
atlas::MeasurementDataset reference_run(const atlas::Campaign& campaign) {
  atlas::CampaignTelemetry telemetry;
  return check::reference_campaign(campaign, telemetry);
}

atlas::ProbeFleet small_fleet() {
  atlas::PlacementConfig pc;
  pc.probe_count = 256;
  pc.seed = 5;
  return atlas::ProbeFleet::generate(pc);
}

atlas::CampaignConfig small_config() {
  atlas::CampaignConfig cc;
  cc.duration_days = 3;
  cc.seed = 7;
  cc.threads = 1;
  return cc;
}

TEST(SamplingCacheGolden, SmallDefaultMatchesPreCacheEngine) {
  const auto fleet = small_fleet();
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;
  atlas::CampaignConfig cc = small_config();

  const auto cached =
      reference_run(atlas::Campaign(fleet, registry, model, cc));
  EXPECT_EQ(dataset_checksum(cached), kGoldenSmallDefault);
  EXPECT_EQ(cached.size(), 6144u);
}

TEST(SamplingCacheGolden, ChurnMultiTargetMatchesPreCacheEngine) {
  // Probe churn + multiple targets per tick exercises the generic
  // (non-fast-path) cached loop.
  atlas::PlacementConfig pc;
  pc.probe_count = 300;
  pc.seed = 11;
  const auto fleet = atlas::ProbeFleet::generate(pc);
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;
  atlas::CampaignConfig cc;
  cc.duration_days = 5;
  cc.targets_per_tick = 2;
  cc.probe_uptime = 0.9;
  cc.seed = 99;
  cc.threads = 2;

  const auto cached =
      reference_run(atlas::Campaign(fleet, registry, model, cc));
  EXPECT_EQ(dataset_checksum(cached), kGoldenChurnMulti);
}

/// Checksum and size of a shipped scenario's dataset at a short window.
struct ScenarioRun {
  std::uint64_t checksum = 0;
  std::size_t rows = 0;
  std::size_t capacity = 0;  ///< expected_record_count()
  bool batched = false;      ///< ran on the lane-batched engine
};

/// Which engine a scenario run samples with: Campaign::run()'s choice,
/// or the scalar reference.
enum class Engine { kRun, kReference };

ScenarioRun run_scenario(const char* file, unsigned threads,
                         bool lanes_only = false,
                         Engine engine = Engine::kRun) {
  std::ifstream in(std::string(SHEARS_SOURCE_DIR) + "/scenarios/" + file);
  EXPECT_TRUE(in.good()) << file;
  config::Scenario sc = config::parse_scenario(in);
  sc.campaign.duration_days = 2;  // checksum window, not the full 9 months
  sc.campaign.threads = threads;
  if (lanes_only) {
    // The lane kernel covers churn and faults but not retries or
    // quarantine; drop those so the scenario runs on it.
    sc.campaign.retry = {};
    sc.campaign.quarantine = {};
  }
  atlas::PlacementConfig pc = sc.fleet;
  pc.probe_count = 256;
  const auto fleet = atlas::ProbeFleet::generate(pc);
  const auto registry = sc.make_registry();
  const net::LatencyModel model(sc.model);
  const auto schedule = sc.make_fault_schedule();
  const atlas::Campaign campaign(fleet, registry, model, sc.campaign,
                                 &schedule);
  const auto ds =
      engine == Engine::kRun ? campaign.run() : reference_run(campaign);
  return {dataset_checksum(ds), ds.size(), campaign.expected_record_count(),
          engine == Engine::kRun && campaign.batched_eligible()};
}

std::uint64_t scenario_checksum(const char* file,
                                Engine engine = Engine::kRun) {
  return run_scenario(file, 1, false, engine).checksum;
}

TEST(SamplingCacheGolden, ShippedScenariosMatchPreCacheEngine) {
  // faulted_9_months has retries and quarantine: run() samples it with
  // the scalar engine.
  EXPECT_EQ(scenario_checksum("paper_9_months.ini", Engine::kReference),
            kGoldenPaper9Months);
  EXPECT_EQ(scenario_checksum("faulted_9_months.ini"), kGoldenFaulted9Months);
  EXPECT_EQ(scenario_checksum("stress_noisy_network.ini", Engine::kReference),
            kGoldenStressNoisy);
}

TEST(SamplingCacheThreads, DatasetInvariantAcrossThreadCounts) {
  const auto fleet = small_fleet();
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;
  for (const unsigned threads : {1u, 2u, 8u}) {
    atlas::CampaignConfig cc = small_config();
    cc.threads = threads;
    const auto cached =
        reference_run(atlas::Campaign(fleet, registry, model, cc));
    EXPECT_EQ(dataset_checksum(cached), kGoldenSmallDefault)
        << threads << " threads";
  }
}

TEST(LaneEngineGolden, SmallDefaultAtEveryThreadCount) {
  const auto fleet = small_fleet();
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;
  for (const unsigned threads : {1u, 2u, 8u}) {
    atlas::CampaignConfig cc = small_config();
    cc.threads = threads;
    const atlas::Campaign campaign(fleet, registry, model, cc);
    ASSERT_TRUE(campaign.batched_eligible());
    const auto ds = campaign.run();
    EXPECT_EQ(dataset_checksum(ds), kLaneGoldenSmallDefault) << threads;
    EXPECT_EQ(ds.size(), 6144u) << threads;
  }
}

TEST(LaneEngineGolden, ChurnMultiTargetAtEveryThreadCount) {
  atlas::PlacementConfig pc;
  pc.probe_count = 300;
  pc.seed = 11;
  const auto fleet = atlas::ProbeFleet::generate(pc);
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;
  for (const unsigned threads : {1u, 2u, 8u}) {
    atlas::CampaignConfig cc;
    cc.duration_days = 5;
    cc.targets_per_tick = 2;
    cc.probe_uptime = 0.9;
    cc.seed = 99;
    cc.threads = threads;
    const atlas::Campaign campaign(fleet, registry, model, cc);
    ASSERT_TRUE(campaign.batched_eligible());
    EXPECT_EQ(dataset_checksum(campaign.run()), kLaneGoldenChurnMulti)
        << threads;
  }
}

TEST(LaneEngineGolden, ShippedScenariosAtEveryThreadCount) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    const ScenarioRun paper = run_scenario("paper_9_months.ini", threads);
    ASSERT_TRUE(paper.batched);
    EXPECT_EQ(paper.checksum, kLaneGoldenPaper9Months) << threads;
    const ScenarioRun noisy = run_scenario("stress_noisy_network.ini", threads);
    ASSERT_TRUE(noisy.batched);
    EXPECT_EQ(noisy.checksum, kLaneGoldenStressNoisy) << threads;
  }
}

// Campaign workers fill one dataset buffer, each its own slice sized by
// its probes' capacity; configurations that record less than that leave
// gaps that run() closes in shard order. These pin the closed-up
// dataset to the single-thread one (and to the goldens where they
// exist) at thread counts whose slices end at different probes.
TEST(CampaignSlices, ChurnedSlicesMatchGoldenAtEveryThreadCount) {
  atlas::PlacementConfig pc;
  pc.probe_count = 300;
  pc.seed = 11;
  const auto fleet = atlas::ProbeFleet::generate(pc);
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;
  for (const unsigned threads : {1u, 3u, 8u}) {
    atlas::CampaignConfig cc;
    cc.duration_days = 5;
    cc.targets_per_tick = 2;
    cc.probe_uptime = 0.9;
    cc.seed = 99;
    cc.threads = threads;
    const atlas::Campaign campaign(fleet, registry, model, cc);
    const auto ds = reference_run(campaign);
    EXPECT_EQ(dataset_checksum(ds), kGoldenChurnMulti) << threads;
    EXPECT_LT(ds.size(), campaign.expected_record_count()) << threads;
  }
}

TEST(CampaignSlices, FaultedScenarioMatchesGoldenAtEveryThreadCount) {
  for (const unsigned threads : {1u, 3u, 8u}) {
    const ScenarioRun run = run_scenario("faulted_9_months.ini", threads);
    EXPECT_EQ(run.checksum, kGoldenFaulted9Months) << threads;
    EXPECT_LT(run.rows, run.capacity) << threads;
  }
}

TEST(CampaignSlices, BatchedFaultedSlicesAreThreadInvariant) {
  // The lane-batched engine closes per-probe gaps inside its slice too.
  const ScenarioRun one = run_scenario("faulted_9_months.ini", 1, true);
  ASSERT_TRUE(one.batched);
  EXPECT_LT(one.rows, one.capacity);
  for (const unsigned threads : {3u, 8u}) {
    const ScenarioRun run = run_scenario("faulted_9_months.ini", threads, true);
    EXPECT_EQ(run.checksum, one.checksum) << threads;
    EXPECT_EQ(run.rows, one.rows) << threads;
  }
}

TEST(CampaignSlices, RetriesAndQuarantineAreThreadInvariant) {
  const auto fleet = small_fleet();
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;
  faults::FaultScheduleConfig fc;
  fc.seed = 3;
  fc.region_outage_rate = 0.3;
  fc.probe_hang_rate = 0.2;
  const faults::FaultSchedule schedule(fc);
  std::uint64_t reference = 0;
  for (const unsigned threads : {1u, 3u, 8u}) {
    atlas::CampaignConfig cc = small_config();
    cc.threads = threads;
    cc.retry.max_retries = 2;
    cc.quarantine.enabled = true;
    const atlas::Campaign campaign(fleet, registry, model, cc, &schedule);
    atlas::CampaignTelemetry telemetry;
    const auto ds = campaign.run(telemetry);
    EXPECT_LT(ds.size(), campaign.expected_record_count()) << threads;
    EXPECT_GT(telemetry.retries, 0u) << threads;
    EXPECT_GT(telemetry.quarantined_ticks + telemetry.hang_ticks, 0u)
        << threads;
    if (threads == 1) reference = dataset_checksum(ds);
    EXPECT_EQ(dataset_checksum(ds), reference) << threads;
  }
}

TEST(CampaignSlices, TinyFleetsWithEmptyShardsAreThreadInvariant) {
  // Ceiling-division chunking: 5 probes on 4 threads gives shards of
  // 2, 2, 1 and 0 probes; 9 on 4 gives 3, 3, 3 and 0.
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;
  const auto full = small_fleet();
  for (const std::size_t probes : {std::size_t{1}, std::size_t{5},
                                   std::size_t{9}}) {
    const auto fleet = atlas::ProbeFleet::from_probes(
        {full.probes().begin(),
         full.probes().begin() + static_cast<std::ptrdiff_t>(probes)});
    for (const bool batched : {false, true}) {
      std::uint64_t reference = 0;
      std::size_t rows = 0;
      for (const unsigned threads : {1u, 3u, 4u, 8u}) {
        atlas::CampaignConfig cc = small_config();
        cc.threads = threads;
        cc.probe_uptime = 0.9;
        const atlas::Campaign campaign(fleet, registry, model, cc);
        const auto ds = batched ? campaign.run() : reference_run(campaign);
        if (threads == 1) {
          reference = dataset_checksum(ds);
          rows = ds.size();
        }
        EXPECT_EQ(dataset_checksum(ds), reference)
            << probes << " probes, " << threads << " threads, batched "
            << batched;
        EXPECT_EQ(ds.size(), rows);
      }
    }
  }
}

TEST(PathCacheTest, EntriesMatchRecomputingModel) {
  const auto fleet = small_fleet();
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;
  const atlas::PathCache cache(fleet, registry, model, 2);

  ASSERT_EQ(cache.probe_count(), fleet.size());
  ASSERT_EQ(cache.region_count(), registry.regions().size());
  EXPECT_FALSE(cache.empty());
  EXPECT_GT(cache.memory_bytes(), 0u);

  for (const atlas::ProbeId probe : {atlas::ProbeId{0}, atlas::ProbeId{17},
                                     atlas::ProbeId{255}}) {
    const net::Endpoint& src = fleet.probe(probe).endpoint;
    const net::CachedProfile expected_profile = model.cache_profile(src);
    const net::CachedProfile& profile = cache.profile(probe);
    EXPECT_EQ(profile.combined_loss, expected_profile.combined_loss);
    EXPECT_EQ(profile.log_spread, expected_profile.log_spread);
    EXPECT_EQ(profile.profile.median_ms, expected_profile.profile.median_ms);

    const net::CachedPath* row = cache.paths(probe);
    for (std::uint16_t r = 0; r < cache.region_count(); ++r) {
      const topology::CloudRegion& dst = *registry.regions()[r];
      const net::CachedPath expected = model.cache_path(src, dst);
      // The flat row-major matrix and the (probe, region) accessor must
      // agree with a fresh recompute.
      EXPECT_EQ(row[r].base_rtt_ms, expected.base_rtt_ms);
      EXPECT_EQ(cache.path(probe, r).base_rtt_ms, expected.base_rtt_ms);
      EXPECT_EQ(row[r].excess_median_ms, expected.excess_median_ms);
      // And with the original entry point the cache hoists.
      EXPECT_EQ(row[r].base_rtt_ms, model.path_to(src, dst).base_rtt_ms());
    }
  }
}

TEST(CachedSampling, PingCachedMatchesPingPerturbedStream) {
  const auto fleet = small_fleet();
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;
  const net::Endpoint& src = fleet.probe(42).endpoint;
  const topology::CloudRegion& dst = *registry.regions()[3];
  const net::CachedPath path = model.cache_path(src, dst);
  const net::CachedProfile profile = model.cache_profile(src);

  stats::Xoshiro256 a(1234);
  stats::Xoshiro256 b(1234);
  for (int burst = 0; burst < 2000; ++burst) {
    const double load = 0.5 + 0.001 * burst;
    net::Perturbation pert;
    if (burst % 3 == 1) pert = {1.4, 2.0, 0.05};   // faulted burst
    if (burst % 3 == 2) pert = {1.0, -5.0, 0.0};   // negative clock skew
    const net::PingResult expected = net::detail::aggregate_burst(
        3, [&] { return model.ping_once(src, dst, a, load, pert); });
    const net::PingResult got =
        model.ping_cached(path, profile, 3, load, pert, b);
    ASSERT_EQ(got.sent, expected.sent) << "burst " << burst;
    ASSERT_EQ(got.received, expected.received) << "burst " << burst;
    ASSERT_EQ(got.min_ms, expected.min_ms) << "burst " << burst;
    ASSERT_EQ(got.avg_ms, expected.avg_ms) << "burst " << burst;
    ASSERT_EQ(got.max_ms, expected.max_ms) << "burst " << burst;
  }
  // Identical draw counts: the streams stay aligned to the last bit.
  EXPECT_EQ(a.next(), b.next());
}

TEST(HoistedBurstMath, CachedProfileCombinesLossesAsIndependentEvents) {
  // Every probe of the fleet under several core loss rates: on a single
  // probe, p + c - p*c and its reorderings can round alike.
  const auto fleet = small_fleet();
  for (const double core_loss : {0.0, 0.001, 0.003, 0.0137, 0.05, 0.2}) {
    net::LatencyModelConfig config;
    config.core_loss_rate = core_loss;
    const net::LatencyModel model(config);
    for (const atlas::Probe& probe : fleet.probes()) {
      const net::AccessProfile access = model.access_profile_of(probe.endpoint);
      const net::CachedProfile cached = model.cache_profile(probe.endpoint);
      const double p = access.loss_rate;
      const double c = model.config().core_loss_rate;
      ASSERT_EQ(cached.combined_loss, p + c - p * c)
          << "probe " << probe.id << " core_loss_rate " << c;
      ASSERT_EQ(cached.log_spread,
                stats::lognormal_sigma_of_spread(access.spread));
      ASSERT_EQ(cached.profile.median_ms, access.median_ms);
    }
  }
}

TEST(HoistedBurstMath, CachedPathPrecomputesExcessMedian) {
  const auto fleet = small_fleet();
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;
  const net::Endpoint& src = fleet.probe(9).endpoint;
  const topology::CloudRegion& dst = *registry.regions()[0];
  const net::CachedPath cached = model.cache_path(src, dst);
  const double base = model.path_to(src, dst).base_rtt_ms();
  EXPECT_EQ(cached.base_rtt_ms, base);
  EXPECT_EQ(cached.excess_median_ms, base * model.config().excess_fraction);
}

TEST(HoistedBurstMath, BurstStateAppliesLoadAndPerturbation) {
  net::CachedPath path;
  path.base_rtt_ms = 40.0;
  path.excess_median_ms = 7.2;
  net::CachedProfile profile;
  profile.profile.median_ms = 12.0;
  profile.profile.bloat_probability = 0.3;
  profile.profile.bloat_scale_ms = 80.0;
  profile.combined_loss = 0.02;
  profile.log_spread = 0.55;

  const net::Perturbation pert{1.5, 3.0, 0.1};
  const auto s =
      net::detail::make_burst_state(path, profile, 2.0, pert, 0.74);
  EXPECT_EQ(s.median_ms, 24.0);            // median scales with load
  EXPECT_EQ(s.bloat_probability, 0.6);     // bloat scales with load...
  EXPECT_EQ(s.loss, 0.02 + 0.1 - 0.02 * 0.1);
  EXPECT_EQ(s.latency_scale, 1.5);
  EXPECT_EQ(s.offset_ms, 3.0);
  EXPECT_EQ(s.excess_sigma, 0.74);

  // ...and clamps at 1 under extreme load.
  const auto clamped =
      net::detail::make_burst_state(path, profile, 10.0, pert, 0.74);
  EXPECT_EQ(clamped.bloat_probability, 1.0);
}

}  // namespace
}  // namespace shears
