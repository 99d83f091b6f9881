// Unit tests for the §4 analyses over hand-built micro-datasets with
// exactly known answers, plus invariants on generated data and the
// byte-determinism of the sharded record scans across thread counts.
#include <gtest/gtest.h>

#include <atomic>

#include "atlas/campaign.hpp"
#include "atlas/measurement.hpp"
#include "atlas/placement.hpp"
#include "core/access_comparison.hpp"
#include "core/analysis.hpp"
#include "core/parallel.hpp"
#include "net/latency_model.hpp"
#include "topology/registry.hpp"

namespace shears::core {
namespace {

using atlas::Environment;
using atlas::Measurement;
using atlas::Probe;
using atlas::ProbeFleet;

Probe make_probe(atlas::ProbeId id, std::string_view iso2,
                 net::AccessTechnology access, Environment env, bool tagged) {
  Probe p;
  p.id = id;
  p.country = geo::find_country(iso2);
  EXPECT_NE(p.country, nullptr) << iso2;
  p.endpoint.location = p.country->site;
  p.endpoint.tier = p.country->tier;
  p.endpoint.access = access;
  p.environment = env;
  p.tags = atlas::make_tags(access, env, tagged);
  return p;
}

Measurement make_record(atlas::ProbeId probe, std::uint16_t region,
                        std::uint32_t tick, float min_ms) {
  Measurement m;
  m.probe_id = probe;
  m.region_index = region;
  m.tick = tick;
  m.min_ms = min_ms;
  m.avg_ms = min_ms + 1.0f;
  m.max_ms = min_ms + 2.0f;
  m.sent = 3;
  m.received = 3;
  return m;
}

Measurement make_lost(atlas::ProbeId probe, std::uint16_t region,
                      std::uint32_t tick) {
  Measurement m;
  m.probe_id = probe;
  m.region_index = region;
  m.tick = tick;
  m.sent = 3;
  m.received = 0;
  return m;
}

class MicroDatasetTest : public ::testing::Test {
 protected:
  MicroDatasetTest()
      : registry_(topology::CloudRegistry::campaign_footprint()),
        fleet_(ProbeFleet::from_probes(build_probes())) {}

  static std::vector<Probe> build_probes() {
    std::vector<Probe> probes;
    // 0: German wired (ethernet, tagged), 1: German wireless (lte, tagged),
    // 2: German privileged (datacentre), 3: French untagged,
    // 4: Chadian wired (tagged).
    probes.push_back(make_probe(0, "DE", net::AccessTechnology::kEthernet,
                                Environment::kHome, true));
    probes.push_back(make_probe(1, "DE", net::AccessTechnology::kLte,
                                Environment::kHome, true));
    probes.push_back(make_probe(2, "DE", net::AccessTechnology::kEthernet,
                                Environment::kDatacenter, true));
    probes.push_back(make_probe(3, "FR", net::AccessTechnology::kCable,
                                Environment::kHome, false));
    probes.push_back(make_probe(4, "TD", net::AccessTechnology::kEthernet,
                                Environment::kHome, true));
    return probes;
  }

  atlas::MeasurementDataset make_dataset(atlas::Records records) {
    return atlas::MeasurementDataset(&fleet_, &registry_, std::move(records));
  }

  topology::CloudRegistry registry_;
  ProbeFleet fleet_;
};

TEST_F(MicroDatasetTest, CountryMinPicksGlobalMinimum) {
  const auto dataset = make_dataset({
      make_record(0, 5, 0, 12.0f),
      make_record(0, 6, 1, 8.0f),
      make_record(1, 5, 0, 30.0f),
      make_record(4, 7, 0, 140.0f),
  });
  const auto rows = country_min_latency(dataset);
  ASSERT_EQ(rows.size(), 2u);  // DE and TD
  const auto* de = rows[0].country->iso2 == "DE" ? &rows[0] : &rows[1];
  const auto* td = rows[0].country->iso2 == "TD" ? &rows[0] : &rows[1];
  EXPECT_DOUBLE_EQ(de->min_rtt_ms, 8.0);
  EXPECT_EQ(de->best_region, registry_.regions()[6]);
  EXPECT_EQ(de->probe_count, 2u);  // wired + wireless, privileged absent
  EXPECT_DOUBLE_EQ(td->min_rtt_ms, 140.0);
}

TEST_F(MicroDatasetTest, PrivilegedProbesAreExcludedByDefault) {
  const auto dataset = make_dataset({
      make_record(2, 5, 0, 0.5f),   // datacentre probe: absurdly fast
      make_record(0, 5, 0, 9.0f),
  });
  const auto rows = country_min_latency(dataset);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].min_rtt_ms, 9.0);

  AnalysisOptions keep_all;
  keep_all.exclude_privileged = false;
  const auto rows_all = country_min_latency(dataset, keep_all);
  EXPECT_DOUBLE_EQ(rows_all[0].min_rtt_ms, 0.5);
}

TEST_F(MicroDatasetTest, LostBurstsDoNotContribute) {
  const auto dataset = make_dataset({
      make_lost(0, 5, 0),
      make_record(0, 5, 1, 11.0f),
  });
  const auto rows = country_min_latency(dataset);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].min_rtt_ms, 11.0);
}

TEST_F(MicroDatasetTest, AllLostCountryIsDropped) {
  const auto dataset = make_dataset({make_lost(4, 7, 0)});
  EXPECT_TRUE(country_min_latency(dataset).empty());
}

TEST_F(MicroDatasetTest, BandingBoundaries) {
  std::vector<CountryMinLatency> rows(5);
  rows[0].min_rtt_ms = 9.99;
  rows[1].min_rtt_ms = 10.0;
  rows[2].min_rtt_ms = 19.99;
  rows[3].min_rtt_ms = 99.99;
  rows[4].min_rtt_ms = 100.0;
  const LatencyBands bands = band_country_latencies(rows);
  EXPECT_EQ(bands.under_10, 1u);
  EXPECT_EQ(bands.from_10_to_20, 2u);
  EXPECT_EQ(bands.from_50_to_100, 1u);
  EXPECT_EQ(bands.over_100, 1u);
  EXPECT_EQ(bands.total(), 5u);
  EXPECT_EQ(bands.under_100(), 4u);
}

TEST_F(MicroDatasetTest, PerProbeBestTracksArgmin) {
  const auto dataset = make_dataset({
      make_record(0, 5, 0, 12.0f),
      make_record(0, 6, 1, 7.5f),
      make_record(0, 5, 2, 9.0f),
  });
  const auto best = per_probe_best(dataset);
  ASSERT_EQ(best.size(), fleet_.size());
  EXPECT_TRUE(best[0].valid);
  EXPECT_EQ(best[0].region_index, 6u);
  EXPECT_DOUBLE_EQ(best[0].min_ms, 7.5);
  EXPECT_FALSE(best[3].valid);  // no measurements
}

TEST_F(MicroDatasetTest, MinRttGroupsByContinent) {
  const auto dataset = make_dataset({
      make_record(0, 5, 0, 12.0f),
      make_record(4, 7, 0, 140.0f),
  });
  const auto by_continent = min_rtt_by_continent(dataset);
  EXPECT_EQ(by_continent[geo::index_of(geo::Continent::kEurope)].size(), 1u);
  EXPECT_EQ(by_continent[geo::index_of(geo::Continent::kAfrica)].size(), 1u);
  EXPECT_DOUBLE_EQ(
      by_continent[geo::index_of(geo::Continent::kAfrica)].front(), 140.0);
}

TEST_F(MicroDatasetTest, BestRegionSamplesOnlyFromBestRegion) {
  const auto dataset = make_dataset({
      make_record(0, 5, 0, 12.0f),  // region 5: worse
      make_record(0, 6, 1, 7.5f),   // region 6: best
      make_record(0, 6, 2, 9.5f),
      make_record(0, 5, 3, 8.0f),   // still region 5 -> excluded
  });
  const auto samples = best_region_samples_by_continent(dataset);
  const auto& eu = samples[geo::index_of(geo::Continent::kEurope)];
  ASSERT_EQ(eu.size(), 2u);
  EXPECT_DOUBLE_EQ(eu[0], 7.5);
  EXPECT_DOUBLE_EQ(eu[1], 9.5);
}

TEST_F(MicroDatasetTest, CoverageOfThresholds) {
  const ThresholdCoverage cov = coverage_of({5.0, 15.0, 50.0, 150.0, 300.0});
  EXPECT_EQ(cov.n, 5u);
  EXPECT_DOUBLE_EQ(cov.under_mtp, 0.4);
  EXPECT_DOUBLE_EQ(cov.under_pl, 0.6);
  EXPECT_DOUBLE_EQ(cov.under_hrt, 0.8);
  const ThresholdCoverage empty = coverage_of({});
  EXPECT_EQ(empty.n, 0u);
  EXPECT_DOUBLE_EQ(empty.under_pl, 0.0);
}

TEST_F(MicroDatasetTest, AccessComparisonPairsCountries) {
  // DE has both wired (0) and wireless (1) probes; TD has only wired, so
  // its records must be filtered out of the comparison.
  const auto dataset = make_dataset({
      make_record(0, 6, 0, 10.0f),
      make_record(0, 6, 8, 12.0f),
      make_record(1, 6, 0, 25.0f),
      make_record(1, 6, 8, 27.0f),
      make_record(4, 7, 0, 140.0f),
  });
  const AccessComparison cmp = compare_access(dataset);
  EXPECT_EQ(cmp.wired_probe_count, 1u);
  EXPECT_EQ(cmp.wireless_probe_count, 1u);
  ASSERT_EQ(cmp.wired.size(), 2u);
  ASSERT_EQ(cmp.wireless.size(), 2u);
  EXPECT_DOUBLE_EQ(cmp.wired_median, 11.0);
  EXPECT_DOUBLE_EQ(cmp.wireless_median, 26.0);
  EXPECT_NEAR(cmp.median_ratio, 26.0 / 11.0, 1e-12);
  EXPECT_DOUBLE_EQ(cmp.added_latency_ms, 15.0);
  // Two time buckets (ticks 0 and 8 with bucket_ticks=8).
  EXPECT_EQ(cmp.wired_over_time.size(), 2u);
  EXPECT_EQ(cmp.wireless_over_time.size(), 2u);
}

TEST_F(MicroDatasetTest, PopulationCoverageWeightsByPopulation) {
  // Germany (83.2M) fast, Chad (16.4M) slow: shares must reflect the
  // population weights, not the country counts.
  const auto dataset = make_dataset({
      make_record(0, 5, 0, 8.0f),    // DE under MTP
      make_record(4, 7, 0, 140.0f),  // TD over PL, under HRT
  });
  const auto cov = population_coverage(country_min_latency(dataset));
  const double world = geo::world_population_m();
  EXPECT_GT(world, 7000.0);  // ~7.7B
  EXPECT_LT(world, 8500.0);
  EXPECT_NEAR(cov.measured_population_m, 83.2 + 16.4, 1e-6);
  EXPECT_NEAR(cov.under_mtp, 83.2 / world, 1e-9);
  EXPECT_NEAR(cov.under_pl, 83.2 / world, 1e-9);
  EXPECT_NEAR(cov.under_hrt, (83.2 + 16.4) / world, 1e-9);
}

TEST_F(MicroDatasetTest, ServerSideViewGroupsByServingRegion) {
  const auto dataset = make_dataset({
      make_record(0, 5, 0, 10.0f),  // probe 0's best is region 5
      make_record(0, 5, 1, 12.0f),
      make_record(1, 5, 0, 30.0f),  // probe 1 also served by region 5
      make_record(4, 7, 0, 140.0f), // probe 4 served by region 7
      make_record(4, 6, 1, 150.0f), // worse region: excluded from views
  });
  const auto views = server_side_view(dataset);
  ASSERT_EQ(views.size(), 2u);
  // Ordered by client count: region 5 (2 clients) first.
  EXPECT_EQ(views[0].region, registry_.regions()[5]);
  EXPECT_EQ(views[0].clients, 2u);
  EXPECT_EQ(views[0].samples, 3u);
  EXPECT_DOUBLE_EQ(views[0].median_ms, 12.0);
  EXPECT_NEAR(views[0].under_40ms, 1.0, 1e-9);
  EXPECT_EQ(views[1].region, registry_.regions()[7]);
  EXPECT_EQ(views[1].clients, 1u);
  EXPECT_DOUBLE_EQ(views[1].under_40ms, 0.0);
}

TEST_F(MicroDatasetTest, DiurnalProfileBucketsByLocalHour) {
  // German probe (lon ~8.7 -> local = UTC + ~0.6h). Tick 0 = 00:00 UTC
  // (local hour 0), tick 4 = 12:00 UTC (local hour 12). Interval 3 h.
  const auto dataset = make_dataset({
      make_record(0, 5, 0, 10.0f),
      make_record(0, 5, 8, 12.0f),   // tick 8 -> 24h -> 00:00 again
      make_record(0, 5, 4, 30.0f),
      make_record(0, 5, 12, 34.0f),  // tick 12 -> 36h -> 12:00 again
  });
  const DiurnalProfile profile = diurnal_profile(dataset, 3);
  EXPECT_EQ(profile.count[0], 2u);
  EXPECT_EQ(profile.count[12], 2u);
  EXPECT_DOUBLE_EQ(profile.median_ms[0], 11.0);
  EXPECT_DOUBLE_EQ(profile.median_ms[12], 32.0);
  EXPECT_EQ(profile.peak_hour(), 12);
  EXPECT_NEAR(profile.peak_to_trough(), 32.0 / 11.0, 1e-9);
}

TEST_F(MicroDatasetTest, DiurnalProfileEmptyDataset) {
  const auto dataset = make_dataset({});
  const DiurnalProfile profile = diurnal_profile(dataset, 3);
  EXPECT_EQ(profile.peak_hour(), -1);
  EXPECT_DOUBLE_EQ(profile.peak_to_trough(), 1.0);
}

TEST_F(MicroDatasetTest, UntaggedProbesDropOutOfComparison) {
  const auto dataset = make_dataset({
      make_record(3, 5, 0, 9.0f),  // FR untagged
  });
  const AccessComparison cmp = compare_access(dataset);
  EXPECT_TRUE(cmp.wired.empty());
  EXPECT_TRUE(cmp.wireless.empty());
  EXPECT_DOUBLE_EQ(cmp.median_ratio, 0.0);
}

// ---- core/parallel.hpp units -------------------------------------------

TEST(ParallelHelpers, ResolveThreadsCapsByUsefulWork) {
  // Tiny inputs collapse to a single (calling-thread) shard regardless of
  // the request; large inputs honour it.
  EXPECT_EQ(resolve_threads(8, 100), 1u);
  EXPECT_EQ(resolve_threads(8, (1u << 14) * 2), 2u);
  EXPECT_EQ(resolve_threads(8, (1u << 14) * 100), 8u);
  EXPECT_EQ(resolve_threads(1, (1u << 14) * 100), 1u);
  EXPECT_GE(resolve_threads(0, (1u << 14) * 100), 1u);  // auto
}

TEST(ParallelHelpers, ParallelShardsCoversRangeContiguously) {
  // Every index appears exactly once and shard ranges are contiguous and
  // ordered — the property the order-deterministic merges rely on.
  constexpr std::size_t kItems = 1000;
  constexpr std::size_t kShards = 7;
  std::vector<int> owner(kItems, -1);
  std::vector<std::pair<std::size_t, std::size_t>> ranges(kShards);
  parallel_shards(kItems, kShards,
                  [&](std::size_t shard, std::size_t begin, std::size_t end) {
                    ranges[shard] = {begin, end};
                    for (std::size_t i = begin; i < end; ++i) {
                      owner[i] = static_cast<int>(shard);
                    }
                  });
  std::size_t expected_begin = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(ranges[s].first, expected_begin);
    expected_begin = ranges[s].second;
  }
  EXPECT_EQ(expected_begin, kItems);
  for (std::size_t i = 1; i < kItems; ++i) {
    EXPECT_LE(owner[i - 1], owner[i]);  // contiguous, ordered shards
  }
}

TEST(ParallelHelpers, LargestFirstRunsEveryUnitOnce) {
  // Skewed weights with ties; every thread count, including more
  // threads than units and no units at all, runs each unit exactly once.
  std::vector<std::uint64_t> weights(97);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = i == 40 ? 1'000'000 : (i * 7919) % 13;
  }
  for (const std::size_t threads : {std::size_t{0}, std::size_t{1},
                                    std::size_t{3}, std::size_t{8},
                                    std::size_t{200}}) {
    std::vector<std::atomic<int>> runs(weights.size());
    parallel_largest_first(weights, threads, [&](std::size_t unit) {
      runs[unit].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "unit " << i << ", threads " << threads;
    }
  }
  int calls = 0;
  parallel_largest_first({}, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelHelpers, BitmapTestSetMergeCount) {
  Bitmap a(200);
  EXPECT_FALSE(a.test_set(0));
  EXPECT_TRUE(a.test_set(0));  // second set reports prior membership
  EXPECT_FALSE(a.test_set(63));
  EXPECT_FALSE(a.test_set(64));  // word boundary
  EXPECT_FALSE(a.test_set(199));
  EXPECT_EQ(a.count(), 4u);
  Bitmap b(200);
  b.test_set(64);   // overlaps a
  b.test_set(100);  // new
  a.merge(b);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_TRUE(a.test(100));
  EXPECT_FALSE(a.test(101));
}

// ---- thread-invariance over a generated campaign -----------------------

class ThreadInvarianceTest : public ::testing::Test {
 protected:
  // 256 probes x 512 ticks = 131072 records: enough that resolve_threads
  // grants all 8 requested shards (16384 records each).
  static const atlas::MeasurementDataset& dataset() {
    static const atlas::MeasurementDataset data = [] {
      atlas::PlacementConfig placement;
      placement.probe_count = 256;
      placement.seed = 5;
      static const auto fleet = atlas::ProbeFleet::generate(placement);
      static const auto registry =
          topology::CloudRegistry::campaign_footprint();
      static const net::LatencyModel model;
      atlas::CampaignConfig config;
      config.duration_days = 64;
      config.seed = 7;
      config.threads = 1;
      return atlas::Campaign(fleet, registry, model, config).run();
    }();
    return data;
  }

  static AnalysisOptions with_threads(std::size_t threads) {
    AnalysisOptions options;
    options.threads = threads;
    return options;
  }
};

TEST_F(ThreadInvarianceTest, CountryMinLatencyIsThreadInvariant) {
  const auto reference = country_min_latency(dataset(), with_threads(1));
  ASSERT_FALSE(reference.empty());
  for (const std::size_t threads : {2u, 8u}) {
    const auto rows = country_min_latency(dataset(), with_threads(threads));
    ASSERT_EQ(rows.size(), reference.size()) << threads << " threads";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].country, reference[i].country);
      EXPECT_EQ(rows[i].min_rtt_ms, reference[i].min_rtt_ms);  // bitwise
      EXPECT_EQ(rows[i].best_region, reference[i].best_region);
      EXPECT_EQ(rows[i].probe_count, reference[i].probe_count);
    }
  }
}

TEST_F(ThreadInvarianceTest, PerProbeBestIsThreadInvariant) {
  const auto reference = per_probe_best(dataset(), with_threads(1));
  for (const std::size_t threads : {2u, 8u}) {
    const auto best = per_probe_best(dataset(), with_threads(threads));
    ASSERT_EQ(best.size(), reference.size());
    for (std::size_t i = 0; i < best.size(); ++i) {
      EXPECT_EQ(best[i].probe_id, reference[i].probe_id);
      EXPECT_EQ(best[i].valid, reference[i].valid);
      EXPECT_EQ(best[i].region_index, reference[i].region_index);
      EXPECT_EQ(best[i].min_ms, reference[i].min_ms);  // bitwise
    }
  }
}

TEST_F(ThreadInvarianceTest, ContinentSamplesKeepSequentialOrder) {
  const auto reference =
      best_region_samples_by_continent(dataset(), with_threads(1));
  for (const std::size_t threads : {2u, 8u}) {
    const auto samples =
        best_region_samples_by_continent(dataset(), with_threads(threads));
    for (std::size_t c = 0; c < geo::kContinentCount; ++c) {
      EXPECT_EQ(samples[c], reference[c]) << "continent " << c << ", "
                                          << threads << " threads";
    }
  }
}

TEST_F(ThreadInvarianceTest, ServerSideViewIsThreadInvariant) {
  const auto reference = server_side_view(dataset(), with_threads(1));
  ASSERT_FALSE(reference.empty());
  for (const std::size_t threads : {2u, 8u}) {
    const auto views = server_side_view(dataset(), with_threads(threads));
    ASSERT_EQ(views.size(), reference.size());
    for (std::size_t i = 0; i < views.size(); ++i) {
      EXPECT_EQ(views[i].region, reference[i].region);
      EXPECT_EQ(views[i].clients, reference[i].clients);
      EXPECT_EQ(views[i].samples, reference[i].samples);
      EXPECT_EQ(views[i].median_ms, reference[i].median_ms);
      EXPECT_EQ(views[i].p90_ms, reference[i].p90_ms);
      EXPECT_EQ(views[i].under_40ms, reference[i].under_40ms);
    }
  }
}

TEST_F(ThreadInvarianceTest, AccessComparisonIsThreadInvariant) {
  AccessComparisonOptions options;
  options.threads = 1;
  const AccessComparison reference = compare_access(dataset(), options);
  for (const std::size_t threads : {2u, 8u}) {
    options.threads = threads;
    const AccessComparison cmp = compare_access(dataset(), options);
    EXPECT_EQ(cmp.wired, reference.wired);
    EXPECT_EQ(cmp.wireless, reference.wireless);
    EXPECT_EQ(cmp.wired_over_time, reference.wired_over_time);
    EXPECT_EQ(cmp.wireless_over_time, reference.wireless_over_time);
    EXPECT_EQ(cmp.wired_probe_count, reference.wired_probe_count);
    EXPECT_EQ(cmp.wireless_probe_count, reference.wireless_probe_count);
    EXPECT_EQ(cmp.wired_median, reference.wired_median);
    EXPECT_EQ(cmp.wireless_median, reference.wireless_median);
  }
}

}  // namespace
}  // namespace shears::core
