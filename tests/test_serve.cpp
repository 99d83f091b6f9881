// The serving layer: spatial index exactness, columnar-store build /
// append identity, the campaign sink hook, oracle semantics, and — on
// every shipped scenario — byte-identity of the indexed oracle against
// the brute-force full-scan reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "atlas/campaign.hpp"
#include "atlas/measurement.hpp"
#include "atlas/placement.hpp"
#include "atlas/tags.hpp"
#include "config/scenario.hpp"
#include "faults/fault_schedule.hpp"
#include "geo/coordinates.hpp"
#include "geo/country.hpp"
#include "geo/spatial_index.hpp"
#include "net/latency_model.hpp"
#include "obs/metrics.hpp"
#include "serve/columnar.hpp"
#include "serve/oracle.hpp"
#include "serve/reference.hpp"
#include "serve/snapshot.hpp"
#include "topology/registry.hpp"

namespace shears::serve {
namespace {

// ---------------------------------------------------------------- spatial

TEST(SpatialIndex, EmptyIndexAnswersEmpty) {
  const geo::SpatialIndex index{};
  EXPECT_FALSE(index.nearest({0.0, 0.0}).has_value());
  EXPECT_TRUE(index.nearest_n({0.0, 0.0}, 3).empty());
  EXPECT_TRUE(index.within_radius({0.0, 0.0}, 1000.0).empty());
}

TEST(SpatialIndex, InvalidPointThrowsAtBuild) {
  const std::vector<geo::GeoPoint> points = {{91.0, 0.0}};
  EXPECT_THROW(geo::SpatialIndex{points}, std::invalid_argument);
}

TEST(SpatialIndex, AntimeridianIsNotASeam) {
  // 0.5° either side of the antimeridian is ~111 km of real distance;
  // an index over raw longitude would see ~39 900 km.
  const std::vector<geo::GeoPoint> points = {
      {0.0, 179.5}, {0.0, -179.5}, {0.0, 0.0}};
  const geo::SpatialIndex index(points);

  const auto east = index.nearest({0.0, 179.9});
  ASSERT_TRUE(east.has_value());
  EXPECT_EQ(east->id, 0u);
  EXPECT_LT(east->distance_km, 50.0);

  const auto west = index.nearest({0.0, -179.9});
  ASSERT_TRUE(west.has_value());
  EXPECT_EQ(west->id, 1u);
  EXPECT_LT(west->distance_km, 50.0);

  // Both seam points sit within 120 km of a query on the line itself
  // (their distances differ only in the last float bits, so assert the
  // set, not the order).
  auto both = index.within_radius({0.0, 180.0}, 120.0);
  ASSERT_EQ(both.size(), 2u);
  std::sort(both.begin(), both.end(),
            [](const geo::SpatialHit& a, const geo::SpatialHit& b) {
              return a.id < b.id;
            });
  EXPECT_EQ(both[0].id, 0u);
  EXPECT_EQ(both[1].id, 1u);
}

TEST(SpatialIndex, PolesCollapseLongitude) {
  // At 89.9°N every longitude is within ~11 km of the pole.
  const std::vector<geo::GeoPoint> points = {
      {89.9, 0.0}, {89.9, 180.0}, {-89.9, 90.0}, {10.0, 10.0}};
  const geo::SpatialIndex index(points);

  const auto north = index.within_radius({90.0, 45.0}, 50.0);
  ASSERT_EQ(north.size(), 2u);
  EXPECT_EQ(north[0].id, 0u);
  EXPECT_EQ(north[1].id, 1u);

  const auto south = index.nearest({-90.0, -123.0});
  ASSERT_TRUE(south.has_value());
  EXPECT_EQ(south->id, 2u);
  EXPECT_LT(south->distance_km, 50.0);
}

TEST(SpatialIndex, RadiusBoundaryIsInclusive) {
  const std::vector<geo::GeoPoint> points = {{0.0, 0.0}, {0.0, 1.0}};
  const geo::SpatialIndex index(points);
  const double edge = geo::haversine_km({0.0, 0.0}, {0.0, 1.0});
  const auto hits = index.within_radius({0.0, 0.0}, edge);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[1].id, 1u);
  EXPECT_EQ(hits[1].distance_km, edge);
}

TEST(SpatialIndex, DuplicatePointsTieBreakTowardsSmallerId) {
  const std::vector<geo::GeoPoint> points = {
      {10.0, 20.0}, {10.0, 20.0}, {10.0, 20.0}, {50.0, 60.0}};
  const geo::SpatialIndex index(points);
  const auto hit = index.nearest({10.0, 20.0});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->id, 0u);
  EXPECT_EQ(hit->distance_km, 0.0);
  const auto top = index.nearest_n({10.0, 20.0}, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].id, 0u);
  EXPECT_EQ(top[1].id, 1u);
  EXPECT_EQ(top[2].id, 2u);
}

// ---------------------------------------------------------------- store

atlas::Probe make_probe(atlas::ProbeId id, const char* iso2,
                        net::AccessTechnology access,
                        atlas::Environment environment) {
  atlas::Probe probe;
  probe.id = id;
  probe.country = geo::find_country(iso2);
  EXPECT_NE(probe.country, nullptr) << iso2;
  probe.endpoint.location = probe.country->site;
  probe.endpoint.tier = probe.country->tier;
  probe.endpoint.access = access;
  probe.environment = environment;
  probe.tags = atlas::make_tags(access, environment, true);
  return probe;
}

atlas::Measurement row(atlas::ProbeId probe, std::uint16_t region,
                       std::uint32_t tick, float min_ms,
                       std::uint8_t received = 3) {
  atlas::Measurement m;
  m.probe_id = probe;
  m.region_index = region;
  m.tick = tick;
  m.min_ms = min_ms;
  m.avg_ms = min_ms + 1.0f;
  m.max_ms = min_ms + 2.0f;
  m.sent = 3;
  m.received = received;
  return m;
}

/// A tiny fixed world: DE ethernet, DE LTE, FR ethernet, plus one
/// privileged DE probe the store must ignore.
struct TinyWorld {
  topology::CloudRegistry registry;
  atlas::ProbeFleet fleet;

  TinyWorld()
      : registry({topology::all_regions().data(),
                  topology::all_regions().data() + 1,
                  topology::all_regions().data() + 2}),
        fleet(atlas::ProbeFleet::from_probes({
            make_probe(0, "DE", net::AccessTechnology::kEthernet,
                       atlas::Environment::kHome),
            make_probe(1, "DE", net::AccessTechnology::kLte,
                       atlas::Environment::kHome),
            make_probe(2, "FR", net::AccessTechnology::kEthernet,
                       atlas::Environment::kHome),
            make_probe(3, "DE", net::AccessTechnology::kEthernet,
                       atlas::Environment::kDatacenter),
        })) {}
};

TEST(ColumnarStore, HandBuiltRowsYieldExactSummaries) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  const std::vector<atlas::Measurement> rows = {
      row(0, 0, 0, 20.0f), row(0, 0, 1, 10.0f), row(0, 0, 2, 40.0f),
      row(0, 0, 3, 30.0f),                     // DE/eth region 0
      row(1, 0, 0, 50.0f), row(1, 0, 1, 5.0f),  // DE/lte region 0
      row(2, 1, 0, 70.0f),                     // FR/eth region 1
      row(3, 0, 0, 1.0f),                      // privileged: dropped
      row(0, 1, 0, 90.0f, 0),                  // lost: dropped
  };
  store.append(rows);
  store.refresh();

  EXPECT_EQ(store.rows_stored(), 7u);
  EXPECT_EQ(store.rows_dropped(), 2u);
  EXPECT_EQ(store.shard_count(), 3u);

  const std::size_t de = country_index_of(geo::find_country("DE"));
  const auto eth = store.shard_stats(de, net::AccessTechnology::kEthernet);
  ASSERT_EQ(eth.size(), world.registry.size());
  EXPECT_EQ(eth[0].count, 4u);
  EXPECT_EQ(eth[0].min_ms, 10.0);
  EXPECT_EQ(eth[0].median_ms, 25.0);  // interp between 20 and 30
  EXPECT_EQ(eth[0].p95_ms, 38.5);     // h = 2.85 over {10,20,30,40}
  EXPECT_TRUE(eth[1].empty());        // the lost row never landed

  const auto lte = store.shard_stats(de, net::AccessTechnology::kLte);
  EXPECT_EQ(lte[0].count, 2u);
  EXPECT_EQ(lte[0].min_ms, 5.0);
  EXPECT_EQ(lte[0].median_ms, 27.5);

  // Country rollup = exact merge of the two access shards.
  const auto rollup = store.country_stats(de);
  EXPECT_EQ(rollup[0].count, 6u);
  EXPECT_EQ(rollup[0].min_ms, 5.0);
  EXPECT_EQ(rollup[0].median_ms, 25.0);  // {5,10,20,30,40,50}, h = 2.5
  EXPECT_EQ(rollup[0].p95_ms, 47.5);     // h = 4.75

  // Raw columns keep ingestion order within the shard.
  const auto shards = store.shards();
  ASSERT_EQ(shards.size(), 3u);
  const auto de_eth = std::find_if(
      shards.begin(), shards.end(), [](const ColumnarStore::ShardView& v) {
        return v.country == geo::find_country("DE") &&
               v.access == net::AccessTechnology::kEthernet;
      });
  ASSERT_NE(de_eth, shards.end());
  ASSERT_EQ(de_eth->rtt_ms.size(), 4u);
  EXPECT_EQ(de_eth->rtt_ms[0], 20.0f);
  EXPECT_EQ(de_eth->rtt_ms[3], 30.0f);
}

TEST(ColumnarStore, StaleStoreRefusesReads) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  store.append(std::vector<atlas::Measurement>{row(0, 0, 0, 20.0f)});
  EXPECT_FALSE(store.fresh());
  EXPECT_THROW((void)store.shard_stats(0, net::AccessTechnology::kEthernet),
               std::logic_error);
  EXPECT_THROW((void)store.country_stats(0), std::logic_error);
  store.refresh();
  EXPECT_TRUE(store.fresh());
}

TEST(ColumnarStore, UnresolvableRowThrows) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  EXPECT_THROW(
      store.append(std::vector<atlas::Measurement>{row(99, 0, 0, 20.0f)}),
      std::invalid_argument);
  EXPECT_THROW(
      store.append(std::vector<atlas::Measurement>{row(0, 200, 0, 20.0f)}),
      std::invalid_argument);
}

/// Bit-level equality of two summary tables: the four scalars and every
/// sample of every cell's sorted run.
void expect_same_cells(std::span<const RegionStats> a,
                       std::span<const RegionStats> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(a[r].count, b[r].count);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[r].min_ms),
              std::bit_cast<std::uint64_t>(b[r].min_ms));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[r].median_ms),
              std::bit_cast<std::uint64_t>(b[r].median_ms));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[r].p95_ms),
              std::bit_cast<std::uint64_t>(b[r].p95_ms));
    const std::vector<float>& sa = a[r].sorted;
    const std::vector<float>& sb = b[r].sorted;
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(sa[i]),
                std::bit_cast<std::uint32_t>(sb[i]))
          << "cell " << r << " sample " << i;
    }
  }
}

void expect_same_store(const ColumnarStore& a, const ColumnarStore& b) {
  ASSERT_EQ(a.rows_stored(), b.rows_stored());
  ASSERT_EQ(a.rows_dropped(), b.rows_dropped());
  const auto shards_a = a.shards();
  const auto shards_b = b.shards();
  ASSERT_EQ(shards_a.size(), shards_b.size());
  for (std::size_t s = 0; s < shards_a.size(); ++s) {
    EXPECT_EQ(shards_a[s].country, shards_b[s].country);
    EXPECT_EQ(shards_a[s].access, shards_b[s].access);
    ASSERT_EQ(shards_a[s].rtt_ms.size(), shards_b[s].rtt_ms.size());
    for (std::size_t i = 0; i < shards_a[s].rtt_ms.size(); ++i) {
      ASSERT_EQ(shards_a[s].probe_ids[i], shards_b[s].probe_ids[i]);
      ASSERT_EQ(shards_a[s].region_index[i], shards_b[s].region_index[i]);
      ASSERT_EQ(shards_a[s].ticks[i], shards_b[s].ticks[i]);
      ASSERT_EQ(shards_a[s].rtt_ms[i], shards_b[s].rtt_ms[i]);
    }
    const std::size_t country = country_index_of(shards_a[s].country);
    expect_same_cells(a.shard_stats(country, shards_a[s].access),
                      b.shard_stats(country, shards_b[s].access));
  }
  for (std::size_t c = 0; c < geo::country_count(); ++c) {
    expect_same_cells(a.country_stats(c), b.country_stats(c));
  }
}

/// A small but real campaign dataset for the identity tests.
struct CampaignWorld {
  topology::CloudRegistry registry = topology::CloudRegistry::campaign_footprint();
  atlas::ProbeFleet fleet;
  net::LatencyModel model;
  atlas::CampaignConfig config;

  CampaignWorld() : fleet(atlas::ProbeFleet::generate(small_fleet())), model(net::LatencyModelConfig{}) {
    config.duration_days = 1;
    config.interval_hours = 6;
    config.seed = 20200913;
  }

  static atlas::PlacementConfig small_fleet() {
    atlas::PlacementConfig p;
    p.probe_count = geo::country_count() + 40;
    p.seed = 7;
    return p;
  }

  [[nodiscard]] atlas::MeasurementDataset run() const {
    return atlas::Campaign(fleet, registry, model, config).run();
  }
};

TEST(ColumnarStore, AppendChunkingAndThreadCountAreInvisible) {
  const CampaignWorld world;
  const atlas::MeasurementDataset dataset = world.run();
  ASSERT_GT(dataset.size(), 0u);

  const ColumnarStore one_shot = ColumnarStore::build(dataset, StoreConfig{1});

  // N then M (uneven chunks, refresh mid-stream), 8 worker threads.
  ColumnarStore chunked(&dataset.fleet(), &dataset.registry(), StoreConfig{8});
  const auto rows = dataset.records();
  const std::size_t cut = rows.size() / 3 + 1;
  chunked.append(rows.subspan(0, cut));
  chunked.refresh();
  chunked.append(rows.subspan(cut));
  chunked.refresh();

  expect_same_store(one_shot, chunked);
}

std::string snapshot_image(const ColumnarStore& store) {
  std::ostringstream out(std::ios::binary);
  save_snapshot(store, out);
  return out.str();
}

TEST(ColumnarStore, ManySmallRefreshesMatchOneShotBuild) {
  // Four days: probes rotate through their regions, so a cell needs
  // several days to collect samples in more than one refresh.
  CampaignWorld world;
  world.config.duration_days = 4;
  const atlas::MeasurementDataset dataset = world.run();
  const auto probes = dataset.fleet().probes();
  const auto dropped = [&](const atlas::Measurement& m) {
    return m.lost() || probes[m.probe_id].privileged();
  };

  // Reorder so the stream opens shards and regions mid-way: every row of
  // one country and of the last region comes late; the dropped rows
  // (lost or privileged) ride between the halves as one chunk of their
  // own. Within each half rows go tick-major, so cells collect their
  // samples over several refreshes and merge into non-empty cells. The
  // one-shot reference ingests the same order.
  const auto first_kept =
      std::find_if_not(dataset.records().begin(), dataset.records().end(),
                       dropped);
  ASSERT_NE(first_kept, dataset.records().end());
  const geo::Country* late_country = probes[first_kept->probe_id].country;
  const auto late_region =
      static_cast<std::uint16_t>(dataset.registry().size() - 1);
  std::vector<atlas::Measurement> early;
  std::vector<atlas::Measurement> drop;
  std::vector<atlas::Measurement> late;
  for (const atlas::Measurement& m : dataset.records()) {
    if (dropped(m)) {
      drop.push_back(m);
    } else if (probes[m.probe_id].country == late_country ||
               m.region_index == late_region) {
      late.push_back(m);
    } else {
      early.push_back(m);
    }
  }
  ASSERT_FALSE(drop.empty());
  ASSERT_FALSE(late.empty());
  const auto by_tick = [](const atlas::Measurement& a,
                          const atlas::Measurement& b) {
    return a.tick < b.tick;
  };
  std::stable_sort(early.begin(), early.end(), by_tick);
  std::stable_sort(late.begin(), late.end(), by_tick);
  std::vector<atlas::Measurement> ordered = early;
  ordered.insert(ordered.end(), drop.begin(), drop.end());
  ordered.insert(ordered.end(), late.begin(), late.end());

  // Uneven chunks, a 1-row chunk every fourth, ~40 chunks per half.
  const auto chunk = [](std::span<const atlas::Measurement> rows) {
    std::vector<std::span<const atlas::Measurement>> chunks;
    const std::size_t mean = std::max<std::size_t>(1, rows.size() / 40);
    std::uint64_t lcg = 12345;
    for (std::size_t at = 0; at < rows.size();) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      const std::size_t want =
          chunks.size() % 4 == 3 ? 1 : 1 + (lcg >> 33) % (2 * mean);
      const std::size_t n = std::min(want, rows.size() - at);
      chunks.push_back(rows.subspan(at, n));
      at += n;
    }
    return chunks;
  };
  const auto early_chunks = chunk(early);
  const auto late_chunks = chunk(late);
  ASSERT_GE(early_chunks.size() + 1 + late_chunks.size(), 50u);

  ColumnarStore one_shot(&dataset.fleet(), &dataset.registry(),
                         StoreConfig{1});
  one_shot.append(ordered);
  one_shot.refresh();
  const std::string one_shot_image = snapshot_image(one_shot);
  const std::size_t late_country_idx = country_index_of(late_country);

  for (const std::size_t threads : {1u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ColumnarStore store(&dataset.fleet(), &dataset.registry(),
                        StoreConfig{threads});
    obs::MetricsRegistry metrics;
    store.attach_metrics(&metrics);
    const auto ingest = [&](std::span<const atlas::Measurement> rows) {
      store.append(rows);
      store.refresh();
      ASSERT_EQ(metrics.counter("serve.store.refreshed_rows").value(),
                store.rows_stored());
    };

    for (const auto rows : early_chunks) ingest(rows);
    const std::size_t early_shards = store.shard_count();
    EXPECT_TRUE(store.country_stats(late_country_idx).empty());
    std::size_t late_region_rows = 0;
    for (std::size_t c = 0; c < geo::country_count(); ++c) {
      const auto rollup = store.country_stats(c);
      if (!rollup.empty()) late_region_rows += rollup[late_region].count;
    }
    EXPECT_EQ(late_region_rows, 0u);

    store.append(drop);
    EXPECT_TRUE(store.fresh());
    EXPECT_EQ(store.rows_dropped(), drop.size());

    for (const auto rows : late_chunks) ingest(rows);
    EXPECT_GT(store.shard_count(), early_shards);
    EXPECT_FALSE(store.country_stats(late_country_idx).empty());

    expect_same_store(one_shot, store);
    EXPECT_EQ(snapshot_image(store), one_shot_image);
  }
}

TEST(ColumnarStore, SampleBytesGaugeIsEighteenBytesARow) {
  const CampaignWorld world;
  const atlas::MeasurementDataset dataset = world.run();
  ColumnarStore store(&dataset.fleet(), &dataset.registry(), StoreConfig{2});
  obs::MetricsRegistry metrics;
  store.attach_metrics(&metrics);
  store.append(dataset.records());
  store.refresh();
  ASSERT_TRUE(store.fresh());
  ASSERT_GT(store.rows_stored(), 0u);
  // 14 B of columns (probe id, region index, tick, RTT) plus the 4 B
  // float in the cell's sorted run, and no growth slack anywhere.
  EXPECT_EQ(metrics.gauge("serve.store.sample_bytes").value(),
            static_cast<double>(store.rows_stored() * (14 + 4)));
  for (std::size_t c = 0; c < geo::country_count(); ++c) {
    for (const RegionStats& cell : store.country_stats(c)) {
      EXPECT_TRUE(cell.sorted.empty()) << "rollups keep scalars only";
    }
  }
}

TEST(ColumnarStore, CampaignSinkMatchesOneShotBuild) {
  const CampaignWorld world;
  const atlas::MeasurementDataset dataset = world.run();

  ColumnarStore live(&world.fleet, &world.registry, StoreConfig{2});
  atlas::Campaign campaign(world.fleet, world.registry, world.model,
                           world.config);
  campaign.attach_sink(&live);
  const atlas::MeasurementDataset streamed = campaign.run();
  live.refresh();

  ASSERT_EQ(streamed.size(), dataset.size());
  const ColumnarStore built = ColumnarStore::build(dataset, StoreConfig{1});
  expect_same_store(built, live);
}

// ---------------------------------------------------------------- oracle

TEST(Oracle, CountryOverrideAndFailureModes) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  store.append(std::vector<atlas::Measurement>{
      row(0, 0, 0, 20.0f), row(0, 1, 0, 55.0f), row(2, 1, 0, 70.0f)});
  store.refresh();
  const Oracle oracle(&store, OracleConfig{1, {}});

  Query q;
  q.kind = QueryKind::kBestRtt;
  q.country_iso2 = "DE";
  Answer a = oracle.answer_one(q);
  EXPECT_TRUE(a.ok);
  EXPECT_EQ(a.country, geo::find_country("DE"));
  EXPECT_EQ(a.best_region, world.registry.regions()[0]);
  EXPECT_EQ(a.best_ms, 20.0);

  // A country with no data resolves but answers not-ok.
  q.country_iso2 = "JP";
  a = oracle.answer_one(q);
  EXPECT_FALSE(a.ok);
  EXPECT_EQ(a.country, geo::find_country("JP"));
  EXPECT_EQ(a.best_region, nullptr);

  // An unknown ISO-2 code cannot resolve at all.
  q.country_iso2 = "ZZ";
  a = oracle.answer_one(q);
  EXPECT_FALSE(a.ok);
  EXPECT_EQ(a.country, nullptr);

  // Unknown application slug: resolved country, no verdict.
  Query feas;
  feas.kind = QueryKind::kFeasibility;
  feas.country_iso2 = "DE";
  feas.app_id = "no-such-app";
  a = oracle.answer_one(feas);
  EXPECT_FALSE(a.ok);
  EXPECT_EQ(a.country, geo::find_country("DE"));
}

TEST(Oracle, LocationResolvesViaNearestEligibleProbe) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  store.append(std::vector<atlas::Measurement>{row(0, 0, 0, 20.0f),
                                               row(2, 1, 0, 70.0f)});
  store.refresh();
  const Oracle oracle(&store, OracleConfig{1, {}});

  Query q;
  q.kind = QueryKind::kBestRtt;
  q.where = geo::find_country("FR")->site;
  const Answer a = oracle.answer_one(q);
  EXPECT_TRUE(a.ok);
  EXPECT_EQ(a.country, geo::find_country("FR"));
  EXPECT_EQ(a.best_ms, 70.0);

  // Restricting to LTE re-routes resolution to the nearest LTE probe,
  // which lives in Germany — and DE has no LTE data for region 1.
  Query lte = q;
  lte.any_access = false;
  lte.access = net::AccessTechnology::kLte;
  const Answer b = oracle.answer_one(lte);
  EXPECT_EQ(b.country, geo::find_country("DE"));
  EXPECT_FALSE(b.ok);  // DE/LTE shard is empty
}

TEST(Oracle, TopKRespectsBudgetAndK) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  store.append(std::vector<atlas::Measurement>{
      row(0, 0, 0, 20.0f), row(0, 1, 0, 35.0f), row(0, 2, 0, 80.0f)});
  store.refresh();
  const Oracle oracle(&store, OracleConfig{1, {}});

  Query q;
  q.kind = QueryKind::kTopK;
  q.country_iso2 = "DE";
  q.budget_ms = 50.0;
  q.k = 5;
  Answer a = oracle.answer_one(q);
  EXPECT_TRUE(a.ok);
  ASSERT_EQ(a.regions.size(), 2u);  // 80 ms region is over budget
  EXPECT_EQ(a.regions[0].rtt_ms, 20.0);
  EXPECT_EQ(a.regions[1].rtt_ms, 35.0);

  q.k = 1;
  a = oracle.answer_one(q);
  ASSERT_EQ(a.regions.size(), 1u);
  EXPECT_EQ(a.regions[0].rtt_ms, 20.0);

  q.k = 0;
  a = oracle.answer_one(q);
  EXPECT_TRUE(a.ok);
  EXPECT_TRUE(a.regions.empty());
}

TEST(Oracle, BatchApiGuardRails) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  store.append(std::vector<atlas::Measurement>{row(0, 0, 0, 20.0f)});
  // Unrefreshed store: the oracle must refuse rather than serve stale
  // summaries.
  const Oracle oracle(&store, OracleConfig{1, {}});
  const std::vector<Query> queries(2);
  std::vector<Answer> out(2);
  EXPECT_THROW(oracle.answer(queries, out), std::logic_error);
  store.refresh();
  std::vector<Answer> short_out(1);
  EXPECT_THROW(oracle.answer(queries, short_out), std::invalid_argument);
  EXPECT_NO_THROW(oracle.answer(queries, out));
}

TEST(Oracle, StaleBatchesRecoverViaTryAnswerAndAutoRefresh) {
  const TinyWorld world;
  ColumnarStore store(&world.fleet, &world.registry, StoreConfig{1});
  store.append(std::vector<atlas::Measurement>{row(0, 0, 0, 20.0f)});

  const std::vector<Query> queries(1);
  std::vector<Answer> out(1);

  // A const-store oracle can only report the condition: try_answer
  // returns kStale and leaves the output span untouched.
  const ColumnarStore& frozen_store = store;
  const Oracle frozen(&frozen_store, OracleConfig{1, {}});
  out[0].best_ms = -1.0;
  EXPECT_EQ(frozen.try_answer(queries, out), BatchStatus::kStale);
  EXPECT_EQ(out[0].best_ms, -1.0);

  // auto_refresh over a const store is ignored, not silently enabled.
  const Oracle frozen_auto(&frozen_store, OracleConfig{1, {}, true});
  EXPECT_EQ(frozen_auto.try_answer(queries, out), BatchStatus::kStale);
  EXPECT_THROW(frozen_auto.answer(queries, out), std::logic_error);

  // A mutable-store oracle with auto_refresh absorbs live appends inside
  // the call — through both the throwing and non-throwing entry points.
  const Oracle live(&store, OracleConfig{1, {}, true});
  EXPECT_EQ(live.try_answer(queries, out), BatchStatus::kOk);
  EXPECT_TRUE(store.fresh());
  store.append(std::vector<atlas::Measurement>{row(1, 1, 1, 30.0f)});
  EXPECT_FALSE(store.fresh());
  EXPECT_NO_THROW(live.answer(queries, out));
  EXPECT_TRUE(store.fresh());

  // Without auto_refresh a mutable-store oracle still refuses; the store
  // owner decides when summaries move.
  store.append(std::vector<atlas::Measurement>{row(2, 1, 2, 40.0f)});
  const Oracle manual(&store, OracleConfig{1, {}});
  EXPECT_EQ(manual.try_answer(queries, out), BatchStatus::kStale);
  store.refresh();
  EXPECT_EQ(manual.try_answer(queries, out), BatchStatus::kOk);
}

TEST(Oracle, NearestRegionsMatchesRegistryScan) {
  const CampaignWorld world;
  const atlas::MeasurementDataset dataset = world.run();
  const ColumnarStore store = ColumnarStore::build(dataset, StoreConfig{1});
  const Oracle oracle(&store, OracleConfig{1, {}});

  const geo::GeoPoint query{48.1, 11.6};  // Munich
  const auto hits = oracle.nearest_regions(query, 3);
  const auto expected = world.registry.nearest_n(query, 3);
  ASSERT_EQ(hits.size(), expected.size());
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(world.registry.regions()[hits[i].id], expected[i].region);
  }
}

// ------------------------------------------------- shipped scenarios

/// Deterministic mixed query batch over a fleet: every kind, location
/// and ISO-2 resolution, per-access filters, real and bogus app slugs.
std::vector<Query> scenario_queries(const atlas::ProbeFleet& fleet) {
  static const char* kApps[] = {"cloud-gaming", "no-such-app"};
  std::vector<Query> queries;
  const std::span<const atlas::Probe> probes = fleet.probes();
  for (std::size_t i = 0; i < probes.size(); i += 3) {
    const atlas::Probe& probe = probes[i];
    Query q;
    q.kind = static_cast<QueryKind>(i % 3);
    q.where = probe.endpoint.location;
    if (i % 2 == 0) q.country_iso2 = probe.country->iso2;
    q.any_access = (i % 5) != 0;
    q.access = probe.endpoint.access;
    if (q.kind == QueryKind::kFeasibility) q.app_id = kApps[(i / 3) % 2];
    if (q.kind == QueryKind::kTopK) {
      q.budget_ms = 20.0 + static_cast<double>(i % 7) * 30.0;
      q.k = static_cast<std::uint32_t>(i % 6);
    }
    queries.push_back(q);
  }
  return queries;
}

class ScenarioOracle : public testing::TestWithParam<const char*> {};

TEST_P(ScenarioOracle, IndexedAnswersMatchFullScan) {
  const std::string path =
      std::string(SHEARS_SOURCE_DIR) + "/scenarios/" + GetParam();
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  config::Scenario s = config::parse_scenario(in);
  s.fleet.probe_count = std::min<std::size_t>(s.fleet.probe_count, 256);
  s.campaign.duration_days = 1;

  const topology::CloudRegistry registry = s.make_registry();
  const atlas::ProbeFleet fleet = atlas::ProbeFleet::generate(s.fleet);
  const net::LatencyModel model(s.model);
  const faults::FaultSchedule schedule = s.make_fault_schedule();
  const atlas::Campaign campaign(fleet, registry, model, s.campaign,
                                 schedule.empty() ? nullptr : &schedule);
  const atlas::MeasurementDataset dataset = campaign.run();
  ASSERT_GT(dataset.size(), 0u);

  const std::vector<Query> queries = scenario_queries(fleet);
  const ReferenceOracle reference(&dataset);
  const std::vector<Answer> expected = reference.answer(queries);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const ColumnarStore store =
        ColumnarStore::build(dataset, StoreConfig{threads});
    const Oracle oracle(&store, OracleConfig{threads, {}});
    const std::vector<Answer> got = oracle.answer(queries);
    std::string why;
    EXPECT_TRUE(answers_identical(expected, got, why))
        << GetParam() << " (threads " << threads << "): " << why;
  }
}

INSTANTIATE_TEST_SUITE_P(AllShippedScenarios, ScenarioOracle,
                         testing::Values("paper_9_months.ini",
                                         "five_g_delivers.ini",
                                         "cloud_2014.ini",
                                         "hyperscalers_only.ini",
                                         "stress_noisy_network.ini",
                                         "faulted_9_months.ini"),
                         [](const testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           return name.substr(0, name.find('.'));
                         });

}  // namespace
}  // namespace shears::serve
