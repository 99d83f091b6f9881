// Property tests for the serving layer: the spatial index against a
// brute-force geodesic scan (with antimeridian / polar point clouds),
// the indexed oracle against the full-scan reference over generated
// worlds — every build path and thread count must answer bit for bit
// identically — and the snapshot subsystem: save → load answer
// identity, plus corpus fuzzing of the loader's error confinement.
#include <gtest/gtest.h>

#include <vector>

#include "atlas/measurement.hpp"
#include "check/fuzz.hpp"
#include "check/oracles.hpp"
#include "check/property.hpp"
#include "check/world.hpp"
#include "geo/coordinates.hpp"
#include "serve/oracle.hpp"

namespace shears::check {
namespace {

TEST(ServeProperty, SpatialIndexMatchesBruteForce) {
  const CheckResult result = check(
      "spatial_index_vs_brute_force",
      [](Gen& gen) {
        const std::size_t count =
            static_cast<std::size_t>(gen.scaled(1)) * 4;
        const std::vector<geo::GeoPoint> points =
            make_geo_points(gen, count);
        const std::vector<geo::GeoPoint> queries =
            make_geo_points(gen, 24);
        const double radius_km = gen.real_in(10.0, 6000.0);
        check_spatial_index(points, queries, radius_km,
                            "points=" + std::to_string(points.size()));
      },
      16);
  EXPECT_TRUE(result.passed) << result.banner;
}

TEST(ServeProperty, OracleMatchesFullScanReference) {
  const CheckResult result = check(
      "oracle_vs_fullscan",
      [](Gen& gen) {
        const World world = make_world(gen);
        const atlas::MeasurementDataset dataset = world.run();
        const std::vector<serve::Query> queries =
            make_queries(gen, world, 32);
        check_oracle_vs_fullscan(gen, world, dataset, queries);
      },
      8);
  EXPECT_TRUE(result.passed) << result.banner;
}

TEST(ServeProperty, SnapshotRoundTripAnswersIdentically) {
  const CheckResult result = check(
      "snapshot_roundtrip",
      [](Gen& gen) {
        const World world = make_world(gen);
        const atlas::MeasurementDataset dataset = world.run();
        const std::vector<serve::Query> queries =
            make_queries(gen, world, 24);
        check_snapshot_roundtrip(world, dataset, queries);
      },
      6);
  EXPECT_TRUE(result.passed) << result.banner;
}

TEST(ServeFuzz, SnapshotLoaderConfinesCorruptImages) {
  const CheckResult result = check(
      "fuzz_snapshot",
      [](Gen& gen) {
        const World world = make_world(gen);
        const atlas::MeasurementDataset dataset = world.run();
        const SnapshotFuzzStats stats =
            fuzz_snapshot(gen, world, dataset, 48);
        require(stats.loaded + stats.rejected == stats.rounds,
                "every round must load or reject");
        require(stats.loaded >= stats.clean,
                "clean images must always load");
      },
      4);
  EXPECT_TRUE(result.passed) << result.banner;
}

}  // namespace
}  // namespace shears::check
