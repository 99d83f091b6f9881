// Byte-identity gates for the vectorized store scan kernels: every
// kernel family (scalar reference, AVX2 when the build/CPU carry it)
// must reproduce the RegionStats summaries bit for bit, and the
// order-statistic primitives (single column and across sorted runs)
// must agree exactly with their textbook counterparts on random data.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "atlas/campaign.hpp"
#include "atlas/placement.hpp"
#include "geo/country.hpp"
#include "net/latency_model.hpp"
#include "serve/columnar.hpp"
#include "serve/scan.hpp"
#include "stats/ecdf.hpp"
#include "stats/rng.hpp"
#include "topology/registry.hpp"

namespace shears::serve {
namespace {

/// Keeps the fleet/registry alive for the lifetime of the store.
struct ScanWorld {
  topology::CloudRegistry registry =
      topology::CloudRegistry::campaign_footprint();
  atlas::ProbeFleet fleet;
  net::LatencyModel model;
  atlas::CampaignConfig config;

  ScanWorld() : fleet(atlas::ProbeFleet::generate(placement())) {
    config.duration_days = 2;
    config.seed = 29;
    config.threads = 1;
  }

  static atlas::PlacementConfig placement() {
    atlas::PlacementConfig p;
    p.probe_count = geo::country_count() + 60;
    p.seed = 17;
    return p;
  }

  [[nodiscard]] atlas::MeasurementDataset run() const {
    return atlas::Campaign(fleet, registry, model, config).run();
  }
};

std::vector<float> random_column(std::size_t n, std::uint64_t seed) {
  stats::Xoshiro256 rng(seed);
  std::vector<float> data(n);
  for (float& v : data) {
    v = static_cast<float>(rng.uniform(0.0, 400.0));
  }
  return data;
}

void expect_bitwise(double a, double b, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

void check_store_against_kernels(const ColumnarStore& store,
                                 const ScanKernels& kernels) {
  std::size_t cells = 0;
  for (const ColumnarStore::ShardView& view : store.shards()) {
    const std::size_t country = country_index_of(view.country);
    const std::span<const RegionStats> stats =
        store.shard_stats(country, view.access);
    for (std::uint16_t region = 0; region < stats.size(); ++region) {
      const RegionStats& reference = stats[region];
      const ColumnarStore::ScanSummary scan =
          store.scan_region(country, view.access, region, 100.0f, kernels);
      ASSERT_EQ(scan.count, reference.count);
      if (reference.empty()) continue;
      ++cells;
      expect_bitwise(scan.min_ms, reference.min_ms, kernels.name);
      expect_bitwise(scan.median_ms, reference.median_ms, kernels.name);
      expect_bitwise(scan.p95_ms, reference.p95_ms, kernels.name);
      // Cross-check the feasibility count against the raw column.
      std::size_t within = 0;
      for (std::size_t i = 0; i < view.rtt_ms.size(); ++i) {
        if (view.region_index[i] == region && view.rtt_ms[i] <= 100.0f) {
          ++within;
        }
      }
      EXPECT_EQ(scan.within_budget, within);
    }
  }
  EXPECT_GT(cells, 0u) << "dataset produced no non-empty cells";
}

TEST(StoreScan, ScalarKernelsMatchEcdfSummariesBitwise) {
  const ScanWorld world;
  const ColumnarStore store = ColumnarStore::build(world.run());
  check_store_against_kernels(store, scalar_scan_kernels());
}

TEST(StoreScan, ActiveKernelsMatchEcdfSummariesBitwise) {
  const ScanWorld world;
  const ColumnarStore store = ColumnarStore::build(world.run());
  check_store_against_kernels(store, active_scan_kernels());
}

TEST(StoreScan, CountLeMatchesStdCount) {
  const std::vector<float> data = random_column(10007, 3);
  for (const ScanKernels* kernels :
       {&scalar_scan_kernels(), &active_scan_kernels()}) {
    for (const float threshold : {-1.0f, 0.0f, 55.5f, 200.0f, 401.0f}) {
      const auto expected = static_cast<std::size_t>(std::count_if(
          data.begin(), data.end(),
          [threshold](float v) { return v <= threshold; }));
      EXPECT_EQ(kernels->count_le(data.data(), data.size(), threshold),
                expected)
          << kernels->name << " @ " << threshold;
    }
  }
}

TEST(StoreScan, MinAndKthSmallestMatchSortedColumn) {
  for (const std::size_t n : {1u, 2u, 7u, 8u, 9u, 4097u}) {
    std::vector<float> data = random_column(n, 1000 + n);
    std::vector<float> sorted = data;
    std::sort(sorted.begin(), sorted.end());
    for (const ScanKernels* kernels :
         {&scalar_scan_kernels(), &active_scan_kernels()}) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(
                    kernels->min(data.data(), data.size())),
                std::bit_cast<std::uint32_t>(sorted.front()))
          << kernels->name << " n=" << n;
      for (const std::size_t k : {std::size_t{0}, n / 2, n - 1}) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(
                      kth_smallest(*kernels, data.data(), data.size(), k)),
                  std::bit_cast<std::uint32_t>(sorted[k]))
            << kernels->name << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(StoreScan, QuantileType7MatchesEcdfBitwise) {
  const std::vector<float> data = random_column(999, 77);
  std::vector<double> widened(data.begin(), data.end());
  std::sort(widened.begin(), widened.end());
  const stats::Ecdf ecdf = stats::Ecdf::from_sorted(std::move(widened));
  for (const ScanKernels* kernels :
       {&scalar_scan_kernels(), &active_scan_kernels()}) {
    for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.999, 1.0}) {
      expect_bitwise(quantile_type7(*kernels, data.data(), data.size(), q),
                     ecdf.quantile(q), kernels->name);
    }
  }
}

/// 1–7 sorted runs drawn from a tiny value pool (heavy ties within and
/// across runs, zeros included), each run empty, single or up to 40
/// values long.
std::vector<std::vector<float>> random_runs(stats::Xoshiro256& rng) {
  static constexpr float kPool[] = {0.0f, 0.2f, 0.2f, 1.5f, 7.25f,
                                    7.25f, 19.0f, 180.5f};
  std::vector<std::vector<float>> runs(1 + rng.bounded(7));
  for (std::vector<float>& run : runs) {
    const std::uint64_t shape = rng.bounded(4);
    const std::size_t n = shape == 0 ? 0 : shape == 1 ? 1 : rng.bounded(41);
    for (std::size_t i = 0; i < n; ++i) {
      run.push_back(kPool[rng.bounded(std::size(kPool))]);
    }
    std::sort(run.begin(), run.end());
  }
  return runs;
}

TEST(StoreScan, KthSmallestOfRunsMatchesSortedConcatenation) {
  stats::Xoshiro256 rng(2027);
  std::size_t checked = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const std::vector<std::vector<float>> runs = random_runs(rng);
    std::vector<std::span<const float>> views(runs.begin(), runs.end());
    std::vector<float> all;
    for (const std::vector<float>& run : runs) {
      all.insert(all.end(), run.begin(), run.end());
    }
    std::sort(all.begin(), all.end());
    if (all.empty()) continue;
    for (std::size_t k = 0; k < all.size(); ++k) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(kth_smallest_of_runs(views, k)),
                std::bit_cast<std::uint32_t>(all[k]))
          << "trial " << trial << " rank " << k << " of " << all.size();
    }
    // The rollup scalars equal an Ecdf's over the widened concatenation.
    RegionStats rollup;
    summarise_rollup(rollup, views);
    const stats::Ecdf ecdf(std::vector<double>(all.begin(), all.end()));
    ASSERT_EQ(rollup.count, all.size()) << "trial " << trial;
    expect_bitwise(rollup.min_ms, ecdf.min(), "min");
    expect_bitwise(rollup.median_ms, ecdf.quantile(0.5), "median");
    expect_bitwise(rollup.p95_ms, ecdf.quantile(0.95), "p95");
    ++checked;
  }
  EXPECT_GT(checked, 1500u);
}

TEST(StoreScan, ForceScalarEnvPinsDispatch) {
  // active_scan_kernels() latches on first use, so exercise the dispatch
  // decision indirectly: whatever family is active must be one of the
  // two known families, and the scalar family is always available.
  const ScanKernels& active = active_scan_kernels();
  const bool is_scalar = std::string_view(active.name) == "scalar";
  const bool is_avx2 = std::string_view(active.name) == "avx2";
  EXPECT_TRUE(is_scalar || is_avx2);
  if (detail::avx2_scan_kernels() == nullptr) {
    EXPECT_TRUE(is_scalar);
  }
}

}  // namespace
}  // namespace shears::serve
