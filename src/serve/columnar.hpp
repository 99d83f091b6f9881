// The latency oracle's dataset store: a sharded, columnar (struct-of-
// arrays) layout over campaign measurement rows.
//
// The batch pipeline answers "is the cloud close enough from X over Y?"
// by re-scanning the whole dataset per question. The serving layer
// instead ingests rows once into shards keyed by the two dimensions
// every query filters on — (country, access technology) — and keeps
// per-shard pre-aggregated summaries (min / median / p95 RTT per target
// region, exact, over the cell's sorted float sample) plus per-country
// rollups across all access technologies. A query then touches one
// shard's summary table instead of millions of rows.
//
// Each stored RTT lives twice: in its shard's raw `rtt_ms` column and in
// its cell's sorted run. A country rollup keeps scalars only — its
// count and min pool the ≤ 7 access cells' own, and its median / p95
// are exact order statistics selected across the cells' sorted runs
// (kth_smallest_of_runs), never a merged copy.
//
// Ingestion contract:
//   * append() is incremental — a running atlas::Campaign publishes its
//     records through the MeasurementSink hook and the store absorbs
//     them without a rebuild. Rows are scattered to their shard slots by
//     *global input order*, computed from contiguous-range counts, so
//     the stored columns (and therefore every summary) are byte-
//     identical whatever the chunking or the build thread count.
//   * Lost bursts (received == 0) and rows from privileged probes
//     (datacentre/cloud placement, excluded from every §4 analysis)
//     are dropped at the door and only counted.
//   * Summaries are refreshed lazily and incrementally: each shard
//     records how many of its rows its summaries cover, and refresh()
//     folds in only the rows appended since (in parallel) — it sorts
//     each region's new samples and merges them into the cell's run,
//     then re-selects the scalars of the touched country rollup cells.
//     Because a sorted sample is a pure function of its multiset, a
//     store built from N+M rows at once and one built from N then
//     appended M hold identical cells, scalars and snapshot bytes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "atlas/campaign.hpp"
#include "atlas/measurement.hpp"
#include "atlas/placement.hpp"
#include "geo/country.hpp"
#include "net/access.hpp"
#include "serve/scan.hpp"
#include "topology/registry.hpp"

namespace shears::obs {
class MetricsRegistry;
}  // namespace shears::obs

namespace shears::serve {

struct StoreConfig {
  /// Worker threads for append scatter and summary refresh (0 = hardware
  /// concurrency). Stored bytes and summaries are identical for any
  /// value — the serve test suite pins it.
  std::size_t threads = 0;
  /// Upper bound on rows per (country, access) shard. 0 (the default)
  /// means the format's hard ceiling of 2^32 - 1 — the shard columns
  /// index rows with std::uint32_t offsets, so growth past that limit
  /// throws std::length_error instead of silently wrapping the scatter
  /// offsets and corrupting the store. Tests and capacity-capped
  /// deployments lower it; values above the ceiling are clamped to it.
  std::uint64_t max_shard_rows = 0;
};

/// Pre-aggregated latency summary of one target region in a scope: a
/// (shard, region) cell, or a country rollup of such cells.
struct RegionStats {
  std::uint64_t count = 0;
  double min_ms = 0.0;
  double median_ms = 0.0;
  double p95_ms = 0.0;
  /// A shard cell's full sample, ascending and sized exactly; the
  /// scalars are its type-7 order statistics. Empty in country rollups,
  /// which keep the scalars only.
  std::vector<float> sorted;

  [[nodiscard]] bool empty() const noexcept { return count == 0; }
};

/// Fills a cell's scalars from its (non-empty) sorted run.
void summarise_cell(RegionStats& cell);

/// Fills a rollup's scalars from the sorted runs of the cells it pools
/// (some may be empty, not all): count and min from the runs' sizes and
/// fronts, median and p95 by exact selection across the runs —
/// bit-identical to the scalars of their merged sample.
void summarise_rollup(RegionStats& rollup,
                      std::span<const std::span<const float>> runs);

/// Index of a country inside geo::all_countries(). Throws
/// std::invalid_argument when the pointer is not into the registry table
/// (hand-built Country objects cannot be sharded on).
[[nodiscard]] std::size_t country_index_of(const geo::Country* country);

class ColumnarStore final : public atlas::MeasurementSink {
 public:
  /// An empty store over a fleet/registry pair; both must outlive it.
  /// Probe countries must point into geo::all_countries() (generated and
  /// find_country-built fleets do).
  ColumnarStore(const atlas::ProbeFleet* fleet,
                const topology::CloudRegistry* registry,
                StoreConfig config = {});

  /// Builds from a full dataset and refreshes the summaries.
  [[nodiscard]] static ColumnarStore build(
      const atlas::MeasurementDataset& dataset, StoreConfig config = {});

  /// Ingests rows (any chunking). Throws std::invalid_argument on a row
  /// whose probe id or region index does not resolve against the bound
  /// fleet/registry. Marks affected shards dirty; summaries go stale
  /// until refresh().
  void append(std::span<const atlas::Measurement> rows);

  /// MeasurementSink: a campaign attached via attach_sink() streams its
  /// records straight into the store.
  void publish(std::span<const atlas::Measurement> rows) override {
    append(rows);
  }

  /// Folds every row appended since the last refresh into the shard
  /// summaries and country rollups; work scales with the rows appended,
  /// not the rows stored. Idempotent and cheap when nothing changed.
  void refresh();

  /// True when every summary reflects every appended row.
  [[nodiscard]] bool fresh() const noexcept { return fresh_; }

  [[nodiscard]] const atlas::ProbeFleet& fleet() const noexcept {
    return *fleet_;
  }
  [[nodiscard]] const topology::CloudRegistry& registry() const noexcept {
    return *registry_;
  }

  [[nodiscard]] std::size_t rows_stored() const noexcept {
    return rows_stored_;
  }
  [[nodiscard]] std::size_t rows_dropped() const noexcept {
    return rows_dropped_;
  }
  /// Non-empty (country, access) shards.
  [[nodiscard]] std::size_t shard_count() const noexcept;

  /// Per-region summaries of one (country, access) shard, dense by
  /// region index; empty span when the shard holds no rows. Requires
  /// fresh() — call refresh() after appends.
  [[nodiscard]] std::span<const RegionStats> shard_stats(
      std::size_t country_index, net::AccessTechnology access) const;

  /// Country rollup across all access technologies: scalars only, exact
  /// over the pooled samples of the country's shard cells. Requires
  /// fresh().
  [[nodiscard]] std::span<const RegionStats> country_stats(
      std::size_t country_index) const;

  /// Raw columns of one shard, in ingestion order (= dataset order) —
  /// the struct-of-arrays view tests and future scans consume.
  struct ShardView {
    const geo::Country* country = nullptr;
    net::AccessTechnology access = net::AccessTechnology::kEthernet;
    std::span<const std::uint32_t> probe_ids;
    std::span<const std::uint16_t> region_index;
    std::span<const std::uint32_t> ticks;
    std::span<const float> rtt_ms;
  };

  /// Views of every non-empty shard, ordered by (country index, access).
  [[nodiscard]] std::vector<ShardView> shards() const;

  /// Result of a direct kernel scan of one (shard, region) cell — the
  /// scan-kernel face of RegionStats. count / min_ms / median_ms /
  /// p95_ms are bit-identical to the RegionStats summary of the same
  /// cell; within_budget is the feasibility count (samples <=
  /// budget_ms).
  struct ScanSummary {
    std::uint64_t count = 0;
    double min_ms = 0.0;
    double median_ms = 0.0;
    double p95_ms = 0.0;
    std::uint64_t within_budget = 0;

    [[nodiscard]] bool empty() const noexcept { return count == 0; }
  };

  /// Scans one (country, access, region) cell straight off the raw RTT
  /// column with the given kernel family — no sort, no sorted run, no
  /// refresh() required (raw columns are always current). The default
  /// overload uses active_scan_kernels() (AVX2 when available, scalar
  /// under SHEARS_FORCE_SCALAR); passing scalar_scan_kernels()
  /// explicitly is how tests and benches pin the fallback.
  [[nodiscard]] ScanSummary scan_region(std::size_t country_index,
                                        net::AccessTechnology access,
                                        std::uint16_t region,
                                        float budget_ms,
                                        const ScanKernels& kernels) const;
  [[nodiscard]] ScanSummary scan_region(std::size_t country_index,
                                        net::AccessTechnology access,
                                        std::uint16_t region,
                                        float budget_ms) const {
    return scan_region(country_index, access, region, budget_ms,
                       active_scan_kernels());
  }

  /// Publishes serve.store.* counters (rows, dropped, appends, refreshed
  /// shards, refreshed rows) and the serve.store.refresh_ms histogram.
  /// serve.store.refreshed_rows counts the rows each refresh() folded
  /// in, so on a store watched from empty it tracks rows_stored() once
  /// fresh — refresh work is proportional to what was appended. The
  /// serve.store.sample_bytes gauge, set at the end of each refresh()
  /// that folds rows in, is the capacity in bytes of the four columns
  /// plus every cell's sorted run: 18 B a row when nothing keeps growth
  /// slack.
  /// Observational only; nullptr detaches. `metrics` must outlive the
  /// store.
  void attach_metrics(obs::MetricsRegistry* metrics);

 private:
  /// Snapshot persistence (src/serve/snapshot.cpp) serialises the raw
  /// shard columns and counters and restores them on load; it is the
  /// only code with by-hand access to the representation.
  friend struct SnapshotAccess;

  struct KeyGroup {
    std::vector<std::uint32_t> probe_ids;
    std::vector<std::uint16_t> region_index;
    std::vector<std::uint32_t> ticks;
    std::vector<float> rtt_ms;
    /// Dense by region index (empty until the first refresh()).
    std::vector<RegionStats> stats;
    /// Rows [0, summarised) are folded into `stats`; the shard is dirty
    /// while rows remain past it.
    std::size_t summarised = 0;
    /// Capacity in bytes of the cells' sorted runs.
    std::size_t run_bytes = 0;
    /// Regions the last refresh_group() folded rows into, handed from
    /// refresh()'s shard phase to its country phase, which re-selects
    /// those rollup cells and clears the list.
    std::vector<std::uint16_t> folded;
  };

  [[nodiscard]] std::size_t key_count() const noexcept {
    return groups_.size();
  }
  void refresh_group(KeyGroup& group);
  void refresh_country(std::size_t country_idx);
  /// refresh()'s country phase over `countries` (ascending indices):
  /// re-selects the rollup cells their shards' `folded` lists name.
  void refresh_countries(std::span<const std::uint32_t> countries);

  const atlas::ProbeFleet* fleet_;
  const topology::CloudRegistry* registry_;
  StoreConfig config_;
  /// probe id -> shard key (country * kAccessTechnologyCount + access),
  /// or kSkipKey for privileged probes.
  std::vector<std::uint32_t> probe_key_;
  std::vector<KeyGroup> groups_;  ///< dense key universe
  /// Country rollups, dense by (country index, region index).
  std::vector<std::vector<RegionStats>> country_stats_;
  std::size_t rows_stored_ = 0;
  std::size_t rows_dropped_ = 0;
  bool fresh_ = true;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace shears::serve
