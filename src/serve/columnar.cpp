#include "serve/columnar.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>

#include "core/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace shears::serve {

namespace {

constexpr std::uint32_t kSkipKey = 0xffffffffu;

/// Hard per-shard capacity: the scatter indexes shard slots with
/// std::uint32_t offsets, so a shard can never exceed 2^32 - 1 rows.
constexpr std::uint64_t kMaxShardRows = 0xffffffffu;

}  // namespace

void summarise_cell(RegionStats& cell) {
  const std::vector<float>& run = cell.sorted;
  const auto kth = [&run](std::size_t k) { return run[k]; };
  cell.count = run.size();
  cell.min_ms = static_cast<double>(run.front());
  cell.median_ms = type7_quantile(run.size(), 0.5, kth);
  cell.p95_ms = type7_quantile(run.size(), 0.95, kth);
}

void summarise_rollup(RegionStats& rollup,
                      std::span<const std::span<const float>> runs) {
  std::size_t n = 0;
  float min = 0.0f;
  for (const std::span<const float> run : runs) {
    if (run.empty()) continue;
    min = n == 0 ? run.front() : std::min(min, run.front());
    n += run.size();
  }
  const auto kth = [runs](std::size_t k) {
    return kth_smallest_of_runs(runs, k);
  };
  rollup.count = n;
  rollup.min_ms = static_cast<double>(min);
  rollup.median_ms = type7_quantile(n, 0.5, kth);
  rollup.p95_ms = type7_quantile(n, 0.95, kth);
}

std::size_t country_index_of(const geo::Country* country) {
  const std::span<const geo::Country> all = geo::all_countries();
  if (country == nullptr || country < all.data() ||
      country >= all.data() + all.size()) {
    throw std::invalid_argument(
        "serve: probe country is not an entry of geo::all_countries()");
  }
  return static_cast<std::size_t>(country - all.data());
}

ColumnarStore::ColumnarStore(const atlas::ProbeFleet* fleet,
                             const topology::CloudRegistry* registry,
                             StoreConfig config)
    : fleet_(fleet), registry_(registry), config_(config) {
  probe_key_.reserve(fleet_->size());
  for (const atlas::Probe& probe : fleet_->probes()) {
    if (probe.privileged()) {
      probe_key_.push_back(kSkipKey);
      continue;
    }
    const std::size_t country = country_index_of(probe.country);
    probe_key_.push_back(static_cast<std::uint32_t>(
        country * net::kAccessTechnologyCount +
        static_cast<std::size_t>(probe.endpoint.access)));
  }
  groups_.resize(geo::country_count() * net::kAccessTechnologyCount);
  country_stats_.resize(geo::country_count());
}

ColumnarStore ColumnarStore::build(const atlas::MeasurementDataset& dataset,
                                   StoreConfig config) {
  ColumnarStore store(&dataset.fleet(), &dataset.registry(), config);
  store.append(dataset.records());
  store.refresh();
  return store;
}

void ColumnarStore::append(std::span<const atlas::Measurement> rows) {
  if (rows.empty()) return;
  if (rows.size() > kMaxShardRows) {
    // Keeps every pass-1 per-shard count exact in 32 bits; callers this
    // large must chunk (the sink path already does).
    throw std::length_error(
        "ColumnarStore::append: batch of " + std::to_string(rows.size()) +
        " rows exceeds the 2^32 - 1 per-call limit; split the batch");
  }
  const std::size_t keys = key_count();
  const std::size_t shards = core::resolve_threads(config_.threads,
                                                   rows.size());

  // Pass 1 — per-(shard, key) counts. Workers must not throw (they run on
  // bare std::thread), so validation failures are collected and raised
  // after the join.
  std::vector<std::vector<std::uint32_t>> counts(
      shards, std::vector<std::uint32_t>(keys, 0));
  std::atomic<std::size_t> first_bad{rows.size()};
  const std::uint16_t region_limit =
      static_cast<std::uint16_t>(registry_->size());
  core::parallel_shards(rows.size(), shards,
                        [&](std::size_t s, std::size_t begin,
                            std::size_t end) {
    std::vector<std::uint32_t>& local = counts[s];
    for (std::size_t i = begin; i < end; ++i) {
      const atlas::Measurement& m = rows[i];
      if (m.probe_id >= probe_key_.size() || m.region_index >= region_limit) {
        std::size_t expected = first_bad.load(std::memory_order_relaxed);
        while (i < expected &&
               !first_bad.compare_exchange_weak(expected, i)) {
        }
        return;
      }
      const std::uint32_t key = probe_key_[m.probe_id];
      if (key == kSkipKey || m.lost()) continue;
      ++local[key];
    }
  });
  if (first_bad.load() != rows.size()) {
    throw std::invalid_argument(
        "ColumnarStore::append: row " + std::to_string(first_bad.load()) +
        " does not resolve against the bound fleet/registry");
  }

  // Capacity check, in 64 bits and *before* any group is touched: the
  // scatter below indexes shard slots with std::uint32_t offsets, so
  // growth past 2^32 - 1 rows per shard (or past the configured cap)
  // would silently wrap the offsets and corrupt the store. A violation
  // throws here and leaves the store exactly as it was.
  const std::uint64_t shard_limit =
      config_.max_shard_rows == 0
          ? kMaxShardRows
          : std::min(config_.max_shard_rows, kMaxShardRows);
  for (std::size_t key = 0; key < keys; ++key) {
    std::uint64_t incoming = 0;
    for (std::size_t s = 0; s < shards; ++s) incoming += counts[s][key];
    if (incoming == 0) continue;
    const std::uint64_t grown = groups_[key].rtt_ms.size() + incoming;
    if (grown > shard_limit) {
      const geo::Country& country =
          geo::all_countries()[key / net::kAccessTechnologyCount];
      const auto access = static_cast<net::AccessTechnology>(
          key % net::kAccessTechnologyCount);
      throw std::length_error(
          "ColumnarStore::append: shard (" + std::string(country.iso2) +
          ", " + std::string(net::to_string(access)) + ") would grow to " +
          std::to_string(grown) + " rows, past its capacity of " +
          std::to_string(shard_limit) +
          " (u32 scatter offsets); no rows were appended");
    }
  }

  // Offsets: slot of a row = shard base + rows of its key in earlier
  // shards + local running count. Shards are contiguous input ranges, so
  // the slot equals the row's global rank within its key — independent
  // of the shard count.
  std::size_t appended = 0;
  std::vector<std::vector<std::uint32_t>> offsets = std::move(counts);
  for (std::size_t key = 0; key < keys; ++key) {
    std::uint32_t total = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      const std::uint32_t c = offsets[s][key];
      offsets[s][key] = total;
      total += c;
    }
    if (total == 0) continue;
    KeyGroup& group = groups_[key];
    const std::size_t base = group.rtt_ms.size();
    for (std::size_t s = 0; s < shards; ++s) {
      offsets[s][key] += static_cast<std::uint32_t>(base);
    }
    const std::size_t grown = base + total;
    group.probe_ids.resize(grown);
    group.region_index.resize(grown);
    group.ticks.resize(grown);
    group.rtt_ms.resize(grown);
    appended += total;
  }

  // Pass 2 — scatter. Every slot is written by exactly one worker.
  core::parallel_shards(rows.size(), shards,
                        [&](std::size_t s, std::size_t begin,
                            std::size_t end) {
    std::vector<std::uint32_t>& slot = offsets[s];
    for (std::size_t i = begin; i < end; ++i) {
      const atlas::Measurement& m = rows[i];
      const std::uint32_t key = probe_key_[m.probe_id];
      if (key == kSkipKey || m.lost()) continue;
      KeyGroup& group = groups_[key];
      const std::uint32_t at = slot[key]++;
      group.probe_ids[at] = m.probe_id;
      group.region_index[at] = m.region_index;
      group.ticks[at] = m.tick;
      group.rtt_ms[at] = m.min_ms;
    }
  });

  rows_stored_ += appended;
  rows_dropped_ += rows.size() - appended;
  if (appended != 0) fresh_ = false;
  if (metrics_ != nullptr) {
    metrics_->counter("serve.store.rows").add(appended);
    metrics_->counter("serve.store.dropped").add(rows.size() - appended);
    metrics_->counter("serve.store.appends").increment();
  }
}

void ColumnarStore::refresh_group(KeyGroup& group) {
  const std::size_t regions = registry_->size();
  const std::size_t begin = group.summarised;
  const std::size_t end = group.rtt_ms.size();

  // Bucket the rows the summaries do not cover yet, each region's bucket
  // sized exactly by a count pass (a cell keeps its run for the life of
  // the store, so growth slack would be resident memory).
  std::vector<std::uint32_t> counts(regions, 0);
  for (std::size_t i = begin; i < end; ++i) ++counts[group.region_index[i]];
  std::vector<std::vector<float>> samples(regions);
  for (std::size_t r = 0; r < regions; ++r) samples[r].reserve(counts[r]);
  for (std::size_t i = begin; i < end; ++i) {
    samples[group.region_index[i]].push_back(group.rtt_ms[i]);
  }

  if (group.stats.empty()) group.stats.resize(regions);
  for (std::size_t r = 0; r < regions; ++r) {
    std::vector<float>& fresh = samples[r];
    if (fresh.empty()) continue;
    std::sort(fresh.begin(), fresh.end());
    RegionStats& cell = group.stats[r];
    if (cell.empty()) {
      cell.sorted = std::move(fresh);
    } else {
      // Merge into a new exactly-sized run; the old one is released.
      std::vector<float> merged(cell.sorted.size() + fresh.size());
      std::merge(cell.sorted.begin(), cell.sorted.end(), fresh.begin(),
                 fresh.end(), merged.begin());
      cell.sorted = std::move(merged);
    }
    summarise_cell(cell);
    group.folded.push_back(static_cast<std::uint16_t>(r));
  }
  group.run_bytes = 0;
  for (const RegionStats& cell : group.stats) {
    group.run_bytes += cell.sorted.capacity() * sizeof(float);
  }
  group.summarised = end;
}

void ColumnarStore::refresh_country(std::size_t country_idx) {
  constexpr std::size_t kAccess = net::kAccessTechnologyCount;
  const std::size_t regions = registry_->size();
  std::vector<RegionStats>& rollup = country_stats_[country_idx];
  if (rollup.empty()) rollup.resize(regions);

  std::vector<bool> touched(regions, false);
  for (std::size_t a = 0; a < kAccess; ++a) {
    KeyGroup& group = groups_[country_idx * kAccess + a];
    for (const std::uint16_t r : group.folded) touched[r] = true;
    group.folded = {};
  }
  for (std::size_t r = 0; r < regions; ++r) {
    if (!touched[r]) continue;
    std::array<std::span<const float>, kAccess> runs;
    for (std::size_t a = 0; a < kAccess; ++a) {
      const KeyGroup& group = groups_[country_idx * kAccess + a];
      if (!group.stats.empty()) runs[a] = group.stats[r].sorted;
    }
    summarise_rollup(rollup[r], runs);
  }
}

void ColumnarStore::refresh_countries(
    std::span<const std::uint32_t> countries) {
  std::vector<std::uint64_t> weights(countries.size(), 0);
  for (std::size_t i = 0; i < countries.size(); ++i) {
    for (std::size_t a = 0; a < net::kAccessTechnologyCount; ++a) {
      weights[i] +=
          groups_[countries[i] * net::kAccessTechnologyCount + a]
              .rtt_ms.size();
    }
  }
  core::parallel_largest_first(weights, config_.threads, [&](std::size_t i) {
    refresh_country(countries[i]);
  });
}

void ColumnarStore::refresh() {
  if (fresh_) return;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::uint32_t> dirty;
  std::vector<std::uint32_t> dirty_countries;
  std::size_t folded_rows = 0;
  for (std::uint32_t key = 0; key < key_count(); ++key) {
    const KeyGroup& group = groups_[key];
    if (group.summarised == group.rtt_ms.size()) continue;
    dirty.push_back(key);
    folded_rows += group.rtt_ms.size() - group.summarised;
    const auto country =
        static_cast<std::uint32_t>(key / net::kAccessTechnologyCount);
    if (dirty_countries.empty() || dirty_countries.back() != country) {
      dirty_countries.push_back(country);
    }
  }

  // Phase 1 folds each dirty shard's new rows into its cells; phase 2
  // re-selects the scalars of the country rollup cells those folds
  // touched. The join between them hands every KeyGroup from its shard
  // worker to the one worker that owns its country. Shard sizes span
  // orders of magnitude, so both phases hand out work largest first,
  // weighted by the rows each unit's cells hold.
  std::vector<std::uint64_t> weights(dirty.size());
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    weights[i] = groups_[dirty[i]].rtt_ms.size();
  }
  core::parallel_largest_first(weights, config_.threads, [&](std::size_t i) {
    refresh_group(groups_[dirty[i]]);
  });
  refresh_countries(dirty_countries);
  fresh_ = true;

  if (metrics_ != nullptr) {
    metrics_->counter("serve.store.refreshed_shards").add(dirty.size());
    metrics_->counter("serve.store.refreshed_rows").add(folded_rows);
    metrics_->histogram("serve.store.refresh_ms")
        .record(std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count());
    std::size_t bytes = 0;
    for (const KeyGroup& group : groups_) {
      bytes += group.probe_ids.capacity() * sizeof(std::uint32_t) +
               group.region_index.capacity() * sizeof(std::uint16_t) +
               group.ticks.capacity() * sizeof(std::uint32_t) +
               group.rtt_ms.capacity() * sizeof(float) + group.run_bytes;
    }
    metrics_->gauge("serve.store.sample_bytes")
        .set(static_cast<double>(bytes));
  }
}

std::size_t ColumnarStore::shard_count() const noexcept {
  std::size_t n = 0;
  for (const KeyGroup& group : groups_) {
    if (!group.rtt_ms.empty()) ++n;
  }
  return n;
}

std::span<const RegionStats> ColumnarStore::shard_stats(
    std::size_t country_index, net::AccessTechnology access) const {
  if (!fresh_) {
    throw std::logic_error("ColumnarStore: refresh() before reading stats");
  }
  if (country_index >= geo::country_count()) return {};
  const KeyGroup& group =
      groups_[country_index * net::kAccessTechnologyCount +
              static_cast<std::size_t>(access)];
  return group.stats;
}

std::span<const RegionStats> ColumnarStore::country_stats(
    std::size_t country_index) const {
  if (!fresh_) {
    throw std::logic_error("ColumnarStore: refresh() before reading stats");
  }
  if (country_index >= geo::country_count()) return {};
  return country_stats_[country_index];
}

ColumnarStore::ScanSummary ColumnarStore::scan_region(
    std::size_t country_index, net::AccessTechnology access,
    std::uint16_t region, float budget_ms,
    const ScanKernels& kernels) const {
  ScanSummary out;
  if (country_index >= geo::country_count()) return out;
  const KeyGroup& group =
      groups_[country_index * net::kAccessTechnologyCount +
              static_cast<std::size_t>(access)];
  // Gather the cell's samples off the region-filtered column. Ingestion
  // order, like refresh_group's bucketing — the value multiset (and so
  // every kernel result) matches the cell's summary exactly.
  std::vector<float> values;
  values.reserve(group.rtt_ms.size());
  for (std::size_t i = 0; i < group.rtt_ms.size(); ++i) {
    if (group.region_index[i] == region) values.push_back(group.rtt_ms[i]);
  }
  if (values.empty()) return out;
  const float* data = values.data();
  const std::size_t n = values.size();
  out.count = n;
  out.min_ms = static_cast<double>(kernels.min(data, n));
  out.median_ms = quantile_type7(kernels, data, n, 0.5);
  out.p95_ms = quantile_type7(kernels, data, n, 0.95);
  out.within_budget = kernels.count_le(data, n, budget_ms);
  return out;
}

std::vector<ColumnarStore::ShardView> ColumnarStore::shards() const {
  std::vector<ShardView> views;
  const std::span<const geo::Country> all = geo::all_countries();
  for (std::size_t key = 0; key < key_count(); ++key) {
    const KeyGroup& group = groups_[key];
    if (group.rtt_ms.empty()) continue;
    views.push_back(ShardView{
        &all[key / net::kAccessTechnologyCount],
        static_cast<net::AccessTechnology>(key % net::kAccessTechnologyCount),
        group.probe_ids,
        group.region_index,
        group.ticks,
        group.rtt_ms,
    });
  }
  return views;
}

void ColumnarStore::attach_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
}

}  // namespace shears::serve
