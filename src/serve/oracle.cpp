#include "serve/oracle.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "core/parallel.hpp"
#include "obs/metrics.hpp"

namespace shears::serve {

namespace detail {

void answer_from_stats(const Query& query, const geo::Country* country,
                       std::span<const RegionStats> stats,
                       const topology::CloudRegistry& registry,
                       const core::FeasibilityConfig& feasibility,
                       Answer& out) {
  out = Answer{};
  out.country = country;
  if (country == nullptr) return;

  // Best observed region in scope: strict (min RTT, region index) order,
  // the same rule every batch analysis uses.
  std::size_t best = stats.size();
  for (std::size_t r = 0; r < stats.size(); ++r) {
    if (stats[r].empty()) continue;
    if (best == stats.size() || stats[r].min_ms < stats[best].min_ms) {
      best = r;
    }
  }
  if (best == stats.size()) return;  // resolved, but no data in scope

  out.best_region = registry.regions()[best];
  out.best_ms = stats[best].min_ms;
  out.median_ms = stats[best].median_ms;
  out.p95_ms = stats[best].p95_ms;

  switch (query.kind) {
    case QueryKind::kBestRtt:
      out.ok = true;
      break;
    case QueryKind::kFeasibility: {
      const apps::Application* app = apps::find_application(query.app_id);
      if (app == nullptr) return;
      out.verdict = core::classify(*app, out.best_ms, feasibility);
      out.in_zone = core::in_feasibility_zone(*app, feasibility);
      out.ok = true;
      break;
    }
    case QueryKind::kTopK: {
      for (std::size_t r = 0; r < stats.size(); ++r) {
        if (stats[r].empty() || stats[r].min_ms > query.budget_ms) continue;
        out.regions.push_back(RegionAnswer{registry.regions()[r],
                                           stats[r].min_ms});
      }
      // Entries were pushed in registry order; stable sort keeps that as
      // the tie-break.
      std::stable_sort(out.regions.begin(), out.regions.end(),
                       [](const RegionAnswer& a, const RegionAnswer& b) {
                         return a.rtt_ms < b.rtt_ms;
                       });
      if (out.regions.size() > query.k) out.regions.resize(query.k);
      out.ok = true;
      break;
    }
  }
}

}  // namespace detail

Oracle::Oracle(ColumnarStore* store, OracleConfig config)
    : Oracle(static_cast<const ColumnarStore*>(store), config) {
  mutable_store_ = store;
}

Oracle::Oracle(const ColumnarStore* store, OracleConfig config)
    : store_(store), config_(config) {
  const topology::CloudRegistry& registry = store_->registry();
  std::vector<geo::GeoPoint> region_points;
  region_points.reserve(registry.size());
  for (const topology::CloudRegion* region : registry.regions()) {
    region_points.push_back(region->location);
  }
  region_index_ = geo::SpatialIndex(region_points);

  // Analysis-eligible probes only (privileged vantage points never stand
  // in for users), all-access plus one filtered index per technology.
  std::vector<geo::GeoPoint> probe_points;
  std::array<std::vector<geo::GeoPoint>, net::kAccessTechnologyCount>
      access_points;
  for (const atlas::Probe& probe : store_->fleet().probes()) {
    if (probe.privileged()) continue;
    probe_points.push_back(probe.endpoint.location);
    probe_of_hit_.push_back(probe.id);
    const auto a = static_cast<std::size_t>(probe.endpoint.access);
    access_points[a].push_back(probe.endpoint.location);
    access_probe_of_hit_[a].push_back(probe.id);
  }
  probe_index_ = geo::SpatialIndex(probe_points);
  for (std::size_t a = 0; a < net::kAccessTechnologyCount; ++a) {
    access_index_[a] = geo::SpatialIndex(access_points[a]);
  }
}

const geo::Country* Oracle::resolve_country(const Query& q) const {
  if (!q.country_iso2.empty()) return geo::find_country(q.country_iso2);
  const auto a = static_cast<std::size_t>(q.access);
  const geo::SpatialIndex& index = q.any_access ? probe_index_
                                                : access_index_[a];
  const auto hit = index.nearest(q.where);
  if (!hit.has_value()) return nullptr;
  const std::uint32_t probe_id = q.any_access
                                     ? probe_of_hit_[hit->id]
                                     : access_probe_of_hit_[a][hit->id];
  return store_->fleet().probe(probe_id).country;
}

std::span<const RegionStats> Oracle::stats_in_scope(
    std::size_t country_index, std::optional<net::AccessTechnology> access,
    const SummaryOverlay* overlay) const {
  if (overlay != nullptr) {
    const auto substituted = overlay->stats(country_index, access);
    if (substituted.has_value()) return *substituted;
  }
  return access.has_value() ? store_->shard_stats(country_index, *access)
                            : store_->country_stats(country_index);
}

void Oracle::answer_into(const Query& query, Answer& out,
                         const SummaryOverlay* overlay) const {
  const geo::Country* country = resolve_country(query);
  std::span<const RegionStats> stats;
  if (country != nullptr) {
    stats = stats_in_scope(
        country_index_of(country),
        query.any_access
            ? std::nullopt
            : std::optional<net::AccessTechnology>(query.access),
        overlay);
  }
  detail::answer_from_stats(query, country, stats, store_->registry(),
                            config_.feasibility, out);
}

void Oracle::answer(std::span<const Query> queries,
                    std::span<Answer> out) const {
  answer(queries, out, nullptr);
}

void Oracle::answer(std::span<const Query> queries, std::span<Answer> out,
                    const SummaryOverlay* overlay) const {
  if (try_answer(queries, out, overlay) == BatchStatus::kStale) {
    throw std::logic_error(
        "Oracle::answer: store has unrefreshed appends (call refresh())");
  }
}

bool Oracle::ensure_fresh() const {
  if (store_->fresh()) return true;
  if (!config_.auto_refresh || mutable_store_ == nullptr) return false;
  mutable_store_->refresh();
  return true;
}

BatchStatus Oracle::try_answer(std::span<const Query> queries,
                               std::span<Answer> out) const {
  return try_answer(queries, out, nullptr);
}

BatchStatus Oracle::try_answer(std::span<const Query> queries,
                               std::span<Answer> out,
                               const SummaryOverlay* overlay) const {
  if (queries.size() != out.size()) {
    throw std::invalid_argument("Oracle::answer: out.size() != queries.size()");
  }
  if (!ensure_fresh()) return BatchStatus::kStale;
  const auto start = std::chrono::steady_clock::now();

  // A query costs ~1-2us; a worker fork/join costs tens of us. The old
  // 256-query cutoff still fanned a 4096-query batch across 8 threads —
  // ~512 queries (~1ms of work) per worker, which thread overhead ate
  // whole (bench_serve showed t8 *slower* than t1 at b4096). Each shard
  // now has to carry a few thousand queries before forking pays.
  constexpr std::size_t kMinQueriesPerShard = 4096;
  const std::size_t shards = core::resolve_threads(
      config_.threads, queries.size(), kMinQueriesPerShard);
  core::parallel_shards(queries.size(), shards,
                        [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      answer_into(queries[i], out[i], overlay);
    }
  });

  if (instruments_.queries != nullptr) {
    instruments_.queries->add(queries.size());
    instruments_.batches->increment();
    std::uint64_t ok = 0;
    for (const Answer& a : out) ok += a.ok ? 1 : 0;
    instruments_.answers_ok->add(ok);
    std::array<std::uint64_t, 3> by_kind{};
    for (const Query& q : queries) ++by_kind[static_cast<std::size_t>(q.kind)];
    for (std::size_t k = 0; k < by_kind.size(); ++k) {
      if (by_kind[k] != 0) instruments_.by_kind[k]->add(by_kind[k]);
    }
    instruments_.batch_ms->record(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
  return BatchStatus::kOk;
}

std::vector<Answer> Oracle::answer(std::span<const Query> queries) const {
  std::vector<Answer> out(queries.size());
  answer(queries, out);
  return out;
}

Answer Oracle::answer_one(const Query& query) const {
  Answer out;
  answer(std::span<const Query>(&query, 1), std::span<Answer>(&out, 1));
  return out;
}

CoverageResult Oracle::weighted_coverage(std::span<const Query> queries,
                                         double budget_ms,
                                         std::span<const double> weights,
                                         const SummaryOverlay* overlay) const {
  if (!weights.empty() && weights.size() != queries.size()) {
    throw std::invalid_argument(
        "Oracle::weighted_coverage: weights.size() != queries.size()");
  }
  if (!ensure_fresh()) {
    throw std::logic_error(
        "Oracle::weighted_coverage: store has unrefreshed appends");
  }

  // Per-query pooled counts, computed independently into a dense vector.
  // Counts are integers (rank of budget_ms in each shard cell's sorted
  // run), so no arithmetic here can depend on evaluation order. Rollups
  // keep no samples: an all-access scope counts over the country's
  // access cells, each taken from the overlay when it substitutes it.
  struct Counts {
    std::uint64_t covered = 0;
    std::uint64_t total = 0;
  };
  std::vector<Counts> counts(queries.size());
  constexpr std::size_t kMinQueriesPerShard = 512;
  const std::size_t shards = core::resolve_threads(
      config_.threads, queries.size(), kMinQueriesPerShard);
  core::parallel_shards(queries.size(), shards,
                        [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const Query& q = queries[i];
      const geo::Country* country = resolve_country(q);
      if (country == nullptr) continue;
      const std::size_t index = country_index_of(country);
      for (std::size_t a = 0; a < net::kAccessTechnologyCount; ++a) {
        const auto access = static_cast<net::AccessTechnology>(a);
        if (!q.any_access && access != q.access) continue;
        for (const RegionStats& cell : stats_in_scope(index, access, overlay)) {
          const std::vector<float>& run = cell.sorted;
          counts[i].total += run.size();
          counts[i].covered += static_cast<std::uint64_t>(
              std::upper_bound(run.begin(), run.end(), budget_ms) -
              run.begin());
        }
      }
    }
  });

  // The weighted fold runs sequentially in query order on the calling
  // thread — the one float accumulation, and it never crosses a thread
  // boundary, so the result is byte-identical for any thread count.
  CoverageResult result;
  result.queries = queries.size();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (counts[i].total == 0) continue;
    const double w = weights.empty() ? 1.0 : weights[i];
    ++result.answered;
    result.answered_weight += w;
    result.covered_weight += w * (static_cast<double>(counts[i].covered) /
                                  static_cast<double>(counts[i].total));
  }
  return result;
}

std::vector<geo::SpatialHit> Oracle::nearest_regions(
    const geo::GeoPoint& where, std::size_t n) const {
  return region_index_.nearest_n(where, n);
}

std::vector<geo::SpatialHit> Oracle::regions_within_km(
    const geo::GeoPoint& where, double radius_km) const {
  return region_index_.within_radius(where, radius_km);
}

void Oracle::attach_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    instruments_ = Instruments{};
    return;
  }
  instruments_.queries = &metrics->counter("serve.queries");
  instruments_.batches = &metrics->counter("serve.batches");
  instruments_.answers_ok = &metrics->counter("serve.answers_ok");
  instruments_.by_kind = {
      &metrics->counter("serve.queries.best_rtt"),
      &metrics->counter("serve.queries.feasibility"),
      &metrics->counter("serve.queries.top_k"),
  };
  instruments_.batch_ms = &metrics->histogram("serve.batch_ms");
}

}  // namespace shears::serve
