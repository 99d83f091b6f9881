// The latency oracle: batched feasibility queries over the columnar
// store — the paper's punchline ("is the cloud already fast enough from
// here?") as a service.
//
// Three query kinds cover the questions Fig. 4 / Fig. 8 answer in batch
// form:
//   * kBestRtt     — best observed cloud RTT from a location (or a
//                    country) over a given access technology, plus the
//                    winning region's median/p95;
//   * kFeasibility — the §5 edge-vs-cloud verdict for one application
//                    class from one country (core::classify against the
//                    measured country minimum);
//   * kTopK        — the k best regions whose observed minimum meets a
//                    latency budget, ascending.
//
// Locations resolve to countries through the probe spatial index: the
// nearest vantage point (optionally restricted to the queried access
// technology) stands in for the user, exactly as the paper's probes
// stand in for populations. Batches fan out across query shards with
// core/parallel.hpp; answers are deterministic and byte-identical to
// the brute-force full-scan reference (serve/reference.hpp) for any
// thread count — the serve test suite and bench gate pin both.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "apps/application.hpp"
#include "core/feasibility.hpp"
#include "geo/coordinates.hpp"
#include "geo/country.hpp"
#include "geo/spatial_index.hpp"
#include "net/access.hpp"
#include "serve/columnar.hpp"
#include "topology/region.hpp"

namespace shears::obs {
class Counter;
class LatencyHistogram;
class MetricsRegistry;
}  // namespace shears::obs

namespace shears::serve {

enum class QueryKind : unsigned char { kBestRtt, kFeasibility, kTopK };

[[nodiscard]] constexpr std::string_view to_string(QueryKind k) noexcept {
  switch (k) {
    case QueryKind::kBestRtt: return "best-rtt";
    case QueryKind::kFeasibility: return "feasibility";
    case QueryKind::kTopK: return "top-k";
  }
  return "unknown";
}

struct Query {
  QueryKind kind = QueryKind::kBestRtt;
  /// Where the user is. Ignored when `country_iso2` is set.
  geo::GeoPoint where{};
  /// ISO-2 country override; empty = resolve via nearest probe to
  /// `where`.
  std::string_view country_iso2{};
  /// Access filter; ignored when any_access (the country rollup answers).
  net::AccessTechnology access = net::AccessTechnology::kEthernet;
  bool any_access = true;
  /// kFeasibility: application slug (apps::find_application).
  std::string_view app_id{};
  /// kTopK: RTT budget (ms) and result cap.
  double budget_ms = 0.0;
  std::uint32_t k = 0;
};

/// One ranked region of a kTopK answer.
struct RegionAnswer {
  const topology::CloudRegion* region = nullptr;
  double rtt_ms = 0.0;

  friend bool operator==(const RegionAnswer&, const RegionAnswer&) = default;
};

struct Answer {
  /// The query resolved to a country with data in scope (and, for
  /// kFeasibility, a known application). All payload below is zero/null
  /// when false.
  bool ok = false;
  const geo::Country* country = nullptr;
  /// kBestRtt / kFeasibility: the region behind the best observed RTT.
  const topology::CloudRegion* best_region = nullptr;
  double best_ms = 0.0;
  double median_ms = 0.0;  ///< of the best region's samples in scope
  double p95_ms = 0.0;
  /// kFeasibility payload.
  core::EdgeVerdict verdict = core::EdgeVerdict::kNoEdgeCase;
  bool in_zone = false;
  /// kTopK payload, ascending by (rtt, region index).
  std::vector<RegionAnswer> regions;

  friend bool operator==(const Answer&, const Answer&) = default;
};

struct OracleConfig {
  /// Threads a batch fans out over (0 = hardware concurrency). Answers
  /// are identical for any value.
  std::size_t threads = 0;
  /// Feasibility-zone geometry for kFeasibility verdicts.
  core::FeasibilityConfig feasibility{};
  /// With a mutable store (the non-const constructor), answer() calls
  /// refresh() on unrefreshed appends instead of failing — what a
  /// long-lived server in front of a live MeasurementSink wants.
  /// Ignored when the oracle only holds a const store.
  bool auto_refresh = false;
};

/// Outcome of a non-throwing batch. kStale is recoverable: refresh the
/// store (or build the oracle with auto_refresh) and ask again.
enum class BatchStatus : unsigned char { kOk, kStale };

/// What-if overlay seam: a scenario delta (new edge sites, 5G wireless
/// scaling, a routing change) substitutes the summary tables of exactly
/// the scopes it changes, and the oracle answers from base summaries plus
/// the overlay — the store is never rebuilt. Implementations (the
/// optimizer's opt::OverlayEvaluator is the heaviest client) must return
/// tables with the store's own shape — dense by region index, shard
/// cells carrying their sorted runs, rollups their scalars — built by
/// the same summarise_cell / summarise_rollup, so an overlay-answered
/// batch is bit-exact to one answered over a store rebuilt with the
/// delta applied (the `opt` differential suite pins this). Coverage
/// counts over shard cells only, so an overlay that substitutes a
/// rollup must also substitute every shard cell whose samples changed.
class SummaryOverlay {
 public:
  virtual ~SummaryOverlay() = default;

  /// Replacement per-region summary table for one scope: a country's
  /// all-access rollup (access == nullopt) or a (country, access) shard.
  /// Return nullopt to fall through to the base store (the common case —
  /// a delta touches few scopes). Spans must stay valid for the lifetime
  /// of the overlay object.
  [[nodiscard]] virtual std::optional<std::span<const RegionStats>> stats(
      std::size_t country_index,
      std::optional<net::AccessTechnology> access) const = 0;
};

/// Result of a weighted coverage fan-out (see Oracle::weighted_coverage).
struct CoverageResult {
  /// Σ weight over queries that resolved to a country with data in scope.
  double answered_weight = 0.0;
  /// Σ weight[i] * covered_fraction[i]: each query contributes the
  /// fraction of its scope's pooled samples at or below the budget.
  double covered_weight = 0.0;
  std::uint64_t answered = 0;  ///< queries that resolved
  std::uint64_t queries = 0;

  /// Weighted covered fraction over the answered queries (0 when none).
  [[nodiscard]] double fraction() const noexcept {
    return answered_weight > 0.0 ? covered_weight / answered_weight : 0.0;
  }

  friend bool operator==(const CoverageResult&, const CoverageResult&) =
      default;
};

class Oracle {
 public:
  /// `store` must be refresh()ed and outlive the oracle. Builds the
  /// probe and region spatial indexes once (per-access probe indexes
  /// included, so filtered location queries stay O(log n)).
  explicit Oracle(const ColumnarStore* store, OracleConfig config = {});

  /// Mutable-store overload: additionally allows config.auto_refresh to
  /// absorb live appends inside answer(). Refreshing is not thread-safe
  /// against concurrent answer() calls — serialise batches (the serving
  /// front-end's single event loop does).
  explicit Oracle(ColumnarStore* store, OracleConfig config = {});

  /// Answers a batch in place; out.size() must equal queries.size().
  /// Throws std::logic_error when the store has unrefreshed appends
  /// (unless auto_refresh absorbs them).
  void answer(std::span<const Query> queries, std::span<Answer> out) const;

  /// Non-throwing lifecycle variant: returns kStale (touching nothing)
  /// when the store has unrefreshed appends and auto-refresh is
  /// unavailable, kOk once every answer has been written.
  [[nodiscard]] BatchStatus try_answer(std::span<const Query> queries,
                                       std::span<Answer> out) const;

  [[nodiscard]] std::vector<Answer> answer(
      std::span<const Query> queries) const;

  [[nodiscard]] Answer answer_one(const Query& query) const;

  /// What-if variants: identical to answer()/try_answer() except that
  /// scopes the overlay substitutes are answered from its tables instead
  /// of the base store's. nullptr behaves exactly like the plain batch.
  void answer(std::span<const Query> queries, std::span<Answer> out,
              const SummaryOverlay* overlay) const;
  [[nodiscard]] BatchStatus try_answer(std::span<const Query> queries,
                                       std::span<Answer> out,
                                       const SummaryOverlay* overlay) const;

  /// Population-weighted coverage in one fan-out: for each query, the
  /// fraction of its scope's pooled samples (all regions merged) at or
  /// below `budget_ms`, folded as Σ weight·fraction / Σ weight over the
  /// queries that resolved to data. Empty `weights` means all 1.0;
  /// otherwise weights.size() must equal queries.size(). Per-query counts
  /// are integers computed independently, and the weighted fold runs
  /// sequentially on the calling thread in query order — the result is
  /// byte-identical for any thread count. Query kinds are ignored; only
  /// the scope fields (where/country_iso2/access/any_access) matter.
  /// Throws std::logic_error on a stale store (unless auto_refresh).
  [[nodiscard]] CoverageResult weighted_coverage(
      std::span<const Query> queries, double budget_ms,
      std::span<const double> weights = {},
      const SummaryOverlay* overlay = nullptr) const;

  /// Geodesic region lookups over the footprint's spatial index — the
  /// "where is the nearest datacenter" side of the serving surface.
  [[nodiscard]] std::vector<geo::SpatialHit> nearest_regions(
      const geo::GeoPoint& where, std::size_t n) const;
  [[nodiscard]] std::vector<geo::SpatialHit> regions_within_km(
      const geo::GeoPoint& where, double radius_km) const;

  [[nodiscard]] const ColumnarStore& store() const noexcept {
    return *store_;
  }

  /// Publishes serve.queries / serve.batches / serve.answers_ok /
  /// serve.queries.<kind> counters and the serve.batch_ms histogram.
  /// Counters accumulate per batch in locals and publish once, so the
  /// per-query path touches no atomics. Observational only; nullptr
  /// detaches. `metrics` must outlive the oracle.
  void attach_metrics(obs::MetricsRegistry* metrics);

 private:
  void answer_into(const Query& query, Answer& out,
                   const SummaryOverlay* overlay) const;
  /// Country of the query, resolved via iso2 or the spatial index;
  /// nullptr when unresolvable.
  [[nodiscard]] const geo::Country* resolve_country(const Query& q) const;
  /// Summary table of one scope — a country's rollup (access ==
  /// nullopt) or one of its shards: the overlay's substitution if it has
  /// one, the base store's otherwise.
  [[nodiscard]] std::span<const RegionStats> stats_in_scope(
      std::size_t country_index, std::optional<net::AccessTechnology> access,
      const SummaryOverlay* overlay) const;
  /// Shared staleness guard: refreshes via auto_refresh when possible,
  /// returns false when the batch must report kStale.
  [[nodiscard]] bool ensure_fresh() const;

  const ColumnarStore* store_;
  /// Set only by the mutable-store constructor; enables auto_refresh.
  ColumnarStore* mutable_store_ = nullptr;
  OracleConfig config_;
  geo::SpatialIndex region_index_;
  geo::SpatialIndex probe_index_;  ///< analysis-eligible probes
  std::vector<std::uint32_t> probe_of_hit_;  ///< index hit id -> probe id
  /// Per-access filtered probe indexes (same id indirection).
  std::array<geo::SpatialIndex, net::kAccessTechnologyCount> access_index_;
  std::array<std::vector<std::uint32_t>, net::kAccessTechnologyCount>
      access_probe_of_hit_;
  /// Metric handles resolved once at attach time; all null when detached.
  struct Instruments {
    obs::Counter* queries = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* answers_ok = nullptr;
    std::array<obs::Counter*, 3> by_kind{};
    obs::LatencyHistogram* batch_ms = nullptr;
  };
  Instruments instruments_{};
};

namespace detail {

/// Shared answer assembly over a per-region summary table (dense by
/// region index). Both the indexed oracle and the full-scan reference
/// feed it, so the two paths can only diverge where it matters — in how
/// the country was resolved and how the summaries were computed.
void answer_from_stats(const Query& query, const geo::Country* country,
                       std::span<const RegionStats> stats,
                       const topology::CloudRegistry& registry,
                       const core::FeasibilityConfig& feasibility,
                       Answer& out);

}  // namespace detail

}  // namespace shears::serve
