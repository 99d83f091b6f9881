// The footprint optimizer: candidate generation, the scenario-overlay
// evaluator's bit-exactness against a store rebuilt with the delta
// applied, the oracle's overlay seam and weighted coverage, greedy
// optimality against exhaustive search on small instances, and byte
// identity of plans across thread counts.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "atlas/campaign.hpp"
#include "atlas/measurement.hpp"
#include "atlas/placement.hpp"
#include "edge/deployment.hpp"
#include "geo/country.hpp"
#include "net/latency_model.hpp"
#include "opt/candidates.hpp"
#include "opt/overlay.hpp"
#include "opt/search.hpp"
#include "serve/columnar.hpp"
#include "serve/oracle.hpp"
#include "topology/registry.hpp"

namespace shears::opt {
namespace {

// One shared measured world for the whole suite: a small campaign is
// still a few hundred thousand rows, so build it once.
struct Fixture {
  atlas::ProbeFleet fleet;
  topology::CloudRegistry cloud;
  net::LatencyModel model;
  serve::ColumnarStore store;

  Fixture()
      : fleet(atlas::ProbeFleet::generate([] {
          atlas::PlacementConfig config;
          config.probe_count = 512;
          config.seed = 7;
          return config;
        }())),
        cloud(topology::CloudRegistry::campaign_footprint()),
        model(),
        store(&fleet, &cloud) {
    atlas::CampaignConfig schedule;
    schedule.duration_days = 2;
    atlas::Campaign campaign(fleet, cloud, model, schedule);
    campaign.attach_sink(&store);
    (void)campaign.run();
    store.refresh();
  }
};

Fixture& fixture() {
  static Fixture* f = new Fixture();
  return *f;
}

CandidateConfig small_universe() {
  CandidateConfig config;
  config.placements = {edge::EdgePlacement::kMetroPop,
                       edge::EdgePlacement::kRegionalSite};
  config.max_cities_per_country = 2;
  config.min_metro_population_m = 2.0;
  return config;
}

void expect_stats_identical(std::span<const serve::RegionStats> a,
                            std::span<const serve::RegionStats> b,
                            const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(a[r].count, b[r].count) << what << " region " << r;
    if (a[r].empty()) continue;
    // Exact bitwise agreement, not tolerance: both sides must have run
    // the same samples through the same summary machinery.
    EXPECT_EQ(a[r].min_ms, b[r].min_ms) << what << " region " << r;
    EXPECT_EQ(a[r].median_ms, b[r].median_ms) << what << " region " << r;
    EXPECT_EQ(a[r].p95_ms, b[r].p95_ms) << what << " region " << r;
    EXPECT_EQ(a[r].sorted, b[r].sorted) << what << " region " << r;
  }
}

// Every (country, access) scope and country rollup of the overlay-
// answered world must equal the rebuilt store's bitwise. Scopes the
// overlay does not substitute fall through to the base store.
void expect_overlay_matches_rebuild(const OverlayEvaluator& evaluator,
                                    const ScenarioDelta& delta) {
  const OverlayView view = evaluator.evaluate(delta);
  const serve::ColumnarStore rebuilt = evaluator.rebuild_reference(delta);
  const serve::ColumnarStore& base = evaluator.store();
  for (std::size_t ci = 0; ci < geo::country_count(); ++ci) {
    const auto rollup = view.stats(ci, std::nullopt);
    expect_stats_identical(
        rollup.has_value() ? *rollup : base.country_stats(ci),
        rebuilt.country_stats(ci), "rollup");
    for (std::size_t a = 0; a < net::kAccessTechnologyCount; ++a) {
      const auto access = static_cast<net::AccessTechnology>(a);
      const auto cell = view.stats(ci, access);
      expect_stats_identical(
          cell.has_value() ? *cell : base.shard_stats(ci, access),
          rebuilt.shard_stats(ci, access), "cell");
    }
  }
}

// ------------------------------------------------------------ candidates

TEST(Candidates, IdsAreDenseAndDefaultsApplied) {
  const std::vector<CandidateSite> sites =
      generate_candidates(small_universe());
  ASSERT_FALSE(sites.empty());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    EXPECT_EQ(sites[i].id, i);
    ASSERT_NE(sites[i].country, nullptr);
    EXPECT_EQ(sites[i].radius_km,
              edge::placement_serve_radius_km(sites[i].placement));
    EXPECT_FALSE(sites[i].label.empty());
  }
  // Pure function of the config.
  const std::vector<CandidateSite> again =
      generate_candidates(small_universe());
  ASSERT_EQ(again.size(), sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    EXPECT_EQ(again[i].label, sites[i].label);
    EXPECT_EQ(again[i].where, sites[i].where);
  }
}

TEST(Candidates, HubFallbackKeepsCitylessCountriesInPlay) {
  CandidateConfig config;
  config.placements = {edge::EdgePlacement::kMetroPop};
  config.max_cities_per_country = 0;  // force the fallback everywhere
  config.include_country_hubs = true;
  const std::vector<CandidateSite> sites = generate_candidates(config);
  EXPECT_EQ(sites.size(), geo::country_count());
  for (const CandidateSite& site : sites) {
    EXPECT_NE(site.label.find("hub"), std::string::npos);
  }
}

TEST(Candidates, PopulationShareFilterPrunes) {
  CandidateConfig all = small_universe();
  CandidateConfig big = small_universe();
  big.min_population_share = 0.01;  // only ~1%-of-world countries
  EXPECT_LT(generate_candidates(big).size(),
            generate_candidates(all).size());
}

// ---------------------------------------------------------- geo accessors

TEST(GeoAccessors, PopulationSharesSumToOne) {
  double total = 0.0;
  for (const geo::Country& c : geo::all_countries()) {
    const double share = geo::population_share(c);
    EXPECT_GT(share, 0.0);
    total += share;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(GeoAccessors, TierMarginalCoversTheWorld) {
  const double sum = geo::population_in_tier_m(geo::ConnectivityTier::kTier1) +
                     geo::population_in_tier_m(geo::ConnectivityTier::kTier2) +
                     geo::population_in_tier_m(geo::ConnectivityTier::kTier3) +
                     geo::population_in_tier_m(geo::ConnectivityTier::kTier4);
  EXPECT_NEAR(sum, geo::world_population_m(), 1e-6);
}

// ------------------------------------------------------------- overlay

TEST(Overlay, IdentityDeltaSubstitutesNothing) {
  const OverlayEvaluator evaluator(&fixture().store);
  const OverlayView view = evaluator.evaluate(ScenarioDelta{});
  EXPECT_EQ(view.affected_cells(), 0u);
  EXPECT_EQ(view.affected_countries(), 0u);
  EXPECT_FALSE(view.stats(0, std::nullopt).has_value());
}

TEST(Overlay, WirelessDeltaMatchesRebuild) {
  const OverlayEvaluator evaluator(&fixture().store);
  ScenarioDelta delta;
  delta.wireless_scale = 0.5;
  expect_overlay_matches_rebuild(evaluator, delta);
}

TEST(Overlay, RouteDeltaMatchesRebuild) {
  const OverlayEvaluator evaluator(&fixture().store);
  ScenarioDelta delta;
  delta.route_scale = 1.3;
  expect_overlay_matches_rebuild(evaluator, delta);
}

TEST(Overlay, SiteDeltaMatchesRebuild) {
  const OverlayEvaluator evaluator(&fixture().store);
  const std::vector<CandidateSite> sites =
      generate_candidates(small_universe());
  ASSERT_GE(sites.size(), 8u);
  ScenarioDelta delta;
  for (std::size_t i = 0; i < sites.size(); i += sites.size() / 4) {
    delta.sites.push_back(to_spec(sites[i]));
  }
  expect_overlay_matches_rebuild(evaluator, delta);
}

TEST(Overlay, CombinedDeltaMatchesRebuild) {
  const OverlayEvaluator evaluator(&fixture().store);
  const std::vector<CandidateSite> sites =
      generate_candidates(small_universe());
  ScenarioDelta delta;
  delta.wireless_scale = 0.25;
  delta.route_scale = 0.9;
  delta.sites.push_back(to_spec(sites[0]));
  delta.sites.push_back(to_spec(sites[sites.size() / 2]));
  expect_overlay_matches_rebuild(evaluator, delta);
}

TEST(Overlay, SiteDeltaOnlyTouchesCoveredCountries) {
  const OverlayEvaluator evaluator(&fixture().store);
  SiteSpec site;
  site.where = geo::find_country("DE")->site;
  site.placement = edge::EdgePlacement::kMetroPop;
  ScenarioDelta delta;
  delta.sites.push_back(site);
  const OverlayView view = evaluator.evaluate(delta);
  // A 150 km metro disc around Berlin touches a handful of countries at
  // most — the overlay must not have materialised the whole store.
  EXPECT_GT(view.affected_cells(), 0u);
  EXPECT_LE(view.affected_countries(), 8u);
  const std::size_t us = serve::country_index_of(geo::find_country("US"));
  EXPECT_FALSE(view.stats(us, std::nullopt).has_value());
}

TEST(Overlay, CoverageImprovesWithSitesAndWireless) {
  const OverlayEvaluator evaluator(&fixture().store);
  const double threshold = 60.0;
  const CoverageReport base =
      evaluator.coverage(ScenarioDelta{}, threshold);
  EXPECT_GT(base.weighted_fraction, 0.0);
  EXPECT_LT(base.weighted_fraction, 1.0);
  EXPECT_GT(base.weight_with_data, 0.5);

  ScenarioDelta wireless;
  wireless.wireless_scale = 0.3;
  const CoverageReport better = evaluator.coverage(wireless, threshold);
  EXPECT_GE(better.weighted_fraction, base.weighted_fraction);

  // Transforms are monotone per row, so per-country coverage can only
  // move up under relief.
  ASSERT_EQ(better.countries.size(), base.countries.size());
  for (std::size_t i = 0; i < base.countries.size(); ++i) {
    EXPECT_GE(better.countries[i].covered, base.countries[i].covered);
    EXPECT_EQ(better.countries[i].rows, base.countries[i].rows);
  }
}

TEST(Overlay, CoverageIsThreadCountInvariant) {
  OverlayConfig one;
  one.threads = 1;
  OverlayConfig eight;
  eight.threads = 8;
  const OverlayEvaluator e1(&fixture().store, one);
  const OverlayEvaluator e8(&fixture().store, eight);
  const std::vector<CandidateSite> sites =
      generate_candidates(small_universe());
  ScenarioDelta delta;
  delta.wireless_scale = 0.5;
  delta.sites.push_back(to_spec(sites[1]));
  delta.sites.push_back(to_spec(sites[3]));
  const CoverageReport a = e1.coverage(delta, 50.0);
  const CoverageReport b = e8.coverage(delta, 50.0);
  EXPECT_EQ(a, b);
}

// ------------------------------------------------------- oracle seam

TEST(OracleOverlay, NullOverlayAnswersExactlyLikeBase) {
  const serve::Oracle oracle(&fixture().store);
  std::vector<serve::Query> queries;
  for (const char* iso : {"DE", "US", "KE", "BR", "JP"}) {
    serve::Query q;
    q.kind = serve::QueryKind::kBestRtt;
    q.country_iso2 = iso;
    queries.push_back(q);
  }
  std::vector<serve::Answer> plain(queries.size());
  std::vector<serve::Answer> with_null(queries.size());
  oracle.answer(queries, plain);
  oracle.answer(queries, with_null, nullptr);
  EXPECT_EQ(plain, with_null);
}

TEST(OracleOverlay, OverlayAnswersMatchRebuiltStore) {
  const OverlayEvaluator evaluator(&fixture().store);
  const std::vector<CandidateSite> sites =
      generate_candidates(small_universe());
  ScenarioDelta delta;
  delta.wireless_scale = 0.5;
  delta.sites.push_back(to_spec(sites[0]));
  const OverlayView view = evaluator.evaluate(delta);
  const serve::ColumnarStore rebuilt = evaluator.rebuild_reference(delta);

  const serve::Oracle base_oracle(&fixture().store);
  const serve::Oracle rebuilt_oracle(&rebuilt);

  std::vector<serve::Query> queries;
  for (const geo::Country& c : geo::all_countries()) {
    serve::Query best;
    best.kind = serve::QueryKind::kBestRtt;
    best.country_iso2 = c.iso2;
    queries.push_back(best);
    serve::Query topk;
    topk.kind = serve::QueryKind::kTopK;
    topk.country_iso2 = c.iso2;
    topk.budget_ms = 80.0;
    topk.k = 3;
    queries.push_back(topk);
    serve::Query lte = best;
    lte.any_access = false;
    lte.access = net::AccessTechnology::kLte;
    queries.push_back(lte);
  }
  std::vector<serve::Answer> overlaid(queries.size());
  std::vector<serve::Answer> reference(queries.size());
  base_oracle.answer(queries, overlaid, &view);
  rebuilt_oracle.answer(queries, reference);
  ASSERT_EQ(overlaid.size(), reference.size());
  for (std::size_t i = 0; i < overlaid.size(); ++i) {
    EXPECT_EQ(overlaid[i], reference[i]) << "query " << i;
  }
}

TEST(OracleOverlay, WeightedCoverageFoldsPopulationWeights) {
  const serve::Oracle oracle(&fixture().store);
  std::vector<serve::Query> queries;
  std::vector<double> weights;
  for (const char* iso : {"DE", "US", "KE"}) {
    serve::Query q;
    q.country_iso2 = iso;
    queries.push_back(q);
    weights.push_back(geo::population_share(*geo::find_country(iso)));
  }
  const double budget = 60.0;
  const serve::CoverageResult result =
      oracle.weighted_coverage(queries, budget, weights);
  ASSERT_EQ(result.queries, queries.size());
  ASSERT_EQ(result.answered, queries.size());

  // Reproduce the fold by hand from the country's shard cells.
  double covered_weight = 0.0;
  double answered_weight = 0.0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::size_t ci = serve::country_index_of(
        geo::find_country(queries[i].country_iso2));
    std::uint64_t covered = 0;
    std::uint64_t total = 0;
    for (std::size_t a = 0; a < net::kAccessTechnologyCount; ++a) {
      for (const serve::RegionStats& cell : fixture().store.shard_stats(
               ci, static_cast<net::AccessTechnology>(a))) {
        total += cell.count;
        for (float v : cell.sorted) covered += v <= budget ? 1 : 0;
      }
    }
    ASSERT_GT(total, 0u);
    answered_weight += weights[i];
    covered_weight += weights[i] * (static_cast<double>(covered) /
                                    static_cast<double>(total));
  }
  EXPECT_EQ(result.answered_weight, answered_weight);
  EXPECT_EQ(result.covered_weight, covered_weight);
  EXPECT_EQ(result.fraction(), covered_weight / answered_weight);

  // Unweighted call: every query counts 1.0.
  const serve::CoverageResult unweighted =
      oracle.weighted_coverage(queries, budget);
  EXPECT_EQ(unweighted.answered_weight, 3.0);
}

TEST(OracleOverlay, WeightedCoverageIsThreadCountInvariant) {
  serve::OracleConfig one;
  one.threads = 1;
  serve::OracleConfig eight;
  eight.threads = 8;
  const serve::Oracle o1(&fixture().store, one);
  const serve::Oracle o8(&fixture().store, eight);
  std::vector<serve::Query> queries;
  std::vector<double> weights;
  for (const geo::Country& c : geo::all_countries()) {
    serve::Query q;
    q.country_iso2 = c.iso2;
    queries.push_back(q);
    weights.push_back(geo::population_share(c));
  }
  EXPECT_EQ(o1.weighted_coverage(queries, 50.0, weights),
            o8.weighted_coverage(queries, 50.0, weights));
}

TEST(OracleOverlay, WeightSizeMismatchThrows) {
  const serve::Oracle oracle(&fixture().store);
  std::vector<serve::Query> queries(3);
  const std::vector<double> weights(2, 1.0);
  EXPECT_THROW((void)oracle.weighted_coverage(queries, 50.0, weights),
               std::invalid_argument);
}

// --------------------------------------------------------------- search

SearchConfig small_search() {
  SearchConfig config;
  config.threshold_ms = 45.0;
  config.max_sites = 3;
  return config;
}

std::vector<CandidateSite> first_n_candidates(std::size_t n) {
  std::vector<CandidateSite> sites = generate_candidates(small_universe());
  if (sites.size() > n) sites.resize(n);  // ids stay 0..n-1
  return sites;
}

TEST(Search, GreedyWithSwapsMatchesExhaustiveOptimum) {
  const FootprintSearch search(&fixture().store, first_n_candidates(12),
                               small_search());
  const FootprintPlan greedy = search.plan();
  const FootprintPlan exact = search.exhaustive();
  // On instances this small the swap-refined greedy must land on the
  // optimum — and both plans report through the same fresh coverage
  // fold, so agreement is exact, not approximate.
  EXPECT_EQ(greedy.objective, exact.objective);
  // And the classic lazy-greedy guarantee holds with room to spare.
  EXPECT_GE(greedy.objective - greedy.base_objective,
            (1.0 - 1.0 / std::exp(1.0)) *
                (exact.objective - exact.base_objective) - 1e-12);
}

TEST(Search, GreedyGainsAreMonotoneAndObjectiveConsistent) {
  SearchConfig config = small_search();
  config.max_sites = 5;
  config.swap_passes = 0;
  const FootprintSearch search(&fixture().store,
                               generate_candidates(small_universe()), config);
  const FootprintPlan plan = search.plan();
  ASSERT_FALSE(plan.steps.empty());
  for (std::size_t i = 1; i < plan.steps.size(); ++i) {
    // Submodularity: marginal gains shrink along the greedy path.
    EXPECT_LE(plan.steps[i].gain, plan.steps[i - 1].gain + 1e-15);
  }
  EXPECT_GE(plan.objective, plan.base_objective);
  // The reported coverage is a fresh evaluator fold of the same delta.
  const CoverageReport check =
      search.evaluator().coverage(search.delta_for(plan.sites),
                                  config.threshold_ms);
  EXPECT_EQ(plan.coverage, check);
  EXPECT_EQ(plan.objective, check.weighted_fraction);
}

TEST(Search, PlanIsByteIdenticalAcrossThreadCounts) {
  SearchConfig one = small_search();
  one.max_sites = 4;
  one.threads = 1;
  SearchConfig eight = one;
  eight.threads = 8;
  OverlayConfig overlay_one;
  overlay_one.threads = 1;
  OverlayConfig overlay_eight;
  overlay_eight.threads = 8;
  const FootprintSearch s1(&fixture().store,
                           generate_candidates(small_universe()), one,
                           overlay_one);
  const FootprintSearch s8(&fixture().store,
                           generate_candidates(small_universe()), eight,
                           overlay_eight);
  const FootprintPlan p1 = s1.plan();
  const FootprintPlan p8 = s8.plan();
  EXPECT_EQ(p1, p8);  // sites, steps, coverage report — everything
}

TEST(Search, ExhaustiveGuardsAgainstLargeUniverses) {
  const FootprintSearch search(
      &fixture().store,
      first_n_candidates(FootprintSearch::kExhaustiveLimit + 1),
      small_search());
  EXPECT_THROW((void)search.exhaustive(), std::invalid_argument);
}

TEST(Search, CandidateIdMismatchThrows) {
  std::vector<CandidateSite> sites = first_n_candidates(4);
  sites[2].id = 7;
  EXPECT_THROW(FootprintSearch(&fixture().store, std::move(sites),
                               small_search()),
               std::invalid_argument);
}

TEST(Search, ZeroBudgetReturnsBasePlan) {
  SearchConfig config = small_search();
  config.max_sites = 0;
  const FootprintSearch search(&fixture().store, first_n_candidates(8),
                               config);
  const FootprintPlan plan = search.plan();
  EXPECT_TRUE(plan.sites.empty());
  EXPECT_EQ(plan.objective, plan.base_objective);
}

}  // namespace
}  // namespace shears::opt
