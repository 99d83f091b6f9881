// Footprint-optimizer acceptance bench: what the overlay evaluator buys
// over the naive planner loop. A naive what-if scorer rebuilds the whole
// columnar store for every candidate site it considers; the optimizer's
// incremental path pays one base pass over the raw columns and then
// scores every candidate from per-candidate probe lists.
//
// Gates (env-tunable, see bench/CMakeLists.txt for the smoke cut):
//  - scoring the full candidate slate incrementally must beat the naive
//    rebuild-per-candidate loop by SHEARS_OPT_GATE (default 10x),
//  - the incremental coverage must equal the rebuilt store's recount
//    exactly, and the chosen plan must be byte-identical across thread
//    counts — both always asserted, never relaxed.
// Numbers land in the serving-layer JSON (run_benches.sh routes this
// binary to results/BENCH_serve.json).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "atlas/measurement.hpp"
#include "bench_common.hpp"
#include "edge/deployment.hpp"
#include "geo/country.hpp"
#include "opt/candidates.hpp"
#include "opt/overlay.hpp"
#include "opt/search.hpp"
#include "serve/columnar.hpp"

namespace {

using namespace shears;
using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

/// What a naive planner does per candidate after the rebuild: scan the
/// rebuilt store and fold the population-weighted covered fraction, the
/// same arithmetic as OverlayEvaluator::coverage.
double coverage_of_store(const serve::ColumnarStore& store,
                         double threshold_ms) {
  std::vector<std::uint64_t> rows(geo::country_count(), 0);
  std::vector<std::uint64_t> covered(geo::country_count(), 0);
  for (const serve::ColumnarStore::ShardView& shard : store.shards()) {
    const std::size_t ci = serve::country_index_of(shard.country);
    rows[ci] += shard.rtt_ms.size();
    for (const float v : shard.rtt_ms) {
      covered[ci] += static_cast<double>(v) <= threshold_ms ? 1 : 0;
    }
  }
  double weight = 0.0;
  double fraction = 0.0;
  for (const geo::Country& c : geo::all_countries()) {
    const std::size_t ci = serve::country_index_of(&c);
    if (rows[ci] == 0) continue;
    const double share = geo::population_share(c);
    weight += share;
    fraction += share * (static_cast<double>(covered[ci]) /
                         static_cast<double>(rows[ci]));
  }
  return weight > 0.0 ? fraction / weight : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_title(
      "footprint optimizer: overlay-evaluated site search",
      "incremental candidate scoring >= 10x naive per-candidate rebuild");

  auto campaign = bench::make_standard_campaign(argc, argv);
  campaign.bench_name = "opt_campaign";
  const atlas::MeasurementDataset dataset = campaign.run();
  const serve::ColumnarStore store =
      serve::ColumnarStore::build(dataset, serve::StoreConfig{0});
  std::printf("store: %zu rows, %zu shards\n", store.rows_stored(),
              store.shard_count());

  // The candidate slate: top metro cities x two placement tiers.
  opt::CandidateConfig universe;
  universe.placements = {edge::EdgePlacement::kMetroPop,
                         edge::EdgePlacement::kRegionalSite};
  universe.max_cities_per_country = 1;
  universe.min_metro_population_m = 4.0;
  universe.min_population_share = 0.005;
  std::vector<opt::CandidateSite> candidates =
      opt::generate_candidates(universe);
  if (candidates.size() > 12) candidates.resize(12);  // ids stay dense
  const std::size_t slate = candidates.size();
  bench::bench_record_value("opt_candidate_universe",
                            static_cast<double>(slate));
  std::printf("candidates: %zu (top metros x {metro-pop, regional-site})\n",
              slate);

  opt::SearchConfig config;
  config.threshold_ms = 50.0;
  config.max_sites = 4;
  config.swap_passes = 1;

  // Incremental path: one base pass over the raw columns (search
  // construction), then every candidate scored from its probe list —
  // max_sites=1 stops after exactly one full scoring round, the unit a
  // naive planner would pay `slate` rebuilds for.
  opt::SearchConfig one_round = config;
  one_round.max_sites = 1;
  one_round.swap_passes = 0;
  auto start = clock_type::now();
  const opt::FootprintSearch scorer(&store, candidates, one_round);
  const opt::FootprintPlan first = scorer.plan();
  const double incremental_s = seconds_since(start);
  bench::bench_record("opt_incremental_score_all", incremental_s,
                      static_cast<double>(slate));
  std::printf("incremental: base pass + %zu candidates scored in %.3f s\n",
              slate, incremental_s);

  // Naive path: per candidate, rebuild the store with the site applied
  // and recount coverage from the rebuilt columns.
  const opt::OverlayEvaluator& evaluator = scorer.evaluator();
  double naive_best = -1.0;
  std::uint32_t naive_pick = 0;
  start = clock_type::now();
  for (const opt::CandidateSite& site : candidates) {
    opt::ScenarioDelta delta;
    delta.sites.push_back(opt::to_spec(site));
    const serve::ColumnarStore rebuilt = evaluator.rebuild_reference(delta);
    const double objective = coverage_of_store(rebuilt, config.threshold_ms);
    if (objective > naive_best) {
      naive_best = objective;
      naive_pick = site.id;
    }
  }
  const double naive_s = seconds_since(start);
  bench::bench_record("opt_naive_rebuild_per_candidate", naive_s,
                      static_cast<double>(slate));
  std::printf("naive: %zu rebuild+recount evaluations in %.3f s\n", slate,
              naive_s);

  // The two paths must agree exactly on the best first site and its
  // objective — the speedup means nothing if the answers differ.
  if (first.sites.size() != 1 || first.sites.front() != naive_pick ||
      first.objective != naive_best) {
    std::printf("FAIL: incremental pick %u (%.6f) != naive pick %u (%.6f)\n",
                first.sites.empty() ? 0u : first.sites.front(),
                first.objective, naive_pick, naive_best);
    return 1;
  }

  // Overlay materialisation of every shard and rollup (a route change
  // touches them all) — the evaluator's two parallel phases; median of
  // five runs.
  opt::ScenarioDelta route;
  route.route_scale = 1.1;
  std::vector<double> evaluate_s;
  for (int run = 0; run < 5; ++run) {
    start = clock_type::now();
    const opt::OverlayView view = evaluator.evaluate(route);
    evaluate_s.push_back(seconds_since(start));
  }
  std::sort(evaluate_s.begin(), evaluate_s.end());
  bench::bench_record("opt_overlay_evaluate_all_shards", evaluate_s[2],
                      static_cast<double>(store.shard_count()));
  std::printf("overlay: every shard and rollup materialised in %.3f s\n",
              evaluate_s[2]);

  const double speedup = incremental_s > 0.0 ? naive_s / incremental_s : 0.0;
  bench::bench_record_value("opt_speedup_vs_rebuild", speedup);
  double gate = 10.0;
  if (const char* env = std::getenv("SHEARS_OPT_GATE")) {
    if (const double v = std::atof(env); v > 0.0) gate = v;
  }
  std::printf("speedup (incremental vs rebuild-per-candidate): %.1fx  "
              "(gate %.0fx)  picks agree exactly\n",
              speedup, gate);
  if (speedup < gate) {
    std::printf("FAIL: speedup below gate\n");
    return 1;
  }

  // Full plan, timed at 8 threads; byte-identity against a single-thread
  // run is always asserted.
  opt::SearchConfig eight = config;
  eight.threads = 8;
  opt::OverlayConfig overlay_eight;
  overlay_eight.threads = 8;
  start = clock_type::now();
  const opt::FootprintSearch s8(&store, candidates, eight, overlay_eight);
  const opt::FootprintPlan p8 = s8.plan();
  const double plan_s = seconds_since(start);
  bench::bench_record("opt_plan_greedy_swap", plan_s,
                      static_cast<double>(slate));
  std::printf("plan: %zu sites, coverage %.4f -> %.4f in %.3f s (8 threads)\n",
              p8.sites.size(), p8.base_objective, p8.objective, plan_s);

  opt::SearchConfig one_thread = config;
  one_thread.threads = 1;
  opt::OverlayConfig overlay_one;
  overlay_one.threads = 1;
  const opt::FootprintSearch s1(&store, std::move(candidates), one_thread,
                                overlay_one);
  const opt::FootprintPlan p1 = s1.plan();
  const bool identical = p1 == p8;
  bench::bench_record_value("opt_identical", identical ? 1.0 : 0.0);
  if (!identical) {
    std::printf("FAIL: plan differs between 1 and 8 threads\n");
    return 1;
  }
  std::printf("plan byte-identical across thread counts\n");
  return 0;
}
