// footprint_planner — the optimizer end to end:
//  1. run a campaign into the columnar store (the measured base world),
//  2. generate candidate sites (cities x placement tiers) from the
//     scenario's [optimizer] section,
//  3. lazy-greedy search with overlay-evaluated what-ifs, swap-refined,
//  4. report the chosen footprint, its coverage gain, and a what-if
//     query answered through the scenario overlay without a rebuild.
//
// Build & run:  ./build/examples/footprint_planner [scenario.ini]
#include <fstream>
#include <iomanip>
#include <iostream>

#include "shears.hpp"

namespace {

shears::edge::EdgePlacement placement_from(const std::string& name) {
  using shears::edge::EdgePlacement;
  if (name == "basestation") return EdgePlacement::kBasestation;
  if (name == "central-office") return EdgePlacement::kCentralOffice;
  if (name == "regional-site") return EdgePlacement::kRegionalSite;
  return EdgePlacement::kMetroPop;  // config validated the name already
}

}  // namespace

int main(int argc, char** argv) {
  using namespace shears;

  config::Scenario scenario;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::cerr << "cannot open scenario " << argv[1] << '\n';
      return 1;
    }
    scenario = config::parse_scenario(in);
  } else {
    scenario = config::parse_scenario_string(
        "[fleet]\nprobes = 1600\n[campaign]\ndays = 7\n"
        "[optimizer]\nplacements = metro-pop, regional-site\n"
        "max_cities_per_country = 2\nmin_metro_population_m = 2\n"
        "max_sites = 6\n");
  }

  // 1. The measured base world.
  const atlas::ProbeFleet fleet = atlas::ProbeFleet::generate(scenario.fleet);
  const topology::CloudRegistry cloud = scenario.make_registry();
  const net::LatencyModel internet(scenario.model);
  serve::ColumnarStore store(&fleet, &cloud);
  atlas::Campaign campaign(fleet, cloud, internet, scenario.campaign);
  campaign.attach_sink(&store);
  (void)campaign.run();  // rows reach the store through the sink
  store.refresh();
  std::cout << "store: " << store.rows_stored() << " rows, "
            << store.shard_count() << " shards\n";

  // 2. Candidate universe from the scenario.
  opt::CandidateConfig candidates;
  if (!scenario.optimizer.placements.empty()) {
    candidates.placements.clear();
    for (const std::string& name : scenario.optimizer.placements) {
      candidates.placements.push_back(placement_from(name));
    }
  }
  candidates.max_cities_per_country =
      static_cast<std::size_t>(scenario.optimizer.max_cities_per_country);
  candidates.min_metro_population_m =
      scenario.optimizer.min_metro_population_m;
  std::vector<opt::CandidateSite> universe =
      opt::generate_candidates(candidates);
  std::cout << "candidates: " << universe.size() << " (cities x placements)\n";

  // 3. The search.
  opt::SearchConfig search;
  search.threshold_ms = scenario.optimizer.threshold_ms;
  search.max_sites = static_cast<std::size_t>(scenario.optimizer.max_sites);
  search.swap_passes =
      static_cast<std::size_t>(scenario.optimizer.swap_passes);
  search.wireless_scale = scenario.optimizer.wireless_scale;
  search.route_scale = scenario.optimizer.route_scale;
  opt::OverlayConfig overlay;
  overlay.path = scenario.model.path;
  const opt::FootprintSearch optimizer(&store, std::move(universe), search,
                                       overlay);
  const opt::FootprintPlan plan = optimizer.plan();

  std::cout << std::fixed << std::setprecision(4);
  std::cout << "coverage at " << std::setprecision(0) << search.threshold_ms
            << " ms: " << std::setprecision(4) << plan.base_objective
            << " -> " << plan.objective << " ("
            << plan.sites.size() << " sites)\n";
  for (const opt::PlanStep& step : plan.steps) {
    std::cout << "  + " << optimizer.candidates()[step.candidate].label
              << "  gain " << step.gain << '\n';
  }

  // 4. A what-if answered through the overlay — the store is untouched.
  const opt::OverlayView view =
      optimizer.evaluator().evaluate(optimizer.delta_for(plan.sites));
  std::cout << "overlay: " << view.affected_cells() << " cells, "
            << view.affected_countries() << " country rollups substituted\n";
  const serve::Oracle oracle(&store);
  for (const opt::CountryCoverage& c : plan.coverage.countries) {
    if (c.country == nullptr || plan.sites.empty()) break;
    if (c.country != optimizer.candidates()[plan.sites.front()].country) {
      continue;
    }
    serve::Query q;
    q.kind = serve::QueryKind::kBestRtt;
    q.country_iso2 = c.country->iso2;
    serve::Answer base_answer;
    serve::Answer what_if;
    oracle.answer(std::span<const serve::Query>(&q, 1),
                  std::span<serve::Answer>(&base_answer, 1));
    oracle.answer(std::span<const serve::Query>(&q, 1),
                  std::span<serve::Answer>(&what_if, 1), &view);
    if (base_answer.ok && what_if.ok) {
      std::cout << std::setprecision(1) << "best RTT from "
                << c.country->iso2 << ": " << base_answer.best_ms
                << " ms -> " << what_if.best_ms << " ms with the plan\n";
    }
    break;
  }
  return 0;
}
