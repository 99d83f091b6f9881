// store_snapshot — snapshot persistence end to end, driven by the
// [snapshot] scenario section:
//  * cold start: run the scenario's campaign, stream it through a
//    ColumnarStore (plus the delta log when configured), and save the
//    base snapshot;
//  * warm start: when the snapshot file already exists, load it back
//    (eager or lazy) instead of replaying the campaign, apply any delta
//    log, and optionally compact the log into a fresh base.
// Either path ends in the same store; a sample oracle query proves it
// answers.
//
// Usage:  store_snapshot [scenario.ini]
//         (no scenario: 7-day defaults, snapshot at store.snap)
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>

#include "shears.hpp"

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
    scenario.campaign.duration_days = 7;
    scenario.snapshot.path = "store.snap";
  }
  if (scenario.snapshot.path.empty()) {
    std::cerr << "scenario has no [snapshot] path — nothing to persist\n";
    return 1;
  }

  const atlas::ProbeFleet fleet = atlas::ProbeFleet::generate(scenario.fleet);
  const topology::CloudRegistry cloud = scenario.make_registry();
  const net::LatencyModel model(scenario.model);
  const faults::FaultSchedule schedule = scenario.make_fault_schedule();

  serve::SnapshotLoadOptions options;
  options.lazy_summaries = scenario.snapshot.lazy;

  serve::ColumnarStore store(&fleet, &cloud);
  const bool have_snapshot =
      std::ifstream(scenario.snapshot.path).good();
  try {
    if (have_snapshot) {
      // Warm start: the snapshot replaces the campaign replay.
      store = serve::load_snapshot(scenario.snapshot.path, &fleet, &cloud,
                                   {}, options);
      std::cout << "loaded " << scenario.snapshot.path
                << (scenario.snapshot.lazy ? " (lazy)" : "") << ": "
                << store.rows_stored() << " rows\n";
      if (!scenario.snapshot.delta.empty() &&
          std::ifstream(scenario.snapshot.delta).good()) {
        const std::size_t segments =
            serve::apply_delta_log(store, scenario.snapshot.delta);
        std::cout << "applied " << segments << " delta segments from "
                  << scenario.snapshot.delta << " -> "
                  << store.rows_stored() << " rows\n";
      }
      store.refresh();
      if (scenario.snapshot.compact && !scenario.snapshot.delta.empty()) {
        serve::DeltaLog log(&store, scenario.snapshot.delta,
                            serve::DeltaLog::Open::kTruncate);
        log.compact(scenario.snapshot.path);
        std::cout << "compacted the delta log into "
                  << scenario.snapshot.path << '\n';
      }
    } else {
      // Cold start: campaign -> store (and delta log, when configured),
      // then persist the base.
      atlas::Campaign campaign(fleet, cloud, model, scenario.campaign,
                               schedule.empty() ? nullptr : &schedule);
      if (scenario.snapshot.delta.empty()) {
        campaign.attach_sink(&store);
        (void)campaign.run();
        store.refresh();
        serve::save_snapshot(store, scenario.snapshot.path);
      } else {
        serve::DeltaLog log(&store, scenario.snapshot.delta);
        campaign.attach_sink(&log);
        (void)campaign.run();
        store.refresh();
        log.compact(scenario.snapshot.path);
      }
      std::cout << "ran " << scenario.campaign.duration_days
                << "-day campaign and saved " << scenario.snapshot.path
                << ": " << store.rows_stored() << " rows\n";
    }
  } catch (const std::exception& error) {
    std::cerr << "snapshot persistence failed: " << error.what() << '\n';
    return 1;
  }

  // The restored (or fresh) store must answer — the paper's feasibility
  // question as the smoke query.
  serve::Oracle oracle(&store);
  serve::Query query;
  query.kind = serve::QueryKind::kFeasibility;
  query.country_iso2 = "DE";
  query.app_id = "cloud-gaming";
  const serve::Answer answer = oracle.answer_one(query);
  if (answer.ok) {
    std::cout << std::fixed << std::setprecision(1)
              << "cloud gaming from DE (best " << answer.best_ms
              << " ms): " << to_string(answer.verdict) << '\n';
  }
  return 0;
}
