// Scenario files: one INI file describes a complete experiment — fleet,
// schedule, latency-model knobs, and the cloud footprint — so studies can
// be rerun and varied without recompiling. Strict parsing: any unknown
// key aborts (catches typos in sweeps).
//
// Example:
//   [fleet]
//   probes = 3200
//   seed = 42
//   [campaign]
//   days = 30
//   interval_hours = 3
//   uptime = 0.97
//   [model]
//   wireless_scale = 0.5      ; the 5G what-if
//   diurnal_amplitude = 0.15
//   [footprint]
//   year = 2016               ; historical snapshot
//   providers = Amazon, Google
#pragma once

#include <iosfwd>
#include <string>

#include "atlas/campaign.hpp"
#include "atlas/placement.hpp"
#include "faults/fault_schedule.hpp"
#include "front/server.hpp"
#include "front/traffic.hpp"
#include "net/latency_model.hpp"
#include "topology/registry.hpp"

namespace shears::config {

struct Scenario {
  std::string name = "default";
  atlas::PlacementConfig fleet{};
  atlas::CampaignConfig campaign{};
  net::LatencyModelConfig model{};
  /// Fault-injection knobs ([faults] section); all rates default to 0,
  /// so an unfaulted scenario builds an empty schedule. Retry/quarantine
  /// knobs ([resilience]) live inside `campaign`.
  faults::FaultScheduleConfig faults{};
  /// Serving front-end knobs ([traffic] section): admission control,
  /// batching and the traffic-generator session driven against the
  /// oracle built from this scenario's dataset.
  front::FrontConfig front{};
  front::TrafficConfig traffic{};
  /// Store-snapshot persistence knobs ([snapshot] section), consumed by
  /// the drivers (examples/store_snapshot) that own a serve store.
  /// Strings and bools only — config does not link the serve layer.
  struct SnapshotConfig {
    std::string path{};   ///< base snapshot file; empty = persistence off
    std::string delta{};  ///< delta-log file; empty = no incremental log
    bool lazy = false;    ///< defer the summary rebuild to first use
    bool compact = false;  ///< fold the delta log into the base after load
  };
  SnapshotConfig snapshot{};
  /// Footprint-optimizer knobs ([optimizer] section), consumed by the
  /// drivers (examples/footprint_planner) that own a serve store and the
  /// opt subsystem. Plain scalars and strings only — config does not
  /// link opt, mirroring the snapshot section's layering.
  struct OptimizerConfig {
    double threshold_ms = 50.0;    ///< coverage budget (ms)
    int max_sites = 8;             ///< site budget of the search
    int swap_passes = 1;           ///< local-search rounds after greedy
    double wireless_scale = 1.0;   ///< base-delta 5G knob
    double route_scale = 1.0;      ///< base-delta routing multiplier
    /// Placement tiers of the candidate universe (edge::EdgePlacement
    /// names: basestation | central-office | metro-pop | regional-site).
    std::vector<std::string> placements{};
    int max_cities_per_country = 4;
    double min_metro_population_m = 0.0;
  };
  OptimizerConfig optimizer{};
  /// Footprint snapshot year; 0 = the full campaign footprint.
  int footprint_year = 0;
  /// Provider subset; empty = all seven.
  std::vector<topology::CloudProvider> providers{};

  /// Materialises the registry described by year/providers.
  [[nodiscard]] topology::CloudRegistry make_registry() const;

  /// Builds the fault schedule: empty when no [faults] rate is set.
  [[nodiscard]] faults::FaultSchedule make_fault_schedule() const;
};

/// Parses a scenario file; throws std::runtime_error on malformed input,
/// unknown keys, unknown provider names, or out-of-range values.
[[nodiscard]] Scenario parse_scenario(std::istream& is);
[[nodiscard]] Scenario parse_scenario_string(const std::string& text);

/// The default scenario as a commented INI document (for --print-default).
[[nodiscard]] std::string default_scenario_text();

}  // namespace shears::config
