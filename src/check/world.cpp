#include "check/world.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <sstream>
#include <vector>

#include "apps/application.hpp"
#include "atlas/tags.hpp"
#include "geo/country.hpp"
#include "net/access.hpp"

namespace shears::check {

namespace {

/// Scatters a probe around its country's primary site, clamped to valid
/// WGS-84 ranges (good enough for a test fleet; haversine only needs
/// validity, not realism).
geo::GeoPoint scatter(Gen& gen, const geo::GeoPoint& site) {
  geo::GeoPoint p;
  p.lat_deg = std::clamp(site.lat_deg + gen.real_in(-1.5, 1.5), -90.0, 90.0);
  p.lon_deg = std::clamp(site.lon_deg + gen.real_in(-1.5, 1.5), -180.0, 180.0);
  return p;
}

atlas::Probe make_probe(Gen& gen, atlas::ProbeId id) {
  const std::span<const geo::Country> countries = geo::all_countries();
  atlas::Probe probe;
  probe.id = id;
  probe.country = &gen.pick(countries);
  probe.endpoint.location = scatter(gen, probe.country->site);
  probe.endpoint.tier = probe.country->tier;
  probe.endpoint.access =
      gen.pick(std::span<const net::AccessTechnology>(
          net::kAllAccessTechnologies));
  probe.endpoint.access_quality = gen.real_in(0.8, 1.3);
  // A sprinkle of privileged probes exercises the §4.1 exclusion filter.
  probe.environment = gen.chance(0.1)
                          ? atlas::Environment::kDatacenter
                          : gen.pick({atlas::Environment::kHome,
                                      atlas::Environment::kOffice,
                                      atlas::Environment::kCoreNetwork});
  probe.tags = atlas::make_tags(probe.endpoint.access, probe.environment,
                                gen.chance(0.7));
  return probe;
}

}  // namespace

topology::CloudRegistry make_registry(Gen& gen) {
  topology::CloudRegistry registry = [&] {
    switch (gen.below(4)) {
      case 1:
        return topology::CloudRegistry::footprint_as_of(gen.int_in(2008, 2020));
      case 2: {
        std::vector<topology::CloudProvider> providers;
        for (const topology::CloudProvider p : topology::kAllProviders) {
          if (gen.chance(0.4)) providers.push_back(p);
        }
        if (providers.empty()) {
          providers.push_back(
              gen.pick(std::span<const topology::CloudProvider>(
                  topology::kAllProviders)));
        }
        return topology::CloudRegistry::for_providers(providers);
      }
      case 3:
        return topology::CloudRegistry::for_providers(
            {gen.pick(std::span<const topology::CloudProvider>(
                topology::kAllProviders))});
      default:
        return topology::CloudRegistry::campaign_footprint();
    }
  }();
  // A campaign against an empty footprint produces nothing to check;
  // every embedded snapshot we pick from is non-empty, but guard anyway.
  if (registry.empty()) {
    registry = topology::CloudRegistry::campaign_footprint();
  }
  return registry;
}

atlas::ProbeFleet make_fleet(Gen& gen) {
  if (gen.chance(0.15)) {
    // Occasionally a generated (realistic) fleet: needs at least one
    // probe per embedded country.
    atlas::PlacementConfig config;
    config.probe_count =
        geo::country_count() + gen.below(40 + 8 * static_cast<std::uint64_t>(
                                                      gen.size()));
    config.seed = gen.u64();
    config.tagged_fraction = gen.real_in(0.3, 0.9);
    config.privileged_fraction = gen.real_in(0.0, 0.1);
    config.urban_fraction = gen.real_in(0.5, 0.9);
    return atlas::ProbeFleet::generate(config);
  }
  // Hand-built fleets reach sizes generate() cannot: zero probes, one
  // probe, a handful of countries.
  const int count = gen.chance(0.05) ? 0 : gen.int_in(1, 3 + gen.size());
  std::vector<atlas::Probe> probes;
  probes.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    probes.push_back(make_probe(gen, static_cast<atlas::ProbeId>(i)));
  }
  return atlas::ProbeFleet::from_probes(std::move(probes));
}

atlas::CampaignConfig make_campaign_config(Gen& gen) {
  atlas::CampaignConfig config;
  config.duration_days = gen.int_in(1, 1 + gen.size() / 10);
  config.interval_hours = gen.pick({1, 2, 3, 4, 6, 8, 12, 24});
  config.packets_per_ping = gen.int_in(1, 4);
  config.targets_per_tick = gen.int_in(1, 3);
  config.probe_uptime = gen.chance(0.7) ? 1.0 : gen.real_in(0.5, 1.0);
  config.seed = gen.u64();
  config.threads = 1;
  if (gen.chance(0.3)) {
    config.retry.max_retries = gen.int_in(1, 2);
    config.retry.backoff_cap_ticks =
        static_cast<std::uint32_t>(gen.int_in(1, 8));
  }
  if (gen.chance(0.2)) {
    config.quarantine.enabled = true;
    config.quarantine.window_bursts = gen.int_in(2, 12);
    config.quarantine.loss_threshold = gen.real_in(0.3, 1.0);
    config.quarantine.skew_counts = gen.chance(0.5);
    config.quarantine.cooldown_ticks =
        static_cast<std::uint32_t>(gen.int_in(1, 24));
  }
  return config;
}

net::LatencyModelConfig make_model_config(Gen& gen) {
  net::LatencyModelConfig config;
  config.excess_fraction = gen.real_in(0.0, 0.4);
  config.excess_spread = gen.real_in(1.0, 3.0);
  config.spike_probability = gen.real_in(0.0, 0.02);
  config.spike_min_ms = gen.real_in(1.0, 10.0);
  config.spike_alpha = gen.real_in(1.1, 2.5);
  config.core_loss_rate = gen.real_in(0.0, 0.01);
  config.wireless_latency_scale =
      gen.chance(0.7) ? 1.0 : gen.real_in(0.1, 1.5);
  config.diurnal_amplitude = gen.real_in(0.0, 0.4);
  config.diurnal_peak_hour = gen.real_in(0.0, 24.0);
  config.temporal_rho = gen.real_in(0.0, 0.95);
  config.temporal_sigma = gen.real_in(0.0, 0.3);
  // Path knobs stay within physically sane ranges; the stretch tables
  // keep their defaults (>= 1 everywhere), which the RTT-floor invariant
  // relies on: routed distance never beats the geodesic.
  config.path.fibre_us_per_km = gen.real_in(4.2, 5.5);
  config.path.per_hop_ms = gen.real_in(0.05, 0.2);
  config.path.min_routed_km = gen.real_in(40.0, 120.0);
  config.path.base_hops = gen.real_in(2.0, 6.0);
  return config;
}

faults::FaultScheduleConfig make_fault_config(Gen& gen) {
  faults::FaultScheduleConfig config;
  if (gen.chance(0.5)) return config;  // clean world: all rates zero
  config.seed = gen.u64();
  config.epoch_ticks = static_cast<std::uint32_t>(gen.int_in(8, 56));
  if (gen.chance(0.5)) {
    config.region_outage_rate = gen.real_in(0.01, 0.25);
    config.region_outage_mean_ticks = gen.real_in(1.0, 12.0);
  }
  if (gen.chance(0.5)) {
    config.route_flap_rate = gen.real_in(0.01, 0.25);
    config.route_flap_mean_ticks = gen.real_in(1.0, 8.0);
    config.route_flap_latency_multiplier = gen.real_in(1.0, 3.0);
    config.route_flap_extra_loss = gen.real_in(0.0, 0.2);
  }
  if (gen.chance(0.5)) {
    config.storm_rate = gen.real_in(0.01, 0.25);
    config.storm_mean_ticks = gen.real_in(1.0, 10.0);
    config.storm_load_multiplier = gen.real_in(1.0, 4.0);
    config.storm_wireless_only = gen.chance(0.5);
  }
  if (gen.chance(0.5)) {
    config.probe_hang_rate = gen.real_in(0.01, 0.25);
    config.probe_hang_mean_ticks = gen.real_in(1.0, 16.0);
  }
  if (gen.chance(0.5)) {
    config.clock_skew_rate = gen.real_in(0.01, 0.25);
    config.clock_skew_mean_ticks = gen.real_in(1.0, 24.0);
    // Non-negative skew keeps the propagation-floor invariant checkable
    // on skewed records (negative firmware bias can dip below physics).
    config.clock_skew_ms = gen.real_in(0.0, 60.0);
  }
  if (gen.chance(0.5)) {
    config.blackout_rate = gen.real_in(0.01, 0.25);
    config.blackout_mean_ticks = gen.real_in(1.0, 8.0);
  }
  return config;
}

World make_world(Gen& gen) {
  // CloudRegistry and ProbeFleet are factory-built (no default
  // constructor), so the world is assembled piecewise and
  // aggregate-initialised.
  topology::CloudRegistry registry = make_registry(gen);
  atlas::ProbeFleet fleet = make_fleet(gen);
  const net::LatencyModelConfig model_config = make_model_config(gen);
  const atlas::CampaignConfig campaign = make_campaign_config(gen);
  const faults::FaultScheduleConfig fault_config = make_fault_config(gen);
  faults::FaultSchedule schedule = fault_config.any_rate()
                                       ? faults::FaultSchedule(fault_config)
                                       : faults::FaultSchedule();

  std::ostringstream os;
  os << "world{probes=" << fleet.size() << ", regions=" << registry.size()
     << ", days=" << campaign.duration_days
     << ", interval=" << campaign.interval_hours << 'h'
     << ", packets=" << campaign.packets_per_ping
     << ", targets=" << campaign.targets_per_tick
     << ", uptime=" << campaign.probe_uptime << ", seed=" << campaign.seed
     << ", retry=" << campaign.retry.max_retries
     << ", quarantine=" << (campaign.quarantine.enabled ? "on" : "off")
     << ", faults=" << (schedule.empty() ? "off" : "on") << '}';

  return World{os.str(),
               std::move(registry),
               std::move(fleet),
               model_config,
               net::LatencyModel(model_config),
               campaign,
               fault_config,
               std::move(schedule)};
}

std::vector<geo::GeoPoint> make_geo_points(Gen& gen, std::size_t count) {
  std::vector<geo::GeoPoint> points;
  points.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Duplicates force the (distance, id) tie-break to actually decide.
    if (!points.empty() && gen.chance(0.08)) {
      points.push_back(points[gen.below(points.size())]);
      continue;
    }
    geo::GeoPoint p;
    const std::uint64_t mode = gen.below(100);
    if (mode < 40) {
      // Antimeridian hugger: a k-d tree over raw lon would see these as
      // far apart.
      p.lat_deg = gen.real_in(-90.0, 90.0);
      p.lon_deg = gen.chance(0.5) ? gen.real_in(175.0, 180.0)
                                  : gen.real_in(-180.0, -175.0);
    } else if (mode < 55) {
      // Polar cluster, occasionally the exact pole.
      const double lat = gen.chance(0.1) ? 90.0 : gen.real_in(80.0, 90.0);
      p.lat_deg = gen.chance(0.5) ? lat : -lat;
      p.lon_deg = gen.real_in(-180.0, 180.0);
    } else {
      p.lat_deg = gen.real_in(-90.0, 90.0);
      p.lon_deg = gen.real_in(-180.0, 180.0);
    }
    points.push_back(p);
  }
  return points;
}

std::vector<serve::Query> make_queries(Gen& gen, const World& world,
                                       std::size_t count) {
  const std::span<const geo::Country> countries = geo::all_countries();
  const std::span<const apps::Application> catalog =
      apps::application_catalog();
  const std::vector<geo::GeoPoint> wild = make_geo_points(gen, 16);
  const std::span<const atlas::Probe> probes = world.fleet.probes();

  std::vector<serve::Query> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    serve::Query q;
    q.kind = gen.pick({serve::QueryKind::kBestRtt,
                       serve::QueryKind::kFeasibility,
                       serve::QueryKind::kTopK});
    if (!probes.empty() && gen.chance(0.6)) {
      // Near a real vantage point, so most queries land on populated
      // shards.
      const atlas::Probe& probe = probes[gen.below(probes.size())];
      q.where = scatter(gen, probe.endpoint.location);
    } else {
      q.where = wild[gen.below(wild.size())];
    }
    if (gen.chance(0.4)) {
      // ISO-2 override; mostly a country the fleet inhabits, sometimes
      // any registry entry (which may hold no data at all).
      q.country_iso2 = (!probes.empty() && gen.chance(0.7))
                           ? probes[gen.below(probes.size())].country->iso2
                           : gen.pick(countries).iso2;
    }
    q.any_access = gen.chance(0.5);
    q.access = gen.pick(std::span<const net::AccessTechnology>(
        net::kAllAccessTechnologies));
    if (q.kind == serve::QueryKind::kFeasibility) {
      q.app_id = gen.chance(0.9) ? gen.pick(catalog).id : "no-such-app";
    }
    if (q.kind == serve::QueryKind::kTopK) {
      q.budget_ms = gen.real_in(1.0, 400.0);
      q.k = static_cast<std::uint32_t>(gen.int_in(0, 8));
    }
    queries.push_back(q);
  }
  return queries;
}

atlas::MeasurementDataset World::run() const { return run_with(campaign); }

atlas::MeasurementDataset World::run(
    atlas::CampaignTelemetry& telemetry) const {
  const atlas::Campaign engine(fleet, registry, model, campaign,
                               schedule.empty() ? nullptr : &schedule);
  return engine.run(telemetry);
}

atlas::MeasurementDataset World::run_with(atlas::CampaignConfig config) const {
  const atlas::Campaign engine(fleet, registry, model, config,
                               schedule.empty() ? nullptr : &schedule);
  return engine.run();
}

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void mix(std::uint64_t& h, std::uint64_t value) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
}

void mix_float(std::uint64_t& h, float value) noexcept {
  mix(h, std::bit_cast<std::uint32_t>(value));
}

}  // namespace

std::uint64_t dataset_checksum(
    const atlas::MeasurementDataset& dataset) noexcept {
  std::uint64_t h = kFnvOffset;
  for (const atlas::Measurement& m : dataset.records()) {
    mix(h, m.probe_id);
    mix(h, m.region_index);
    mix(h, m.tick);
    mix_float(h, m.min_ms);
    mix_float(h, m.avg_ms);
    mix_float(h, m.max_ms);
    mix(h, m.sent);
    mix(h, m.received);
    mix(h, m.retries);
    mix(h, m.faults);
  }
  return h;
}

bool datasets_identical(const atlas::MeasurementDataset& a,
                        const atlas::MeasurementDataset& b, std::string& why) {
  if (a.size() != b.size()) {
    std::ostringstream os;
    os << "record counts differ: " << a.size() << " vs " << b.size();
    why = os.str();
    return false;
  }
  const auto ra = a.records();
  const auto rb = b.records();
  for (std::size_t i = 0; i < ra.size(); ++i) {
    const atlas::Measurement& x = ra[i];
    const atlas::Measurement& y = rb[i];
    const char* field = nullptr;
    if (x.probe_id != y.probe_id) field = "probe_id";
    else if (x.region_index != y.region_index) field = "region_index";
    else if (x.tick != y.tick) field = "tick";
    else if (std::bit_cast<std::uint32_t>(x.min_ms) !=
             std::bit_cast<std::uint32_t>(y.min_ms)) field = "min_ms";
    else if (std::bit_cast<std::uint32_t>(x.avg_ms) !=
             std::bit_cast<std::uint32_t>(y.avg_ms)) field = "avg_ms";
    else if (std::bit_cast<std::uint32_t>(x.max_ms) !=
             std::bit_cast<std::uint32_t>(y.max_ms)) field = "max_ms";
    else if (x.sent != y.sent) field = "sent";
    else if (x.received != y.received) field = "received";
    else if (x.retries != y.retries) field = "retries";
    else if (x.faults != y.faults) field = "faults";
    if (field != nullptr) {
      std::ostringstream os;
      os << "records diverge at index " << i << " (field " << field << ")";
      why = os.str();
      return false;
    }
  }
  why.clear();
  return true;
}

}  // namespace shears::check
