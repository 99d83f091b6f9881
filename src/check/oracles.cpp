#include "check/oracles.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "atlas/campaign.hpp"
#include "atlas/path_cache.hpp"
#include "check/property.hpp"
#include "check/reference.hpp"
#include "core/analysis.hpp"
#include "faults/fault_schedule.hpp"
#include "geo/continent.hpp"
#include "geo/country.hpp"
#include "geo/coordinates.hpp"
#include "geo/spatial_index.hpp"
#include "net/access.hpp"
#include "net/burst_lanes.hpp"
#include "serve/columnar.hpp"
#include "serve/reference.hpp"
#include "serve/snapshot.hpp"

namespace shears::check {

namespace {

[[noreturn]] void fail(const World& world, const std::string& what) {
  throw PropertyFailure(what + " [" + world.summary + "]");
}

void require_identical(const World& world, const atlas::MeasurementDataset& a,
                       const atlas::MeasurementDataset& b,
                       const std::string& label) {
  std::string why;
  if (!datasets_identical(a, b, why)) {
    fail(world, label + ": " + why);
  }
}

bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_doubles(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

/// A burst's fault perturbation: neutral (a fault-free burst),
/// faulted, or a clock skew negative enough to hit the zero clamp.
net::Perturbation draw_perturbation(Gen& gen) {
  switch (gen.below(3)) {
    case 0:
      return {};
    case 1:
      return {gen.real_in(1.0, 3.0), gen.real_in(0.0, 20.0),
              gen.real_in(0.0, 0.5)};
    default:
      return {1.0, -gen.real_in(0.0, 60.0), 0.0};
  }
}

}  // namespace

void check_cached_vs_recomputing(Gen& gen, const World& world) {
  const atlas::Campaign campaign(world.fleet, world.registry, world.model,
                                 world.campaign);
  const atlas::PathCache cache(world.fleet, world.registry, world.model, 1);
  const net::LatencyModel& model = world.model;
  const net::LatencyModelConfig& config = model.config();
  const auto& regions = world.registry.regions();
  const int packets = world.campaign.packets_per_ping;
  stats::Xoshiro256 cached_rng(gen.u64());
  stats::Xoshiro256 reference_rng = cached_rng;
  for (const atlas::Probe& probe : world.fleet.probes()) {
    const net::Endpoint& src = probe.endpoint;
    const net::CachedProfile& profile = cache.profile(probe.id);
    // The hoisted loss must be the one ping_once composes, bit for bit: a
    // one-ulp change in a Bernoulli probability almost never flips a
    // draw, so comparing bursts alone would not see it.
    const double access_loss = model.access_profile_of(src).loss_rate;
    if (!same_bits(profile.combined_loss,
                   access_loss + config.core_loss_rate -
                       access_loss * config.core_loss_rate)) {
      fail(world, "cached vs recomputing: probe " + std::to_string(probe.id) +
                      " combined loss differs");
    }
    for (const std::uint16_t r : campaign.targets_for(probe)) {
      // Loads reach past the point where bufferbloat probability clamps
      // at 1.
      const double load = gen.chance(0.2) ? 1.0 : gen.real_in(0.2, 12.0);
      const net::Perturbation perturbation = draw_perturbation(gen);
      const net::PingResult got =
          model.ping_cached(cache.path(probe.id, r), profile, packets, load,
                            perturbation, cached_rng);
      const net::PingResult want = net::detail::aggregate_burst(packets, [&] {
        return model.ping_once(src, *regions[r], reference_rng, load,
                               perturbation);
      });
      if (got.sent != want.sent || got.received != want.received ||
          !same_bits(got.min_ms, want.min_ms) ||
          !same_bits(got.avg_ms, want.avg_ms) ||
          !same_bits(got.max_ms, want.max_ms)) {
        std::ostringstream msg;
        msg.precision(17);
        msg << "cached vs recomputing: probe " << probe.id << " region "
            << r << " load " << load << " perturbation {"
            << perturbation.latency_scale << ", " << perturbation.offset_ms
            << ", " << perturbation.extra_loss << "}"
            << ": cached " << got.received << " received, min/avg/max "
            << got.min_ms << "/" << got.avg_ms << "/" << got.max_ms
            << "; recomputed " << want.received << " received, min/avg/max "
            << want.min_ms << "/" << want.avg_ms << "/" << want.max_ms;
        fail(world, msg.str());
      }
    }
  }
  if (cached_rng.next() != reference_rng.next()) {
    fail(world, "cached vs recomputing: RNG streams out of step");
  }
}

namespace {

[[nodiscard]] double quantile_of_sorted(const std::vector<double>& sorted,
                                        double q) noexcept {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/// Loss-rate and RTT-quantile agreement between the two engines over the
/// same record subset. The engines consume each probe's stream on
/// different schedules (burst_lanes.hpp), so the pooled populations are
/// two independent samples of the same model — the bounds are sized
/// ~an order of magnitude above the sampling noise of the property
/// harness's campaign sizes, loose enough to be deterministic in
/// practice and tight enough that a real distributional break (wrong
/// transform, mask misapplied, tail dropped) trips them.
void require_distribution_close(const World& world, const std::string& label,
                                std::span<const atlas::Measurement> a,
                                std::span<const atlas::Measurement> b) {
  double a_sent = 0.0, a_recv = 0.0, b_sent = 0.0, b_recv = 0.0;
  std::vector<double> a_avg, b_avg;
  for (const atlas::Measurement& r : a) {
    a_sent += r.sent;
    a_recv += r.received;
    if (r.received > 0) a_avg.push_back(r.avg_ms);
  }
  for (const atlas::Measurement& r : b) {
    b_sent += r.sent;
    b_recv += r.received;
    if (r.received > 0) b_avg.push_back(r.avg_ms);
  }
  if (a_sent <= 0.0 || b_sent <= 0.0) return;

  const double a_loss = 1.0 - a_recv / a_sent;
  const double b_loss = 1.0 - b_recv / b_sent;
  // Binomial noise floor: sd of the rate difference at pooled p, plus a
  // small absolute term for the large-sample regime.
  const double p = std::min(0.5, std::max((a_loss + b_loss) * 0.5, 1e-3));
  const double sd =
      std::sqrt(2.0 * p * (1.0 - p) / std::min(a_sent, b_sent));
  if (std::abs(a_loss - b_loss) > 0.01 + 6.0 * sd) {
    std::ostringstream msg;
    msg << label << ": loss rates diverge (" << a_loss << " vs " << b_loss
        << ", bound " << 0.01 + 6.0 * sd << ")";
    fail(world, msg.str());
  }

  // Quantiles, not means: the Pareto spike tail has unbounded variance,
  // quantile estimates stay stable. Skip small subsets — below a few
  // hundred bursts the estimator noise would force useless bounds.
  if (a_avg.size() < 300 || b_avg.size() < 300) return;
  std::sort(a_avg.begin(), a_avg.end());
  std::sort(b_avg.begin(), b_avg.end());
  const double n = static_cast<double>(std::min(a_avg.size(), b_avg.size()));
  // Estimator noise shrinks like 1/sqrt(n); 8/sqrt(n) relative spans the
  // harness's campaign sizes with margin.
  const double rel = 0.03 + 8.0 / std::sqrt(n);
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    const double qa = quantile_of_sorted(a_avg, q);
    const double qb = quantile_of_sorted(b_avg, q);
    if (std::abs(qa - qb) > rel * std::max(qa, qb) + 0.5) {
      std::ostringstream msg;
      msg << label << ": avg-RTT quantile " << q << " diverges (" << qa
          << " vs " << qb << ", rel bound " << rel << ")";
      fail(world, msg.str());
    }
  }
}

}  // namespace

void check_batched_vs_scalar(const World& world) {
  atlas::CampaignConfig config = world.campaign;
  // Normalise to the kernel's coverage; both sides run the same config,
  // so the comparison stays apples to apples. probe_uptime is pinned to
  // 1 because churn Bernoullis are drawn from each probe's stream at
  // tick level: the engines advance that stream differently inside a
  // burst (fixed kind-major schedule vs data-dependent scalar draws), so
  // with churn enabled the up/down realisations would desync and the
  // record *structure* — which this oracle holds exactly — would
  // legitimately differ.
  config.retry = faults::RetryPolicy{};
  config.quarantine = faults::QuarantinePolicy{};
  config.probe_uptime = 1.0;
  if (config.packets_per_ping > net::kMaxBatchedPackets) {
    config.packets_per_ping = net::kMaxBatchedPackets;
  }
  config.threads = 1;
  const atlas::Campaign engine(world.fleet, world.registry, world.model,
                               config,
                               world.faulted() ? &world.schedule : nullptr);
  if (!engine.batched_eligible()) {
    fail(world, "batched vs scalar: normalised config not kernel-eligible");
  }
  atlas::CampaignTelemetry scalar_telemetry;
  const atlas::MeasurementDataset scalar =
      reference_campaign(engine, scalar_telemetry);
  atlas::CampaignTelemetry telemetry;
  const atlas::MeasurementDataset batched = engine.run(telemetry);
  if (telemetry.bursts > 0 && telemetry.bursts_batched == 0) {
    fail(world, "batched vs scalar: kernel produced records but "
                "bursts_batched stayed 0 (fell back to the scalar path)");
  }
  if (scalar_telemetry.bursts_batched != 0) {
    fail(world, "batched vs scalar: the reference engine sampled bursts "
                "on the lane kernel");
  }

  // Record structure is draw-free at uptime 1 and must match exactly:
  // same probes, same ticks, same targets, same burst sizes, same fault
  // exposure. Only the sampled values (received, RTTs) may differ.
  const std::span<const atlas::Measurement> a = scalar.records();
  const std::span<const atlas::Measurement> b = batched.records();
  if (a.size() != b.size()) {
    fail(world, "batched vs scalar: record counts diverge (" +
                    std::to_string(a.size()) + " vs " +
                    std::to_string(b.size()) + ")");
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const atlas::Measurement& sa = a[i];
    const atlas::Measurement& sb = b[i];
    if (sa.probe_id != sb.probe_id || sa.region_index != sb.region_index ||
        sa.tick != sb.tick || sa.sent != sb.sent ||
        sa.retries != sb.retries || sa.faults != sb.faults) {
      fail(world, "batched vs scalar: record structure diverges at row " +
                      std::to_string(i));
    }
  }

  // The sampled values are gated distributionally — globally and on the
  // faulted subset (structure matches row-for-row, so the faulted rows
  // of one engine are exactly the faulted rows of the other: a fault
  // path that mis-scales only perturbed bursts cannot hide in the
  // global pool).
  require_distribution_close(world, "batched vs scalar", a, b);
  std::vector<atlas::Measurement> a_faulted, b_faulted;
  for (const atlas::Measurement& r : a)
    if (r.faulted()) a_faulted.push_back(r);
  for (const atlas::Measurement& r : b)
    if (r.faulted()) b_faulted.push_back(r);
  require_distribution_close(world, "batched vs scalar (faulted subset)",
                             a_faulted, b_faulted);

  // The batched engine is exact with respect to itself: sharding must
  // not change a byte (lanes only ever consume their own stream).
  config.threads = 8;
  const atlas::MeasurementDataset batched8 = world.run_with(config);
  require_identical(world, batched, batched8, "batched engine threads 1 vs 8");
}

void check_campaign_thread_invariance(const World& world) {
  atlas::CampaignConfig config = world.campaign;
  config.threads = 1;
  const atlas::MeasurementDataset serial = world.run_with(config);
  config.threads = 8;
  const atlas::MeasurementDataset sharded = world.run_with(config);
  require_identical(world, serial, sharded, "campaign threads 1 vs 8");
}

void check_analysis_thread_invariance(
    const World& world, const atlas::MeasurementDataset& dataset) {
  core::AnalysisOptions serial;
  serial.threads = 1;
  core::AnalysisOptions sharded;
  sharded.threads = 8;

  const auto rows_a = core::country_min_latency(dataset, serial);
  const auto rows_b = core::country_min_latency(dataset, sharded);
  if (rows_a.size() != rows_b.size()) {
    fail(world, "country_min_latency: row counts differ across threads");
  }
  for (std::size_t i = 0; i < rows_a.size(); ++i) {
    if (rows_a[i].country != rows_b[i].country ||
        std::bit_cast<std::uint64_t>(rows_a[i].min_rtt_ms) !=
            std::bit_cast<std::uint64_t>(rows_b[i].min_rtt_ms) ||
        rows_a[i].best_region != rows_b[i].best_region ||
        rows_a[i].probe_count != rows_b[i].probe_count) {
      fail(world, "country_min_latency: rows diverge across threads");
    }
  }

  const auto best_a = core::per_probe_best(dataset, serial);
  const auto best_b = core::per_probe_best(dataset, sharded);
  if (best_a.size() != best_b.size()) {
    fail(world, "per_probe_best: sizes differ across threads");
  }
  for (std::size_t i = 0; i < best_a.size(); ++i) {
    if (best_a[i].probe_id != best_b[i].probe_id ||
        best_a[i].region_index != best_b[i].region_index ||
        std::bit_cast<std::uint64_t>(best_a[i].min_ms) !=
            std::bit_cast<std::uint64_t>(best_b[i].min_ms) ||
        best_a[i].valid != best_b[i].valid) {
      fail(world, "per_probe_best: entries diverge across threads");
    }
  }

  const auto fig5_a = core::min_rtt_by_continent(dataset, serial);
  const auto fig5_b = core::min_rtt_by_continent(dataset, sharded);
  const auto fig6_a = core::best_region_samples_by_continent(dataset, serial);
  const auto fig6_b = core::best_region_samples_by_continent(dataset, sharded);
  for (std::size_t c = 0; c < geo::kContinentCount; ++c) {
    if (!same_doubles(fig5_a[c], fig5_b[c])) {
      fail(world, "min_rtt_by_continent: samples diverge across threads");
    }
    if (!same_doubles(fig6_a[c], fig6_b[c])) {
      fail(world,
           "best_region_samples_by_continent: samples diverge across threads");
    }
  }

  const auto view_a = core::server_side_view(dataset, serial);
  const auto view_b = core::server_side_view(dataset, sharded);
  if (view_a.size() != view_b.size()) {
    fail(world, "server_side_view: row counts differ across threads");
  }
  for (std::size_t i = 0; i < view_a.size(); ++i) {
    if (view_a[i].region != view_b[i].region ||
        view_a[i].clients != view_b[i].clients ||
        view_a[i].samples != view_b[i].samples ||
        std::bit_cast<std::uint64_t>(view_a[i].median_ms) !=
            std::bit_cast<std::uint64_t>(view_b[i].median_ms) ||
        std::bit_cast<std::uint64_t>(view_a[i].p90_ms) !=
            std::bit_cast<std::uint64_t>(view_b[i].p90_ms) ||
        std::bit_cast<std::uint64_t>(view_a[i].under_40ms) !=
            std::bit_cast<std::uint64_t>(view_b[i].under_40ms)) {
      fail(world, "server_side_view: rows diverge across threads");
    }
  }
}

void check_csv_roundtrip(const World& world,
                         const atlas::MeasurementDataset& dataset) {
  std::stringstream first;
  dataset.write_csv(first);
  std::stringstream reparse(first.str());
  const atlas::MeasurementDataset parsed = atlas::MeasurementDataset::read_csv(
      reparse, &world.fleet, &world.registry);
  require_identical(world, dataset, parsed, "CSV round trip");
  std::stringstream second;
  parsed.write_csv(second);
  if (first.str() != second.str()) {
    fail(world, "CSV round trip: re-serialisation is not byte-identical");
  }
}

void check_jsonl_roundtrip(const World& world,
                           const atlas::MeasurementDataset& dataset) {
  std::stringstream first;
  dataset.write_jsonl(first, world.campaign.interval_hours);
  std::stringstream reparse(first.str());
  const atlas::MeasurementDataset parsed =
      atlas::MeasurementDataset::read_jsonl(reparse, &world.fleet,
                                            &world.registry,
                                            world.campaign.interval_hours);
  // Lost bursts drop their min/avg/max on the wire (-1 markers) but the
  // engine also writes zeros there, so full identity still holds.
  require_identical(world, dataset, parsed, "JSONL round trip");
  std::stringstream second;
  parsed.write_jsonl(second, world.campaign.interval_hours);
  if (first.str() != second.str()) {
    fail(world, "JSONL round trip: re-serialisation is not byte-identical");
  }
}

void check_empty_schedule_identity(const World& world) {
  const faults::FaultSchedule empty;
  const atlas::Campaign with_empty(world.fleet, world.registry, world.model,
                                   world.campaign, &empty);
  const atlas::Campaign without(world.fleet, world.registry, world.model,
                                world.campaign, nullptr);
  require_identical(world, with_empty.run(), without.run(),
                    "empty schedule vs no schedule");
}

namespace {

/// Every point sorted ascending by (haversine distance, id) — the ground
/// truth all three SpatialIndex queries must reproduce exactly.
std::vector<geo::SpatialHit> brute_hits(std::span<const geo::GeoPoint> points,
                                        const geo::GeoPoint& query) {
  std::vector<geo::SpatialHit> hits;
  hits.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    hits.push_back(geo::SpatialHit{static_cast<std::uint32_t>(i),
                                   geo::haversine_km(query, points[i])});
  }
  std::sort(hits.begin(), hits.end(),
            [](const geo::SpatialHit& a, const geo::SpatialHit& b) {
              if (a.distance_km != b.distance_km) {
                return a.distance_km < b.distance_km;
              }
              return a.id < b.id;
            });
  return hits;
}

[[noreturn]] void fail_spatial(std::string_view summary,
                               const geo::GeoPoint& query,
                               const std::string& what) {
  std::ostringstream os;
  os << "spatial index vs brute force: " << what << " at query ("
     << query.lat_deg << ", " << query.lon_deg << ") [" << summary << "]";
  throw PropertyFailure(os.str());
}

bool hits_equal(const geo::SpatialHit& a, const geo::SpatialHit& b) {
  return a.id == b.id && std::bit_cast<std::uint64_t>(a.distance_km) ==
                             std::bit_cast<std::uint64_t>(b.distance_km);
}

}  // namespace

void check_spatial_index(std::span<const geo::GeoPoint> points,
                         std::span<const geo::GeoPoint> queries,
                         double radius_km, std::string_view summary) {
  const geo::SpatialIndex index(points);
  for (const geo::GeoPoint& query : queries) {
    const std::vector<geo::SpatialHit> truth = brute_hits(points, query);

    const std::optional<geo::SpatialHit> nearest = index.nearest(query);
    if (nearest.has_value() != !truth.empty() ||
        (nearest.has_value() && !hits_equal(*nearest, truth.front()))) {
      fail_spatial(summary, query, "nearest diverges");
    }

    const std::size_t n = std::min<std::size_t>(5, points.size() + 1);
    const std::vector<geo::SpatialHit> top = index.nearest_n(query, n);
    if (top.size() != std::min(n, truth.size())) {
      fail_spatial(summary, query, "nearest_n size diverges");
    }
    for (std::size_t i = 0; i < top.size(); ++i) {
      if (!hits_equal(top[i], truth[i])) {
        fail_spatial(summary, query, "nearest_n entries diverge");
      }
    }

    const std::vector<geo::SpatialHit> within =
        index.within_radius(query, radius_km);
    std::size_t expected = 0;
    while (expected < truth.size() &&
           truth[expected].distance_km <= radius_km) {
      ++expected;
    }
    if (within.size() != expected) {
      fail_spatial(summary, query, "within_radius count diverges");
    }
    for (std::size_t i = 0; i < within.size(); ++i) {
      if (!hits_equal(within[i], truth[i])) {
        fail_spatial(summary, query, "within_radius entries diverge");
      }
    }
  }
}

void check_oracle_vs_fullscan(Gen& gen, const World& world,
                              const atlas::MeasurementDataset& dataset,
                              std::span<const serve::Query> queries) {
  const serve::ReferenceOracle reference(&dataset);
  const std::vector<serve::Answer> expected = reference.answer(queries);

  const auto require_answers = [&](const serve::ColumnarStore& store,
                                   std::size_t oracle_threads,
                                   const std::string& label) {
    serve::OracleConfig config;
    config.threads = oracle_threads;
    const serve::Oracle oracle(&store, config);
    const std::vector<serve::Answer> got = oracle.answer(queries);
    std::string why;
    if (!serve::answers_identical(expected, got, why)) {
      fail(world, "oracle vs full scan (" + label + "): " + why);
    }
  };

  // One-shot build, single-threaded everything.
  const serve::ColumnarStore one_shot =
      serve::ColumnarStore::build(dataset, serve::StoreConfig{1});
  require_answers(one_shot, 1, "one-shot build, 1 thread");

  // Chunked appends cut at 1-16 generated points with a refresh after
  // every chunk, 8 build threads, 8 query threads — every knob the
  // determinism contract covers at once.
  serve::ColumnarStore chunked(&dataset.fleet(), &dataset.registry(),
                               serve::StoreConfig{8});
  const std::span<const atlas::Measurement> rows = dataset.records();
  std::vector<std::size_t> cuts(static_cast<std::size_t>(gen.int_in(1, 16)));
  for (std::size_t& cut : cuts) cut = gen.below(rows.size() + 1);
  cuts.push_back(rows.size());
  std::sort(cuts.begin(), cuts.end());
  std::size_t from = 0;
  for (const std::size_t cut : cuts) {
    chunked.append(rows.subspan(from, cut - from));
    chunked.refresh();
    from = cut;
  }
  require_answers(chunked, 8,
                  "chunked build (" + std::to_string(cuts.size()) +
                      " chunks), 8 threads");
}

void check_cells_match_columns(const serve::ColumnarStore& store,
                               const std::string& what) {
  // Rebuild the store from its own columns: one row per stored sample,
  // appended shard by shard and sorted by refresh().
  serve::ColumnarStore reference(&store.fleet(), &store.registry(),
                                 serve::StoreConfig{1});
  std::vector<atlas::Measurement> rows;
  for (const serve::ColumnarStore::ShardView& shard : store.shards()) {
    for (std::size_t i = 0; i < shard.rtt_ms.size(); ++i) {
      atlas::Measurement m;
      m.probe_id = shard.probe_ids[i];
      m.region_index = shard.region_index[i];
      m.tick = shard.ticks[i];
      m.min_ms = shard.rtt_ms[i];
      m.sent = 1;
      m.received = 1;
      rows.push_back(m);
    }
  }
  reference.append(rows);
  reference.refresh();

  const auto same = [](const serve::RegionStats& a,
                       const serve::RegionStats& b) {
    return a.count == b.count &&
           std::bit_cast<std::uint64_t>(a.min_ms) ==
               std::bit_cast<std::uint64_t>(b.min_ms) &&
           std::bit_cast<std::uint64_t>(a.median_ms) ==
               std::bit_cast<std::uint64_t>(b.median_ms) &&
           std::bit_cast<std::uint64_t>(a.p95_ms) ==
               std::bit_cast<std::uint64_t>(b.p95_ms) &&
           a.sorted.size() == b.sorted.size() &&
           std::equal(a.sorted.begin(), a.sorted.end(), b.sorted.begin(),
                      [](float x, float y) {
                        return std::bit_cast<std::uint32_t>(x) ==
                               std::bit_cast<std::uint32_t>(y);
                      });
  };
  const auto compare = [&](std::span<const serve::RegionStats> got,
                           std::span<const serve::RegionStats> want,
                           const std::string& scope) {
    if (got.size() != want.size()) {
      throw PropertyFailure(what + ": " + scope + " has " +
                            std::to_string(got.size()) +
                            " cells, refresh() over its columns builds " +
                            std::to_string(want.size()));
    }
    for (std::size_t r = 0; r < got.size(); ++r) {
      if (!same(got[r], want[r])) {
        throw PropertyFailure(what + ": " + scope + " region " +
                              std::to_string(r) +
                              " differs from refresh() over its columns");
      }
    }
  };
  for (std::size_t c = 0; c < geo::country_count(); ++c) {
    for (std::size_t a = 0; a < net::kAccessTechnologyCount; ++a) {
      const auto access = static_cast<net::AccessTechnology>(a);
      compare(store.shard_stats(c, access), reference.shard_stats(c, access),
              "shard (" + std::to_string(c) + ", " + std::to_string(a) + ")");
    }
    compare(store.country_stats(c), reference.country_stats(c),
            "country " + std::to_string(c));
  }
}

void check_snapshot_roundtrip(const World& world,
                              const atlas::MeasurementDataset& dataset,
                              std::span<const serve::Query> queries) {
  const serve::ColumnarStore live =
      serve::ColumnarStore::build(dataset, serve::StoreConfig{1});
  const std::vector<serve::Answer> expected =
      serve::Oracle(&live, serve::OracleConfig{1}).answer(queries);

  std::ostringstream sink(std::ios::binary);
  serve::save_snapshot(live, sink);
  const std::string image = sink.str();
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(image.data()), image.size());

  const auto require_answers = [&](const serve::ColumnarStore& store,
                                   const std::string& label) {
    check_cells_match_columns(
        store, "snapshot round-trip (" + label + ") [" + world.summary + "]");
    if (store.rows_stored() != live.rows_stored() ||
        store.rows_dropped() != live.rows_dropped()) {
      fail(world, "snapshot round-trip (" + label + "): counters diverge");
    }
    const std::vector<serve::Answer> got =
        serve::Oracle(&store, serve::OracleConfig{1}).answer(queries);
    std::string why;
    if (!serve::answers_identical(expected, got, why)) {
      fail(world, "snapshot round-trip (" + label + "): " + why);
    }
  };

  // Full (verifying) load, 1 and 8 rebuild threads.
  require_answers(serve::load_snapshot(bytes, &dataset.fleet(),
                                       &dataset.registry(),
                                       serve::StoreConfig{1}),
                  "full load, 1 thread");
  require_answers(serve::load_snapshot(bytes, &dataset.fleet(),
                                       &dataset.registry(),
                                       serve::StoreConfig{8}),
                  "full load, 8 threads");

  // Lazy load: stale until the caller's refresh, then identical.
  serve::SnapshotLoadOptions lazy;
  lazy.lazy_summaries = true;
  serve::ColumnarStore deferred = serve::load_snapshot(
      bytes, &dataset.fleet(), &dataset.registry(), serve::StoreConfig{1},
      lazy);
  if (dataset.size() > 0 && deferred.fresh()) {
    fail(world, "snapshot round-trip: lazy load returned a fresh store");
  }
  deferred.refresh();
  require_answers(deferred, "lazy load + refresh");

  // Mid-ingest: snapshot N rows, load, append the remaining M — must
  // answer like the one-shot N+M build above.
  const std::span<const atlas::Measurement> rows = dataset.records();
  const std::size_t cut = rows.size() / 2;
  serve::ColumnarStore partial(&dataset.fleet(), &dataset.registry(),
                               serve::StoreConfig{1});
  partial.append(rows.subspan(0, cut));
  partial.refresh();
  std::ostringstream partial_sink(std::ios::binary);
  serve::save_snapshot(partial, partial_sink);
  const std::string partial_image = partial_sink.str();
  serve::ColumnarStore resumed = serve::load_snapshot(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(partial_image.data()),
          partial_image.size()),
      &dataset.fleet(), &dataset.registry(), serve::StoreConfig{8});
  resumed.append(rows.subspan(cut));
  resumed.refresh();
  require_answers(resumed, "snapshot-N, load, append-M");
}

}  // namespace shears::check
