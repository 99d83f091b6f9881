#include "atlas/campaign.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include "net/burst_lanes.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "stats/rng.hpp"

namespace shears::atlas {

namespace {

/// Salt separating the retry RNG stream from a probe's scheduled stream:
/// enabling retries must not perturb the scheduled draws.
constexpr std::uint64_t kRetryStreamSalt = 0x9d5c0f1b2e6a8374ULL;

net::PingResult lost_burst(int packets) noexcept {
  net::PingResult result;
  result.sent = packets;
  return result;
}

}  // namespace

void CampaignConfig::validate() const {
  if (duration_days <= 0) {
    throw std::invalid_argument("CampaignConfig: duration_days must be > 0");
  }
  if (interval_hours <= 0) {
    throw std::invalid_argument("CampaignConfig: interval_hours must be > 0");
  }
  if (interval_hours > 24 * duration_days) {
    throw std::invalid_argument(
        "CampaignConfig: interval_hours exceeds the campaign duration "
        "(schedule would have zero ticks)");
  }
  if (packets_per_ping <= 0) {
    throw std::invalid_argument("CampaignConfig: packets_per_ping must be > 0");
  }
  if (packets_per_ping > 255) {
    throw std::invalid_argument(
        "CampaignConfig: packets_per_ping exceeds the record counter (255)");
  }
  if (targets_per_tick <= 0) {
    throw std::invalid_argument("CampaignConfig: targets_per_tick must be > 0");
  }
  if (probe_uptime <= 0.0 || probe_uptime > 1.0) {
    throw std::invalid_argument("CampaignConfig: probe_uptime must be (0, 1]");
  }
  retry.validate();
  quarantine.validate();
}

void CampaignTelemetry::merge(const CampaignTelemetry& other) noexcept {
  bursts += other.bursts;
  bursts_retried += other.bursts_retried;
  retries += other.retries;
  bursts_recovered += other.bursts_recovered;
  bursts_faulted += other.bursts_faulted;
  bursts_cached += other.bursts_cached;
  bursts_batched += other.bursts_batched;
  hang_ticks += other.hang_ticks;
  quarantine_entries += other.quarantine_entries;
  quarantined_ticks += other.quarantined_ticks;
  fault_kinds.merge(other.fault_kinds);
}

Campaign::Campaign(const ProbeFleet& fleet,
                   const topology::CloudRegistry& registry,
                   const net::LatencyModel& model, CampaignConfig config)
    : Campaign(fleet, registry, model, config, nullptr) {}

Campaign::Campaign(const ProbeFleet& fleet,
                   const topology::CloudRegistry& registry,
                   const net::LatencyModel& model, CampaignConfig config,
                   const faults::FaultSchedule* schedule)
    : fleet_(&fleet), registry_(&registry), model_(&model), config_(config),
      schedule_(schedule) {
  config_.validate();
  if (registry.size() > 0xFFFF) {
    throw std::invalid_argument("Campaign: registry too large for index type");
  }
  // Precompute the per-continent target lists once.
  const auto& regions = registry_->regions();
  for (const geo::Continent c : geo::kAllContinents) {
    auto& targets = targets_by_continent_[geo::index_of(c)];
    for (std::size_t i = 0; i < regions.size(); ++i) {
      if (topology::region_continent(*regions[i]) == c) {
        targets.push_back(static_cast<std::uint16_t>(i));
      }
    }
    if (const auto fallback = geo::measurement_fallback(c)) {
      for (std::size_t i = 0; i < regions.size(); ++i) {
        if (topology::region_continent(*regions[i]) == *fallback) {
          targets.push_back(static_cast<std::uint16_t>(i));
        }
      }
    }
  }
  cache_ = PathCache(fleet, registry, model, config_.threads);
}

std::uint32_t Campaign::tick_count() const noexcept {
  return static_cast<std::uint32_t>(config_.duration_days * 24 /
                                    config_.interval_hours);
}

std::span<const std::uint16_t> Campaign::targets_for(
    const Probe& p) const noexcept {
  return targets_by_continent_[geo::index_of(p.country->continent)];
}

std::size_t Campaign::probe_capacity(const Probe& p) const noexcept {
  const std::size_t targets = targets_for(p).size();
  return static_cast<std::size_t>(tick_count()) *
         std::min(static_cast<std::size_t>(config_.targets_per_tick),
                  targets);
}

std::size_t Campaign::expected_record_count() const {
  std::size_t total = 0;
  for (const Probe& p : fleet_->probes()) total += probe_capacity(p);
  return total;
}

bool Campaign::batched_eligible() const noexcept {
  return config_.retry.max_retries == 0 && !config_.quarantine.enabled &&
         config_.packets_per_ping <= net::kMaxBatchedPackets;
}

std::size_t Campaign::run_probe_range(std::size_t begin, std::size_t end,
                                      Measurement* out,
                                      CampaignTelemetry& telemetry) const {
  Measurement* const first = out;
  stats::Xoshiro256 root(config_.seed);
  const std::uint32_t ticks = tick_count();
  const auto probes = fleet_->probes();
  const bool has_faults = schedule_ != nullptr && !schedule_->empty();
  const bool has_retry = config_.retry.max_retries > 0;
  const bool has_quarantine = config_.quarantine.enabled;
  const std::uint8_t skew_bit = faults::fault_bit(faults::FaultKind::kClockSkew);
  // The UTC hour repeats with the tick phase: (tick * interval) mod 24
  // cycles with period 24 / gcd(interval, 24) <= 24, so the diurnal load
  // is looked up from a small per-probe table instead of re-evaluating
  // the raised cosine per burst.
  const auto diurnal_period = static_cast<std::uint32_t>(
      24 / std::gcd(config_.interval_hours, 24));

  for (std::size_t pi = begin; pi < end; ++pi) {
    const Probe& probe = probes[pi];
    const auto& targets =
        targets_by_continent_[geo::index_of(probe.country->continent)];
    if (targets.empty()) continue;
    // One independent stream per probe: identical results regardless of
    // sharding, and adding probes does not disturb existing streams.
    stats::Xoshiro256 rng = root.fork(probe.id);
    // Retries draw from a separate per-probe stream so that enabling
    // them leaves the scheduled draws untouched.
    stats::Xoshiro256 retry_rng = root.fork(probe.id ^ kRetryStreamSalt);
    const faults::ProbeContext fault_ctx{
        probe.id, probe.isp != nullptr ? probe.isp->asn : 0u,
        faults::FaultSchedule::country_key(probe.country->iso2),
        net::is_wireless(probe.endpoint.access)};
    faults::QuarantineTracker quarantine(config_.quarantine);
    const std::size_t per_tick = std::min(
        static_cast<std::size_t>(config_.targets_per_tick), targets.size());
    const std::size_t rotation = rng.bounded(targets.size());
    // The probe's last mile carries a temporally-correlated congestion
    // level, advanced once per tick.
    net::CongestionState congestion(model_->config(), rng);
    const net::CachedProfile& cached_profile = cache_.profile(probe.id);
    std::array<double, 24> diurnal_by_phase{};
    for (std::uint32_t k = 0; k < diurnal_period; ++k) {
      const double utc_hour = static_cast<double>(
          (static_cast<std::uint64_t>(k) * config_.interval_hours) % 24);
      diurnal_by_phase[k] = model_->diurnal_load(probe.endpoint, utc_hour);
    }

    // Rolling rotation cursor: (rotation + tick * per_tick) % targets.size()
    // maintained incrementally, without a 64-bit division per burst.
    // per_tick <= targets.size(), so a single conditional subtract wraps
    // it. Advanced in the increment clause so offline / hung / quarantined
    // ticks still rotate past their slots.
    std::size_t slot_base = rotation;
    const auto advance_rotation = [&slot_base, per_tick, &targets] {
      slot_base += per_tick;
      if (slot_base >= targets.size()) slot_base -= targets.size();
    };

    for (std::uint32_t tick = 0; tick < ticks; ++tick, advance_rotation()) {
      const double temporal_load = congestion.step(model_->config(), rng);
      if (config_.probe_uptime < 1.0 && !rng.bernoulli(config_.probe_uptime)) {
        continue;  // probe offline this tick
      }
      faults::ProbeExposure probe_exposure;
      if (has_faults) {
        probe_exposure = schedule_->probe_exposure(fault_ctx, tick);
        if (probe_exposure.probe_down) {
          ++telemetry.hang_ticks;  // firmware wedge: schedules nothing
          continue;
        }
      }
      if (has_quarantine && quarantine.quarantined(tick)) {
        ++telemetry.quarantined_ticks;
        continue;
      }
      // Samples one burst attempt at `attempt_tick` (the scheduled tick,
      // or a later one for backed-off retries) against `region`.
      const auto sample_attempt = [&](std::uint32_t attempt_tick,
                                      std::uint16_t region_index,
                                      stats::Xoshiro256& stream,
                                      std::uint8_t& mask) -> net::PingResult {
        faults::BurstExposure exposure;
        if (has_faults) {
          const faults::ProbeExposure pe =
              attempt_tick == tick
                  ? probe_exposure
                  : schedule_->probe_exposure(fault_ctx, attempt_tick);
          if (pe.probe_down) {
            // The probe is hung at the retry tick: attempt produces
            // nothing; count it as fully lost.
            mask = pe.mask;
            return lost_burst(config_.packets_per_ping);
          }
          exposure = schedule_->burst_exposure(fault_ctx, pe, region_index,
                                               attempt_tick);
          mask = exposure.mask;
          if (exposure.lost) return lost_burst(config_.packets_per_ping);
        } else {
          mask = 0;
        }
        const net::Perturbation perturbation =
            has_faults ? net::Perturbation{exposure.latency_multiplier,
                                           exposure.skew_ms,
                                           exposure.extra_loss}
                       : net::Perturbation{};
        ++telemetry.bursts_cached;
        const double load = diurnal_by_phase[attempt_tick % diurnal_period] *
                            temporal_load * exposure.load_multiplier;
        return model_->ping_cached(cache_.path(probe.id, region_index),
                                   cached_profile, config_.packets_per_ping,
                                   load, perturbation, stream);
      };

      for (std::size_t j = 0; j < per_tick; ++j) {
        std::size_t slot = slot_base + j;
        if (slot >= targets.size()) slot -= targets.size();
        const std::uint16_t region_index = targets[slot];
        std::uint8_t mask = 0;
        net::PingResult ping = sample_attempt(tick, region_index, rng, mask);
        std::uint8_t retries = 0;
        if (has_retry && ping.all_lost()) {
          std::uint32_t attempt_tick = tick;
          for (int attempt = 1; attempt <= config_.retry.max_retries;
               ++attempt) {
            attempt_tick +=
                faults::retry_backoff_ticks(attempt, config_.retry);
            if (attempt_tick >= ticks) break;  // campaign over: give up
            ++retries;
            ping = sample_attempt(attempt_tick, region_index, retry_rng, mask);
            if (!ping.all_lost()) break;
          }
          if (retries > 0) {
            ++telemetry.bursts_retried;
            telemetry.retries += retries;
            if (!ping.all_lost()) ++telemetry.bursts_recovered;
          }
        }
        Measurement m;
        m.probe_id = probe.id;
        m.region_index = region_index;
        m.tick = tick;
        m.sent = static_cast<std::uint8_t>(ping.sent);
        m.received = static_cast<std::uint8_t>(ping.received);
        if (ping.received > 0) {
          m.min_ms = static_cast<float>(ping.min_ms);
          m.avg_ms = static_cast<float>(ping.avg_ms);
          m.max_ms = static_cast<float>(ping.max_ms);
        }
        m.retries = retries;
        m.faults = mask;
        *out++ = m;
        ++telemetry.bursts;
        if (mask != 0) {
          ++telemetry.bursts_faulted;
          telemetry.fault_kinds.record(mask);
        }
        if (has_quarantine) {
          quarantine.record_burst(tick, ping.all_lost(),
                                  (mask & skew_bit) != 0);
        }
      }
    }
    telemetry.quarantine_entries += quarantine.entries();
  }
  return static_cast<std::size_t>(out - first);
}

MeasurementDataset Campaign::run() const {
  CampaignTelemetry telemetry;
  return run(telemetry);
}

MeasurementDataset Campaign::run(CampaignTelemetry& telemetry) const {
  return run_engine(telemetry, batched_eligible());
}

MeasurementDataset Campaign::run_engine(CampaignTelemetry& telemetry,
                                        bool lanes) const {
  const auto run_start = std::chrono::steady_clock::now();
  // Resolve the shard histogram once, outside the workers; a null pointer
  // turns every Span into a no-op, so the unobserved campaign pays one
  // branch per shard and nothing per burst.
  obs::LatencyHistogram* shard_hist =
      metrics_ != nullptr ? &metrics_->histogram("campaign.shard_wall_ms")
                          : nullptr;
  const std::size_t n = fleet_->size();
  unsigned threads = config_.threads != 0 ? config_.threads
                                          : std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  threads = static_cast<unsigned>(
      std::min<std::size_t>(threads, n > 0 ? n : 1));

  // One dataset buffer with room for every probe's capacity: probe pi's
  // rows fit in [row_begin[pi], row_begin[pi + 1]), and shard t runs
  // probes [shard_begin(t), shard_begin(t + 1)) into the slice from
  // row_begin[shard_begin(t)]. Records leaves the buffer unfilled, so
  // each worker first-touches its own slice and the pages fault in
  // parallel. Everything a worker writes besides the rows — the lane
  // engine's per-probe row counts, the shard's count and telemetry — is
  // sized here, so workers allocate nothing.
  const std::size_t chunk = (n + threads - 1) / threads;
  const auto shard_begin = [n, chunk](unsigned t) {
    return std::min(n, t * chunk);
  };
  const auto probes = fleet_->probes();
  std::vector<std::size_t> row_begin(n + 1, 0);
  for (std::size_t pi = 0; pi < n; ++pi) {
    row_begin[pi + 1] = row_begin[pi] + probe_capacity(probes[pi]);
  }
  std::vector<std::size_t> probe_rows(lanes ? n : 0, 0);
  Records records(row_begin[n]);
  std::vector<std::size_t> written(threads, 0);
  std::vector<CampaignTelemetry> shard_telemetry(threads);
  const auto run_shard = [&](unsigned t) {
    obs::Span span(shard_hist);
    const std::size_t begin = shard_begin(t);
    const std::size_t end = shard_begin(t + 1);
    written[t] =
        lanes ? run_probe_range_batched(begin, end, records.data(),
                                        row_begin.data(), probe_rows.data(),
                                        shard_telemetry[t])
              : run_probe_range(begin, end, records.data() + row_begin[begin],
                                shard_telemetry[t]);
  };
  if (threads == 1) {
    run_shard(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) workers.emplace_back(run_shard, t);
    for (std::thread& w : workers) w.join();
  }

  // Churn, faults, hangs and quarantine leave a slice short of its
  // capacity: move each later slice down behind the rows before it, in
  // shard order, then drop the tail. A fault-free run fills every slice
  // exactly and moves nothing.
  telemetry = CampaignTelemetry{};
  std::size_t rows = 0;
  for (unsigned t = 0; t < threads; ++t) {
    const std::size_t slice = row_begin[shard_begin(t)];
    if (rows != slice) {
      std::copy_n(records.data() + slice, written[t], records.data() + rows);
    }
    rows += written[t];
    telemetry.merge(shard_telemetry[t]);
  }
  records.resize(rows);
  publish_metrics(telemetry, run_start);
  if (sink_ != nullptr) sink_->publish(records);
  return MeasurementDataset(fleet_, registry_, std::move(records));
}

void Campaign::publish_metrics(
    const CampaignTelemetry& telemetry,
    std::chrono::steady_clock::time_point run_start) const {
  if (metrics_ == nullptr) return;
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - run_start)
                             .count();
  obs::MetricsRegistry& m = *metrics_;
  m.counter("campaign.bursts").add(telemetry.bursts);
  m.counter("campaign.bursts_retried").add(telemetry.bursts_retried);
  m.counter("campaign.retries").add(telemetry.retries);
  m.counter("campaign.bursts_recovered").add(telemetry.bursts_recovered);
  m.counter("campaign.bursts_faulted").add(telemetry.bursts_faulted);
  m.counter("campaign.path_cache_hits").add(telemetry.bursts_cached);
  if (telemetry.bursts_batched != 0) {
    // Conditional like the fault rows below: scalar-engine snapshots
    // stay free of lane-engine counters.
    m.counter("campaign.bursts_batched").add(telemetry.bursts_batched);
  }
  m.counter("campaign.hang_ticks").add(telemetry.hang_ticks);
  m.counter("campaign.quarantine_entries").add(telemetry.quarantine_entries);
  m.counter("campaign.quarantined_ticks").add(telemetry.quarantined_ticks);
  for (std::size_t k = 0; k < faults::kFaultKindCount; ++k) {
    const auto kind = static_cast<faults::FaultKind>(k);
    const std::uint64_t hits = telemetry.fault_kinds.of(kind);
    if (hits == 0) continue;  // keep clean-run snapshots free of fault rows
    std::string name = "faults.activations.";
    name += faults::to_string(kind);
    m.counter(name).add(hits);
  }
  m.gauge("campaign.wall_ms").set(wall_ms);
  m.gauge("campaign.wall_ms_per_day").set(
      wall_ms / static_cast<double>(config_.duration_days));
}

}  // namespace shears::atlas
