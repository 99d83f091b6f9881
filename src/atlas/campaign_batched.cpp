// The lane engine: run_probe_range_batched, the sampler Campaign::run()
// uses for every config without retries or quarantine.
//
// Groups a shard's probes into 8-lane blocks (per continent, so every
// lane in a block shares the target list and per-tick burst count) and
// advances them in lockstep through net::sample_burst_lanes. Each lane
// owns the same per-probe RNG stream the scalar engine forks —
// XoshiroLanes::striped(root, probe ids) — and the campaign-level draws
// (rotation, congestion, churn) happen per lane in the scalar order.
// Inside the kernel the draw schedule differs: a burst consumes exactly
// net::kDrawsPerPacket draws per packet in a fixed kind-major order
// (burst_lanes.hpp), so per-packet samples are *distribution-equivalent*
// to the scalar engine rather than draw-for-draw equal — that is what
// the scalar-vs-batched differential oracle in src/check gates on
// (record structure exactly, rates and quantiles within epsilon).
// A lane's stream position is still a pure function of its own history
// — it advances only when its own burst samples, by exactly
// kDrawsPerPacket * packets — which keeps the dataset bit-identical
// across sharding / thread count within the batched engine.
//
// Fault exposure rides the lanes (the SoA fault path): a perturbed
// window becomes per-lane BurstState slots via make_burst_state, so
// faulted bursts stay on the batched kernel instead of falling back to
// the scalar loop. Only exposure-*lost* bursts (region outage /
// blackout) bypass sampling — exactly like the scalar engine, which
// returns a lost burst before drawing anything.
//
// Output order matches the scalar engine (probe-major, ticks ascending):
// each lane writes into its probe's own row range of the dataset buffer,
// sized by probe_capacity, and ranges a probe left short (churn, hangs)
// are closed up in probe order at the end.
//
// Workers allocate nothing: the row ranges and per-probe counts come
// from run(), blocks are gathered by scanning the shard once per
// continent, and every per-block array is fixed-size.
#include <algorithm>
#include <array>
#include <numeric>

#include "atlas/campaign.hpp"
#include "net/burst_lanes.hpp"
#include "stats/lanes.hpp"
#include "stats/rng.hpp"

namespace shears::atlas {

namespace {

net::PingResult lost_burst_batched(int packets) noexcept {
  net::PingResult result;
  result.sent = packets;
  return result;
}

}  // namespace

std::size_t Campaign::run_probe_range_batched(
    std::size_t begin, std::size_t end, Measurement* records,
    const std::size_t* row_begin, std::size_t* probe_rows,
    CampaignTelemetry& telemetry) const {
  using net::kBurstLanes;
  // run()'s ceiling-division chunking hands trailing shards an empty
  // range when the fleet is small.
  if (begin >= end) return 0;

  stats::Xoshiro256 root(config_.seed);
  const std::uint32_t ticks = tick_count();
  const auto probes = fleet_->probes();
  const bool has_faults = schedule_ != nullptr && !schedule_->empty();
  const bool has_churn = config_.probe_uptime < 1.0;
  const int packets = config_.packets_per_ping;
  const net::LatencyModelConfig& model_config = model_->config();
  // Same pure function of the config as LatencyModel's private hoisted
  // copy, so make_burst_state here builds bit-identical states.
  const double excess_sigma =
      stats::lognormal_sigma_of_spread(model_config.excess_spread);
  const auto diurnal_period = static_cast<std::uint32_t>(
      24 / std::gcd(config_.interval_hours, 24));

  // Lanes blocked within one continent share the target span and
  // per-tick burst count; each continent's probes are taken in probe
  // order, up to kBurstLanes at a time.
  for (std::size_t ci = 0; ci < geo::kContinentCount; ++ci) {
    const auto& targets = targets_by_continent_[ci];
    if (targets.empty()) continue;  // same skip as scalar
    const std::size_t per_tick = std::min(
        static_cast<std::size_t>(config_.targets_per_tick), targets.size());

    std::size_t cursor = begin;
    while (true) {
      // --- Per-lane (per-probe) setup, scalar order within each lane:
      // fork, rotation draw, congestion stationary draw.
      std::array<const Probe*, kBurstLanes> probe{};
      std::array<std::uint64_t, kBurstLanes> ids{};
      std::array<std::size_t, kBurstLanes> lane_probe{};  ///< pi
      std::size_t block_n = 0;
      for (; cursor < end && block_n < kBurstLanes; ++cursor) {
        if (geo::index_of(probes[cursor].country->continent) != ci) continue;
        probe[block_n] = &probes[cursor];
        ids[block_n] = probes[cursor].id;
        lane_probe[block_n] = cursor;
        ++block_n;
      }
      if (block_n == 0) break;
      stats::XoshiroLanes rng = stats::XoshiroLanes::striped(
          root, std::span<const std::uint64_t>(ids.data(), block_n));

      std::array<std::size_t, kBurstLanes> slot_base{};
      for (std::size_t l = 0; l < block_n; ++l) {
        slot_base[l] = rng.lane(l).bounded(targets.size());
      }
      std::array<net::CongestionState, kBurstLanes> congestion;
      for (std::size_t l = 0; l < block_n; ++l) {
        congestion[l] = net::CongestionState(model_config, rng.lane(l));
      }

      std::array<faults::ProbeContext, kBurstLanes> fault_ctx{};
      std::array<const net::CachedProfile*, kBurstLanes> lane_profile{};
      std::array<const net::CachedPath*, kBurstLanes> lane_paths{};
      std::array<std::array<double, 24>, kBurstLanes> diurnal{};
      for (std::size_t l = 0; l < block_n; ++l) {
        const Probe& p = *probe[l];
        fault_ctx[l] = faults::ProbeContext{
            p.id, p.isp != nullptr ? p.isp->asn : 0u,
            faults::FaultSchedule::country_key(p.country->iso2),
            net::is_wireless(p.endpoint.access)};
        lane_profile[l] = &cache_.profile(p.id);
        lane_paths[l] = cache_.paths(p.id);
        for (std::uint32_t k = 0; k < diurnal_period; ++k) {
          const double utc_hour = static_cast<double>(
              (static_cast<std::uint64_t>(k) * config_.interval_hours) % 24);
          diurnal[l][k] = model_->diurnal_load(p.endpoint, utc_hour);
        }
      }

      // --- Lockstep tick loop.
      std::array<double, kBurstLanes> temporal_load{};
      std::array<bool, kBurstLanes> live{};
      std::array<faults::ProbeExposure, kBurstLanes> probe_exp{};
      std::uint32_t phase = 0;
      for (std::uint32_t tick = 0; tick < ticks; ++tick) {
        for (std::size_t l = 0; l < block_n; ++l) {
          // Scalar per-tick draw order: congestion step first, then the
          // churn Bernoulli (only consumed when uptime < 1).
          temporal_load[l] = congestion[l].step(model_config, rng.lane(l));
          live[l] = true;
          if (has_churn && !rng.lane(l).bernoulli(config_.probe_uptime)) {
            live[l] = false;  // offline tick: absent records
            continue;
          }
          if (has_faults) {
            probe_exp[l] = schedule_->probe_exposure(fault_ctx[l], tick);
            if (probe_exp[l].probe_down) {
              ++telemetry.hang_ticks;
              live[l] = false;
            }
          }
        }

        for (std::size_t j = 0; j < per_tick; ++j) {
          net::BurstStateLanes lanes_state;
          std::array<net::PingResult, kBurstLanes> results;
          std::array<std::uint16_t, kBurstLanes> region{};
          std::array<std::uint8_t, kBurstLanes> mask{};
          std::array<std::uint8_t, kBurstLanes> emit{};
          std::array<std::uint8_t, kBurstLanes> pre_lost{};
          std::size_t sampled = 0;
          for (std::size_t l = 0; l < block_n; ++l) {
            if (!live[l]) continue;
            std::size_t slot = slot_base[l] + j;
            if (slot >= targets.size()) slot -= targets.size();
            region[l] = targets[slot];
            emit[l] = 1;
            faults::BurstExposure exposure;
            if (has_faults) {
              exposure = schedule_->burst_exposure(fault_ctx[l], probe_exp[l],
                                                   region[l], tick);
              mask[l] = exposure.mask;
              if (exposure.lost) {
                pre_lost[l] = 1;  // no sampling, no draws — like scalar
                continue;
              }
            }
            const net::Perturbation perturbation =
                has_faults ? net::Perturbation{exposure.latency_multiplier,
                                               exposure.skew_ms,
                                               exposure.extra_loss}
                           : net::Perturbation{};
            const double load = diurnal[l][phase] * temporal_load[l] *
                                exposure.load_multiplier;
            lanes_state.set_lane(
                l, net::detail::make_burst_state(lane_paths[l][region[l]],
                                                 *lane_profile[l], load,
                                                 perturbation, excess_sigma));
            ++telemetry.bursts_cached;
            ++sampled;
          }
          if (sampled > 0) {
            net::sample_burst_lanes(model_config, lanes_state, excess_sigma,
                                    packets, rng, results);
            telemetry.bursts_batched += sampled;
          }
          for (std::size_t l = 0; l < block_n; ++l) {
            if (!emit[l]) continue;
            const net::PingResult ping =
                pre_lost[l] ? lost_burst_batched(packets) : results[l];
            Measurement m;
            m.probe_id = probe[l]->id;
            m.region_index = region[l];
            m.tick = tick;
            m.sent = static_cast<std::uint8_t>(ping.sent);
            m.received = static_cast<std::uint8_t>(ping.received);
            if (ping.received > 0) {
              m.min_ms = static_cast<float>(ping.min_ms);
              m.avg_ms = static_cast<float>(ping.avg_ms);
              m.max_ms = static_cast<float>(ping.max_ms);
            }
            m.faults = mask[l];
            const std::size_t pi = lane_probe[l];
            records[row_begin[pi] + probe_rows[pi]++] = m;
            ++telemetry.bursts;
            if (mask[l] != 0) {
              ++telemetry.bursts_faulted;
              telemetry.fault_kinds.record(mask[l]);
            }
          }
        }

        // Rotation advances every tick for every lane, offline or hung
        // included — same as the scalar increment-clause advance.
        for (std::size_t l = 0; l < block_n; ++l) {
          slot_base[l] += per_tick;
          if (slot_base[l] >= targets.size()) slot_base[l] -= targets.size();
        }
        if (++phase == diurnal_period) phase = 0;
      }
    }
  }

  // Close up the ranges probes left short, in probe order, from the
  // start of the shard's slice.
  const std::size_t first = row_begin[begin];
  std::size_t rows = first;
  for (std::size_t pi = begin; pi < end; ++pi) {
    if (rows != row_begin[pi]) {
      std::copy_n(records + row_begin[pi], probe_rows[pi], records + rows);
    }
    rows += probe_rows[pi];
  }
  return rows - first;
}

}  // namespace shears::atlas
