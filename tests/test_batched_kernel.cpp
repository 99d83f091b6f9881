// Tests for the lane-batched sampling kernel: RNG lane striping must be
// recoverable from the scalar per-probe forks, the lockstep generator
// must replay the scalar streams bit-for-bit, the kernel's fixed draw
// schedule (kDrawsPerPacket per packet — what thread/shard invariance
// rests on) must hold exactly, the block kernel must agree with
// per-packet sample_ping *distributionally* (the engines consume their
// streams differently by design), and a faulted (non-lost) window must
// stay on the batched SoA path instead of falling back to scalar
// sampling.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "atlas/campaign.hpp"
#include "atlas/placement.hpp"
#include "faults/fault_schedule.hpp"
#include "geo/country.hpp"
#include "net/burst_lanes.hpp"
#include "net/latency_model.hpp"
#include "stats/lanes.hpp"
#include "stats/lanes_kernel.hpp"
#include "stats/rng.hpp"
#include "topology/registry.hpp"

namespace shears {
namespace {

double quantile_sorted(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

TEST(XoshiroLanes, StripedLanesMatchScalarForks) {
  // Lane l of striped(root, ids) must replay exactly the stream the
  // scalar engine gets from root.fork(ids[l]) — that equivalence is the
  // whole determinism story of the batched engine.
  stats::Xoshiro256 root(2020);
  const std::array<std::uint64_t, 5> ids = {3, 17, 42, 1000003, 0};
  stats::XoshiroLanes lanes = stats::XoshiroLanes::striped(
      root, std::span<const std::uint64_t>(ids.data(), ids.size()));
  for (std::size_t l = 0; l < ids.size(); ++l) {
    stats::Xoshiro256 scalar = root.fork(ids[l]);
    for (int i = 0; i < 64; ++i) {
      EXPECT_EQ(lanes.lane(l).next(), scalar.next())
          << "lane " << l << " draw " << i;
    }
  }
}

TEST(XoshiroLanes, LockstepFillMatchesScalarStreams) {
  // lockstep_fill must replay every lane's scalar stream bit for bit,
  // and only advance the lanes the mask says advanced.
  stats::Xoshiro256 root(91);
  std::array<std::uint64_t, stats::XoshiroLanes::kLanes> ids{};
  for (std::size_t l = 0; l < ids.size(); ++l) ids[l] = 40 + 3 * l;
  stats::XoshiroLanes lanes = stats::XoshiroLanes::striped(
      root, std::span<const std::uint64_t>(ids.data(), ids.size()));

  constexpr std::size_t kRounds = 23;
  std::array<bool, stats::XoshiroLanes::kLanes> advance{};
  for (std::size_t l = 0; l < advance.size(); ++l) advance[l] = (l % 3 != 2);

  std::vector<std::uint64_t> grid(kRounds * stats::XoshiroLanes::kLanes);
  stats::lockstep_fill(lanes, grid.data(), kRounds, advance);

  for (std::size_t l = 0; l < stats::XoshiroLanes::kLanes; ++l) {
    stats::Xoshiro256 scalar = root.fork(ids[l]);
    // The grid always holds the stream continuation, mask or not.
    for (std::size_t r = 0; r < kRounds; ++r) {
      EXPECT_EQ(grid[r * stats::XoshiroLanes::kLanes + l], scalar.next())
          << "lane " << l << " round " << r;
    }
    // Advanced lanes continue from round kRounds; held lanes rewind to
    // the start of their stream.
    stats::Xoshiro256 expect_next =
        advance[l] ? scalar : root.fork(ids[l]);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(lanes.lane(l).next(), expect_next.next()) << "lane " << l;
    }
  }
}

net::detail::BurstState test_burst_state() {
  net::detail::BurstState state;
  state.loss = 0.05;
  state.base_rtt_ms = 38.0;
  state.excess_median_ms = 4.0;
  state.excess_sigma = 0.6;
  state.latency_scale = 1.1;
  state.offset_ms = 2.0;
  state.median_ms = 9.0;
  state.bloat_probability = 0.3;
  state.bloat_scale_ms = 45.0;
  state.log_spread = 0.4;
  return state;
}

TEST(BurstLanes, KernelConsumesExactlyDrawsPerPacket) {
  // The thread/shard invariance of the batched engine rests on one
  // invariant: an active lane's stream advances by exactly
  // kDrawsPerPacket * packets per sampled burst, inactive lanes not at
  // all. Pin it for a partially active block.
  const net::LatencyModelConfig config;
  const net::detail::BurstState state = test_burst_state();
  const int packets = 5;

  std::array<std::uint64_t, net::kBurstLanes> ids{};
  for (std::size_t l = 0; l < net::kBurstLanes; ++l) ids[l] = 100 + l;
  stats::Xoshiro256 root(7);
  stats::XoshiroLanes lanes_rng = stats::XoshiroLanes::striped(
      root, std::span<const std::uint64_t>(ids.data(), ids.size()));

  net::BurstStateLanes lanes_state;
  for (std::size_t l = 0; l < net::kBurstLanes; ++l) {
    if (l % 2 == 0) lanes_state.set_lane(l, state);  // odd lanes inactive
  }
  std::array<net::PingResult, net::kBurstLanes> out;
  net::sample_burst_lanes(config, lanes_state, state.excess_sigma, packets,
                          lanes_rng, out);

  for (std::size_t l = 0; l < net::kBurstLanes; ++l) {
    stats::Xoshiro256 expect = root.fork(ids[l]);
    if (l % 2 == 0) {
      for (std::size_t d = 0;
           d < net::kDrawsPerPacket * static_cast<std::size_t>(packets); ++d) {
        expect.next();
      }
      EXPECT_GT(out[l].sent, 0) << "lane " << l;
    } else {
      EXPECT_EQ(out[l].sent, 0) << "lane " << l;
    }
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(lanes_rng.lane(l).next(), expect.next()) << "lane " << l;
    }
  }
}

TEST(BurstLanes, KernelMatchesScalarDistribution) {
  // The batched engine consumes its streams on a fixed schedule with
  // Box–Muller normals, so individual bursts differ from the scalar
  // engine by design; what must agree is the distribution. Sample a
  // large population of bursts from both engines with the same
  // BurstState and compare loss rate and the burst-aggregate RTT
  // quantiles. Quantiles (not means) keep the Pareto spike tail from
  // destabilising the comparison. Bounds are ~10x the sampling noise at
  // this population size, so the test is deterministic in practice while
  // still catching any real distributional break.
  const net::LatencyModelConfig config;
  const net::detail::BurstState state = test_burst_state();
  const int packets = 4;
  constexpr int kBlocks = 4000;  // x8 lanes = 32000 bursts per engine

  std::array<std::uint64_t, net::kBurstLanes> ids{};
  for (std::size_t l = 0; l < net::kBurstLanes; ++l) ids[l] = 100 + l;
  stats::Xoshiro256 root(7);
  stats::XoshiroLanes lanes_rng = stats::XoshiroLanes::striped(
      root, std::span<const std::uint64_t>(ids.data(), ids.size()));
  net::BurstStateLanes lanes_state;
  for (std::size_t l = 0; l < net::kBurstLanes; ++l) {
    lanes_state.set_lane(l, state);
  }

  std::int64_t batched_sent = 0, batched_received = 0;
  std::vector<double> batched_avg;
  std::array<net::PingResult, net::kBurstLanes> out;
  for (int b = 0; b < kBlocks; ++b) {
    net::sample_burst_lanes(config, lanes_state, state.excess_sigma, packets,
                            lanes_rng, out);
    for (std::size_t l = 0; l < net::kBurstLanes; ++l) {
      batched_sent += out[l].sent;
      batched_received += out[l].received;
      if (out[l].received > 0) batched_avg.push_back(out[l].avg_ms);
    }
  }

  std::int64_t scalar_sent = 0, scalar_received = 0;
  std::vector<double> scalar_avg;
  stats::Xoshiro256 scalar_rng(1234);
  for (int b = 0; b < kBlocks * static_cast<int>(net::kBurstLanes); ++b) {
    const net::PingResult r = net::detail::aggregate_burst(
        packets,
        [&] { return net::detail::sample_ping(config, state, scalar_rng); });
    scalar_sent += r.sent;
    scalar_received += r.received;
    if (r.received > 0) scalar_avg.push_back(r.avg_ms);
  }

  const double batched_loss =
      1.0 - static_cast<double>(batched_received) /
                static_cast<double>(batched_sent);
  const double scalar_loss =
      1.0 - static_cast<double>(scalar_received) /
                static_cast<double>(scalar_sent);
  EXPECT_NEAR(batched_loss, scalar_loss, 0.01);

  std::sort(batched_avg.begin(), batched_avg.end());
  std::sort(scalar_avg.begin(), scalar_avg.end());
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    const double bq = quantile_sorted(batched_avg, q);
    const double sq = quantile_sorted(scalar_avg, q);
    EXPECT_NEAR(bq, sq, 0.03 * sq + 0.5) << "quantile " << q;
  }
  // The p99 sits on the spike tail; allow proportionally more noise.
  const double b99 = quantile_sorted(batched_avg, 0.99);
  const double s99 = quantile_sorted(scalar_avg, 0.99);
  EXPECT_NEAR(b99, s99, 0.10 * s99 + 1.0);
}

TEST(BurstLanes, Avx2AndGenericBuildsAreBitIdentical) {
  // DESIGN.md §6: the AVX2 and generic kernel builds give the same bits.
  // Drive both through a spread of burst states, packet counts and lane
  // masks from the same streams, and fold every output and every final
  // stream position into one checksum per build.
  const net::BurstKernel* avx2 = net::detail::avx2_burst_kernel();
  if (avx2 == nullptr || !__builtin_cpu_supports("avx2")) {
    GTEST_SKIP() << "no AVX2 kernel build on this binary or CPU";
  }
  const net::LatencyModelConfig config;
  const auto checksum = [&](const net::BurstKernel& kernel) {
    std::array<std::uint64_t, net::kBurstLanes> ids{};
    for (std::size_t l = 0; l < net::kBurstLanes; ++l) ids[l] = 500 + l;
    stats::Xoshiro256 root(29);
    stats::XoshiroLanes rng = stats::XoshiroLanes::striped(
        root, std::span<const std::uint64_t>(ids.data(), ids.size()));
    stats::Xoshiro256 shape(31);  // drives the burst states, not sampled
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 0x100000001b3ULL;
    };
    std::array<net::PingResult, net::kBurstLanes> out;
    for (int block = 0; block < 20000; ++block) {
      net::BurstStateLanes lanes;
      for (std::size_t l = 0; l < net::kBurstLanes; ++l) {
        if (shape.next_double() < 0.15) continue;  // inactive lane
        net::detail::BurstState s = test_burst_state();
        s.loss = shape.uniform(0.0, 0.6);
        s.base_rtt_ms = shape.uniform(0.5, 300.0);
        s.excess_median_ms = shape.uniform(0.0, 40.0);
        s.latency_scale = shape.uniform(1.0, 3.0);
        s.offset_ms = shape.uniform(-60.0, 30.0);
        s.median_ms = shape.uniform(0.0, 60.0);
        s.bloat_probability = shape.uniform(0.0, 1.0);
        s.log_spread = shape.uniform(0.0, 1.2);
        lanes.set_lane(l, s);
      }
      const int packets =
          1 + static_cast<int>(shape.bounded(net::kMaxBatchedPackets));
      kernel.sample(config, lanes, 0.6, packets, rng, out);
      for (const net::PingResult& r : out) {
        mix(static_cast<std::uint64_t>(r.sent));
        mix(static_cast<std::uint64_t>(r.received));
        mix(std::bit_cast<std::uint64_t>(r.min_ms));
        mix(std::bit_cast<std::uint64_t>(r.avg_ms));
        mix(std::bit_cast<std::uint64_t>(r.max_ms));
      }
    }
    for (std::size_t l = 0; l < net::kBurstLanes; ++l) mix(rng.lane(l).next());
    return h;
  };
  EXPECT_EQ(checksum(net::generic_burst_kernel()), checksum(*avx2));
  EXPECT_STREQ(net::generic_burst_kernel().name, "generic");
  EXPECT_STREQ(avx2->name, "avx2");
}

TEST(BatchedCampaign, FaultedWindowStaysOnBatchedPath) {
  // Regression pin for the SoA fault path: a campaign-wide congestion
  // storm perturbs every burst, and every one of them must still be
  // sampled by the lane kernel — faults must not push sampling back onto
  // the scalar loop.
  atlas::PlacementConfig placement;
  placement.probe_count = geo::country_count() + 40;
  placement.seed = 11;
  const auto fleet = atlas::ProbeFleet::generate(placement);
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;

  faults::FaultSchedule schedule;
  faults::FaultEvent storm;
  storm.kind = faults::FaultKind::kCongestionStorm;
  storm.start_tick = 0;
  storm.end_tick = 1000;
  storm.country_key = 0;  // every country
  storm.wireless_only = false;
  schedule.add_event(storm);

  atlas::CampaignConfig config;
  config.duration_days = 2;
  config.seed = 13;
  config.threads = 1;
  const atlas::Campaign campaign(fleet, registry, model, config, &schedule);
  ASSERT_TRUE(campaign.batched_eligible());

  atlas::CampaignTelemetry telemetry;
  const atlas::MeasurementDataset dataset = campaign.run(telemetry);
  EXPECT_GT(dataset.records().size(), 0u);
  EXPECT_GT(telemetry.bursts, 0u);
  EXPECT_GT(telemetry.bursts_faulted, 0u);
  EXPECT_GT(telemetry.bursts_batched, 0u);
  // Every cache-served (i.e. sampled) burst went through the lanes.
  EXPECT_EQ(telemetry.bursts_batched, telemetry.bursts_cached);
  // The storm perturbs load, it does not lose bursts: every record is
  // faulted and every record was sampled.
  EXPECT_EQ(telemetry.bursts_faulted, telemetry.bursts);
}

TEST(BatchedCampaign, IneligibleConfigFallsBackSilently) {
  atlas::PlacementConfig placement;
  placement.probe_count = geo::country_count() + 10;
  placement.seed = 5;
  const auto fleet = atlas::ProbeFleet::generate(placement);
  const auto registry = topology::CloudRegistry::campaign_footprint();
  const net::LatencyModel model;

  atlas::CampaignConfig config;
  config.duration_days = 1;
  config.seed = 3;
  config.threads = 1;
  config.retry.max_retries = 1;  // retries are outside the kernel's scope
  const atlas::Campaign campaign(fleet, registry, model, config);
  EXPECT_FALSE(campaign.batched_eligible());

  atlas::CampaignTelemetry telemetry;
  const atlas::MeasurementDataset dataset = campaign.run(telemetry);
  EXPECT_GT(dataset.records().size(), 0u);
  EXPECT_EQ(telemetry.bursts_batched, 0u);
}

}  // namespace
}  // namespace shears
