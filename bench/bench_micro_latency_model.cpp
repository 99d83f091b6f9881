// Microbenchmarks for the latency model — the simulator's hot path: a
// nine-month campaign samples tens of millions of pings. The custom main
// also times the cached scalar burst loop against the lane-batched kernel
// and records both in the bench JSON (see bench_common.hpp).
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>

#include "bench_common.hpp"
#include "geo/country.hpp"
#include "net/burst_lanes.hpp"
#include "net/latency_model.hpp"
#include "stats/distributions.hpp"
#include "stats/lanes.hpp"
#include "stats/rng.hpp"
#include "topology/registry.hpp"

namespace {

using namespace shears;

const topology::CloudRegion& frankfurt() {
  for (const topology::CloudRegion& r : topology::all_regions()) {
    if (r.region_id == "eu-central-1") return r;
  }
  std::abort();
}

void BM_PathCharacterize(benchmark::State& state) {
  const net::PathModelConfig config;
  const geo::GeoPoint src{48.21, 16.37};
  const geo::GeoPoint dst{50.11, 8.68};
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::characterize_path(
        config, src, geo::ConnectivityTier::kTier1, dst,
        topology::BackboneClass::kPrivate));
  }
}
BENCHMARK(BM_PathCharacterize);

void BM_BaselineRtt(benchmark::State& state) {
  const net::LatencyModel model;
  const net::Endpoint src{{48.21, 16.37}, geo::ConnectivityTier::kTier1,
                          net::AccessTechnology::kCable};
  const topology::CloudRegion& dst = frankfurt();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.baseline_rtt_ms(src, dst));
  }
}
BENCHMARK(BM_BaselineRtt);

void BM_PingOnce(benchmark::State& state) {
  const net::LatencyModel model;
  const net::Endpoint src{{48.21, 16.37}, geo::ConnectivityTier::kTier1,
                          net::AccessTechnology::kCable};
  const topology::CloudRegion& dst = frankfurt();
  stats::Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.ping_once(src, dst, rng));
  }
}
BENCHMARK(BM_PingOnce);

void BM_PingBurst3(benchmark::State& state) {
  const net::LatencyModel model;
  const net::Endpoint src{{40.71, -74.01}, geo::ConnectivityTier::kTier1,
                          net::AccessTechnology::kLte};
  const topology::CloudRegion& dst = frankfurt();
  stats::Xoshiro256 rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::detail::aggregate_burst(
        3, [&] { return model.ping_once(src, dst, rng); }));
  }
}
BENCHMARK(BM_PingBurst3);

void BM_PingBurst3Cached(benchmark::State& state) {
  // The campaign hot path: the pair's path and access profile come from
  // the sampling cache instead of being recomputed per packet as in
  // BM_PingBurst3.
  const net::LatencyModel model;
  const net::Endpoint src{{40.71, -74.01}, geo::ConnectivityTier::kTier1,
                          net::AccessTechnology::kLte};
  const topology::CloudRegion& dst = frankfurt();
  const net::CachedPath path = model.cache_path(src, dst);
  const net::CachedProfile profile = model.cache_profile(src);
  stats::Xoshiro256 rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.ping_cached(path, profile, 3, 1.0, {}, rng));
  }
}
BENCHMARK(BM_PingBurst3Cached);

void BM_AccessSample(benchmark::State& state) {
  const net::AccessProfile profile = net::profile_for(
      net::AccessTechnology::kLte, geo::ConnectivityTier::kTier2);
  stats::Xoshiro256 rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::sample_access_latency(profile, rng));
  }
}
BENCHMARK(BM_AccessSample);

/// Times the cached scalar burst loop against the 8-lane batched kernel
/// on the same representative pair, recording the scalar loop as
/// burst_cached and the kernel as burst_batched. The two
/// loops do the same sampling work per burst — same burst state, same
/// per-lane RNG discipline — so items/s is an apples-to-apples kernel
/// comparison. Gated by SHEARS_BATCHED_GATE (default 2x; run_benches.sh
/// raises it to the 3x acceptance bar; 0 disables).
int run_batched_comparison() {
  using clock = std::chrono::steady_clock;
  constexpr int kBursts = 500000;
  constexpr int kPackets = 3;

  const net::LatencyModel model;
  const net::Endpoint src{{40.71, -74.01}, geo::ConnectivityTier::kTier1,
                          net::AccessTechnology::kLte};
  const topology::CloudRegion& dst = frankfurt();
  const net::CachedPath path = model.cache_path(src, dst);
  const net::CachedProfile profile = model.cache_profile(src);

  stats::Xoshiro256 rng(11);
  double scalar_sink = 0.0;
  auto start = clock::now();
  for (int i = 0; i < kBursts; ++i) {
    scalar_sink +=
        model.ping_cached(path, profile, kPackets, 1.0, {}, rng).avg_ms;
  }
  const double scalar_s =
      std::chrono::duration<double>(clock::now() - start).count();

  const double excess_sigma =
      stats::lognormal_sigma_of_spread(model.config().excess_spread);
  const net::detail::BurstState state = net::detail::make_burst_state(
      path, profile, 1.0, {}, excess_sigma);
  net::BurstStateLanes lanes_state;
  for (std::size_t l = 0; l < net::kBurstLanes; ++l) {
    lanes_state.set_lane(l, state);
  }
  stats::Xoshiro256 batched_root(11);
  std::array<std::uint64_t, net::kBurstLanes> ids{};
  for (std::size_t l = 0; l < net::kBurstLanes; ++l) ids[l] = l;
  stats::XoshiroLanes lanes_rng = stats::XoshiroLanes::striped(
      batched_root, std::span<const std::uint64_t>(ids.data(), ids.size()));
  std::array<net::PingResult, net::kBurstLanes> results;
  const int blocks = kBursts / static_cast<int>(net::kBurstLanes);
  double batched_sink = 0.0;
  start = clock::now();
  for (int i = 0; i < blocks; ++i) {
    net::sample_burst_lanes(model.config(), lanes_state, excess_sigma,
                            kPackets, lanes_rng, results);
    for (std::size_t l = 0; l < net::kBurstLanes; ++l) {
      batched_sink += results[l].avg_ms;
    }
  }
  const double batched_s =
      std::chrono::duration<double>(clock::now() - start).count();
  const double batched_items =
      static_cast<double>(blocks) * static_cast<double>(net::kBurstLanes);

  bench::bench_record("burst_cached", scalar_s, kBursts);
  bench::bench_record("burst_batched", batched_s, batched_items);
  const double scalar_rate = static_cast<double>(kBursts) / scalar_s;
  const double batched_rate = batched_items / batched_s;
  const double speedup = scalar_rate > 0.0 ? batched_rate / scalar_rate : 0.0;
  bench::bench_record_value("burst_batched_speedup", speedup);

  double gate = 2.0;
  if (const char* env = std::getenv("SHEARS_BATCHED_GATE")) {
    gate = std::atof(env);
  }
  std::printf(
      "batched comparison (%d bursts x %d packets): scalar %.3f s "
      "(%.0f/s), batched %.3f s (%.0f/s), %.2fx (gate %.1fx)\n",
      kBursts, kPackets, scalar_s, scalar_rate, batched_s, batched_rate,
      speedup, gate);
  (void)scalar_sink;
  (void)batched_sink;
  if (gate > 0.0 && speedup < gate) {
    std::printf("FAIL: batched kernel speedup below gate\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_batched_comparison();
}
