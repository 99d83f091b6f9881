// Lane-batched burst sampling: the block form of detail::sample_ping and
// the sampler of the production campaign engine (atlas/campaign.hpp).
//
// The scalar reference loop samples one probe's burst at a time; per
// packet that is ~8 serial RNG draws (with data-dependent rejection
// loops) plus ~4 serial libm transcendentals, which together dominate
// the per-sample cost. The lane kernel samples one burst for up to
// kBurstLanes probes at once in three phases:
//
//   A. lockstep draw generation — every active lane consumes exactly
//      kDrawsPerPacket raw 64-bit draws per packet, in a fixed kind-major
//      schedule (`packets` loss Bernoullis, then the Box–Muller U block,
//      V block, bufferbloat Bernoullis, bufferbloat severities, spike
//      Bernoullis, spike severities), so the whole draw grid is one
//      branch-free lockstep fill: eight streams advanced in integer
//      vector lanes.
//   B. batched math — the draws go through array-form log/sqrt/cossin/
//      exp (stats/vecmath.hpp) over all lanes x packets at once. The two
//      lognormal factors share one Box–Muller pair (radius from U, the
//      cos/sin pair of V giving two independent normals); the Weibull
//      and Pareto tails run over compacted slot lists since only a
//      minority of packets draws them.
//   C. combine + aggregate — the per-packet RTT composition (the exact
//      arithmetic of detail::sample_ping) and the burst min/avg/max
//      aggregation, as branch-light array ops.
//
// Determinism contract (DESIGN.md §6): the lane kernel is
// *distribution-equivalent* to the scalar sampler, not draw-for-draw
// equal — the fixed draw schedule and the Box–Muller (rather than
// rejection polar) normals consume each lane's stream differently, so
// individual records differ while loss rates, fault structure and RTT
// quantiles agree within the bounds the differential suite (src/check)
// enforces. Within the lane engine everything stays exact: results are
// a pure function of (config, probe ids, tick), bit-identical across
// thread counts and shardings — a lane advances only when its own burst
// samples, by exactly kDrawsPerPacket * packets — and bit-identical
// between the AVX2 and generic builds (exact-order IEEE ops,
// -ffp-contract=off, polynomial transcendentals instead of libm).
//
// Dispatch: the kernel is compiled twice (burst_lanes.cpp generic,
// burst_lanes_avx2.cpp with -mavx2); active_burst_kernel() picks the AVX2
// build at first use when the binary carries it and the CPU supports it,
// unless SHEARS_FORCE_SCALAR is set (stats/isa.hpp).
//
// Faulted windows ride the same arrays: a lane's Perturbation is three
// more SoA slots (composed loss, latency scale, offset), so faulted
// bursts stay on the kernel.
#pragma once

#include <array>
#include <cstddef>

#include "net/latency_model.hpp"
#include "stats/lanes.hpp"

namespace shears::net {

inline constexpr std::size_t kBurstLanes = stats::XoshiroLanes::kLanes;

/// Raw 64-bit draws each active lane consumes per packet — the fixed
/// schedule that keeps generation branch-free. Pinned by test so the
/// "lane l advanced exactly this much" invariant (which thread/shard
/// invariance rests on) cannot drift silently.
inline constexpr std::size_t kDrawsPerPacket = 7;

/// Bursts above this packet count run on the scalar engine (the
/// kernel's scratch is stack-sized); Atlas-style campaigns use 3-4.
inline constexpr int kMaxBatchedPackets = 16;

/// detail::BurstState transposed across lanes, plus a participation
/// mask. Inactive lanes (block tail, exposure-lost bursts, hung or
/// offline probes) consume no draws and produce a default PingResult.
struct BurstStateLanes {
  std::array<double, kBurstLanes> loss{};
  std::array<double, kBurstLanes> base_rtt_ms{};
  std::array<double, kBurstLanes> excess_median_ms{};
  std::array<double, kBurstLanes> latency_scale{};
  std::array<double, kBurstLanes> offset_ms{};
  std::array<double, kBurstLanes> median_ms{};
  std::array<double, kBurstLanes> bloat_probability{};
  std::array<double, kBurstLanes> bloat_scale_ms{};
  std::array<double, kBurstLanes> log_spread{};
  std::array<bool, kBurstLanes> active{};

  void set_lane(std::size_t l, const detail::BurstState& s) noexcept {
    loss[l] = s.loss;
    base_rtt_ms[l] = s.base_rtt_ms;
    excess_median_ms[l] = s.excess_median_ms;
    latency_scale[l] = s.latency_scale;
    offset_ms[l] = s.offset_ms;
    median_ms[l] = s.median_ms;
    bloat_probability[l] = s.bloat_probability;
    bloat_scale_ms[l] = s.bloat_scale_ms;
    log_spread[l] = s.log_spread;
    active[l] = true;
  }
};

/// Samples one `packets`-echo burst per active lane. Lane l consumes
/// exactly kDrawsPerPacket * packets draws from its stream (inactive
/// lanes none); out[l] is distributed as the scalar
/// aggregate_burst(sample_ping) result for the same BurstState.
/// `excess_sigma` is the model's hoisted
/// lognormal_sigma_of_spread(config.excess_spread). packets must be in
/// [1, kMaxBatchedPackets]. Runs active_burst_kernel().
void sample_burst_lanes(const LatencyModelConfig& config,
                        const BurstStateLanes& lanes, double excess_sigma,
                        int packets, stats::XoshiroLanes& rng,
                        std::array<PingResult, kBurstLanes>& out) noexcept;

/// One compiled build of sample_burst_lanes. Every build is bit-exact
/// with every other: same outputs, same stream positions.
struct BurstKernel {
  const char* name;  ///< "generic" or "avx2" (diagnostics and tests)
  void (*sample)(const LatencyModelConfig& config,
                 const BurstStateLanes& lanes, double excess_sigma,
                 int packets, stats::XoshiroLanes& rng,
                 std::array<PingResult, kBurstLanes>& out) noexcept;
};

/// The baseline-ISA build; always available.
[[nodiscard]] const BurstKernel& generic_burst_kernel() noexcept;

/// The build this process samples with: AVX2 when compiled in and
/// allowed by stats::avx2_allowed(), else generic. Resolved once, at
/// first call.
[[nodiscard]] const BurstKernel& active_burst_kernel() noexcept;

namespace detail {
/// The AVX2 build, or nullptr when the binary was built without it.
[[nodiscard]] const BurstKernel* avx2_burst_kernel() noexcept;
}  // namespace detail

}  // namespace shears::net
