// The lane burst kernel's body, compiled once per instruction set.
//
// Include this header only from the kernel TUs: net/burst_lanes.cpp
// (generic, baseline x86-64) and net/burst_lanes_avx2.cpp (-mavx2). Both
// are built by cmake/ShearsKernels.cmake with -O3, -ffp-contract=off,
// -fno-trapping-math and -fno-math-errno. Everything here, and in the
// stats/vecmath.hpp and stats/lanes_kernel.hpp helpers it inlines, has
// internal linkage, so each TU keeps its own copy in its own ISA.
//
// There are no intrinsics here: the speedup comes from every phase being
// a plain array loop the autovectorizer turns into 4-wide AVX2 code (or
// 2-wide SSE2 code in the generic build): the draw grid is one lockstep
// fill, the masks and uniforms are branch-free derivations, and the
// transcendentals are the polynomial exp/log/cossin of stats/vecmath.hpp
// inlined into the loop bodies instead of scalar libm calls. Every
// operation is exact-order IEEE arithmetic, so both builds produce the
// same bits.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

#include "net/burst_lanes.hpp"
#include "stats/lanes_kernel.hpp"
#include "stats/vecmath.hpp"

namespace shears::net {
namespace {

using stats::lockstep_fill;
using stats::vec::cossin_2pi;
using stats::vec::vexp;
using stats::vec::vlog;
using stats::vec::vsqrt;

constexpr std::size_t kSlots =
    static_cast<std::size_t>(kMaxBatchedPackets) * kBurstLanes;

/// Uniform in [0, 1) from a raw draw: the top 52 bits become the mantissa
/// of a double in [1, 2), minus 1. Exactly (x >> 12) * 2^-52, but with no
/// int64->double conversion (which AVX2 cannot vectorize). One bit less
/// resolution than the scalar next_double(); the engines are held to
/// distributional agreement, not shared bits.
inline double to_unit(std::uint64_t x) noexcept {
  return std::bit_cast<double>(0x3FF0000000000000ULL | (x >> 12)) - 1.0;
}

/// sample_burst_lanes' contract (burst_lanes.hpp), in this TU's ISA.
inline void sample_burst_lanes_body(
    const LatencyModelConfig& config, const BurstStateLanes& lanes,
    double excess_sigma, int packets, stats::XoshiroLanes& rng,
    std::array<PingResult, kBurstLanes>& out) noexcept {
  const std::size_t np = static_cast<std::size_t>(packets);
  const std::size_t n = np * kBurstLanes;

  // --- Phase A: one lockstep fill generates the whole draw grid. Each
  // lane's stream is consumed kind-major: np loss draws, np Box–Muller U,
  // np V, np bufferbloat Bernoullis, np bufferbloat severities, np spike
  // Bernoullis, np spike severities — kDrawsPerPacket * np in total, a
  // pure function of the lane's own stream position. Row r holds draw r
  // of every lane, so kind block k is the contiguous range
  // draws[k*n .. k*n+n) and its element p*kBurstLanes+l is already the
  // slot index used everywhere below.
  std::uint64_t draws[kDrawsPerPacket * kSlots];
  lockstep_fill(rng, draws, kDrawsPerPacket * np, lanes.active);
  const std::uint64_t* g_loss = draws + 0 * n;
  const std::uint64_t* g_u = draws + 1 * n;
  const std::uint64_t* g_v = draws + 2 * n;
  const std::uint64_t* g_bloat = draws + 3 * n;
  const std::uint64_t* g_wsev = draws + 4 * n;
  const std::uint64_t* g_spike = draws + 5 * n;
  const std::uint64_t* g_psev = draws + 6 * n;

  // Masks and uniforms, one single-purpose loop each (mixing u64 mask
  // stores and double stores in one body defeats the vectorizer). The
  // masks are u64 0/1 so the compare result stays in the integer lanes.
  // `u < p` reproduces bernoulli()'s clamping for free: u >= 0 rejects
  // p <= 0, u < 1 accepts p >= 1.
  std::uint64_t lost[kSlots];
  std::uint64_t has_bloat[kSlots];
  std::uint64_t has_spike[kSlots];
  double uu[kSlots], uv[kSlots];
  for (std::size_t p = 0; p < np; ++p)
    for (std::size_t l = 0; l < kBurstLanes; ++l) {
      const std::size_t idx = p * kBurstLanes + l;
      lost[idx] = to_unit(g_loss[idx]) < lanes.loss[l] ? 1 : 0;
    }
  for (std::size_t i = 0; i < n; ++i) uu[i] = to_unit(g_u[i]);
  for (std::size_t i = 0; i < n; ++i) uv[i] = to_unit(g_v[i]);
  for (std::size_t p = 0; p < np; ++p)
    for (std::size_t l = 0; l < kBurstLanes; ++l) {
      const std::size_t idx = p * kBurstLanes + l;
      has_bloat[idx] =
          to_unit(g_bloat[idx]) < lanes.bloat_probability[l] ? 1 : 0;
    }
  for (std::size_t i = 0; i < n; ++i)
    has_spike[i] = to_unit(g_spike[i]) < config.spike_probability ? 1 : 0;

  // --- Phase B: batched transcendentals.
  // One Box–Muller pair per packet serves both lognormal factors:
  // radius r = sqrt(-2 log U), angle (c, s) = cossin(2*pi*V), giving the
  // two independent standard normals r*c (queueing excess) and r*s
  // (access latency). log_poly's DBL_MIN clamp keeps the U == 0 corner
  // finite.
  double w[kSlots], radius[kSlots];
  vlog(uu, w, n);
  for (std::size_t i = 0; i < n; ++i) w[i] = -2.0 * w[i];
  vsqrt(w, radius, n);

  double t1[kSlots], t2[kSlots];
  for (std::size_t i = 0; i < n; ++i) {
    double c, s;
    cossin_2pi(uv[i], c, s);
    t1[i] = excess_sigma * (radius[i] * c);
    // log_spread is per-lane, folded in below; keep the raw normal here.
    t2[i] = radius[i] * s;
  }
  vexp(t1, t1, n);
  double body1[kSlots], body2[kSlots];
  for (std::size_t p = 0; p < np; ++p)
    for (std::size_t l = 0; l < kBurstLanes; ++l) {
      const std::size_t idx = p * kBurstLanes + l;
      body1[idx] = lanes.excess_median_ms[l] * t1[idx];
      t2[idx] = lanes.log_spread[l] * t2[idx];
    }
  vexp(t2, t2, n);
  for (std::size_t p = 0; p < np; ++p)
    for (std::size_t l = 0; l < kBurstLanes; ++l) {
      const std::size_t idx = p * kBurstLanes + l;
      body2[idx] = lanes.median_ms[l] * t2[idx];
    }

  // Bufferbloat Weibull(0.8, scale_l) and spike Pareto(x_min, alpha)
  // severities: only a minority of slots draws either (bloat is a
  // per-burst probability, spikes are rare), so both pipelines run over
  // a compacted slot list instead of the full grid. Untouched slots stay
  // 0.0, which lets phase C add them unconditionally.
  double wsev[kSlots], psev[kSlots];
  for (std::size_t i = 0; i < n; ++i) wsev[i] = psev[i] = 0.0;
  double packed[kSlots + 4];
  int slot_of[kSlots];

  // Branchless compaction: unconditional store, advance by the mask.
  // Data-dependent `if`s here mispredict ~30% of the time on the bloat
  // Bernoulli and cost more than the wasted stores.
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    packed[m] = 1.0 - to_unit(g_wsev[i]);  // (0, 1]: log stays finite
    slot_of[m] = static_cast<int>(i);
    m += has_bloat[i];
  }
  if (m > 0) {
    // Pad to a full vector; -log(1) == 0 makes the pad slots inert.
    const std::size_t mp = (m + 3) & ~std::size_t{3};
    for (std::size_t j = m; j < mp; ++j) packed[j] = 1.0;
    // scale * (-log u)^(1/0.8) via the double-log pipeline
    // exp(1.25 * log(-log u)); u == 1 rides the log clamp down to a
    // denormal-scale ~0, matching the scalar 0 within epsilon.
    vlog(packed, packed, mp);
    for (std::size_t j = 0; j < mp; ++j) packed[j] = -packed[j];
    vlog(packed, packed, mp);
    for (std::size_t j = 0; j < mp; ++j) packed[j] = 1.25 * packed[j];
    vexp(packed, packed, mp);
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t i = static_cast<std::size_t>(slot_of[j]);
      wsev[i] = lanes.bloat_scale_ms[i % kBurstLanes] * packed[j];
    }
  }

  m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    packed[m] = 1.0 - to_unit(g_psev[i]);
    slot_of[m] = static_cast<int>(i);
    m += has_spike[i];
  }
  if (m > 0) {
    const std::size_t mp = (m + 3) & ~std::size_t{3};
    for (std::size_t j = m; j < mp; ++j) packed[j] = 1.0;
    // x_min * u^(-1/alpha) = x_min * exp(-log(u) / alpha).
    const double neg_inv_alpha = -1.0 / config.spike_alpha;
    vlog(packed, packed, mp);
    for (std::size_t j = 0; j < mp; ++j) packed[j] = neg_inv_alpha * packed[j];
    vexp(packed, packed, mp);
    for (std::size_t j = 0; j < m; ++j)
      psev[static_cast<std::size_t>(slot_of[j])] =
          config.spike_min_ms * packed[j];
  }

  // --- Phase C: per-packet RTT composition in sample_ping's exact
  // order, then the burst aggregation of aggregate_burst. body1/body2
  // are exact zeros when a lane's median is zero (0 * exp == 0), the
  // same value the scalar guards contribute; the unconditional
  // latency_scale / offset / clamp steps are sample_ping's own, exact
  // IEEE identities for neutral lanes.
  const bool excess_on = config.excess_fraction > 0.0;
  double rtt[kSlots];
  for (std::size_t p = 0; p < np; ++p)
    for (std::size_t l = 0; l < kBurstLanes; ++l) {
      const std::size_t idx = p * kBurstLanes + l;
      double r = lanes.base_rtt_ms[l];
      r += excess_on ? body1[idx] : 0.0;
      r *= lanes.latency_scale[l];
      double access = body2[idx] + wsev[idx];
      access = access < 0.2 ? 0.2 : access;
      r += access;
      r += psev[idx];
      r = r + lanes.offset_ms[l];
      rtt[idx] = r < 0.0 ? 0.0 : r;
    }

  for (std::size_t l = 0; l < kBurstLanes; ++l) {
    out[l] = PingResult{};
    if (!lanes.active[l]) continue;
    PingResult& result = out[l];
    result.sent = packets;
    double sum = 0.0;
    for (std::size_t p = 0; p < np; ++p) {
      const std::size_t idx = p * kBurstLanes + l;
      if (lost[idx]) continue;
      const double r = rtt[idx];
      if (result.received == 0) {
        result.min_ms = result.max_ms = r;
      } else {
        result.min_ms = std::min(result.min_ms, r);
        result.max_ms = std::max(result.max_ms, r);
      }
      sum += r;
      ++result.received;
    }
    if (result.received > 0) result.avg_ms = sum / result.received;
  }
}

}  // namespace
}  // namespace shears::net
