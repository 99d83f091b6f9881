// Branch-light array transcendentals for the batched sampling kernels.
//
// glibc's exp/log are scalar calls (its vector variants live in libmvec
// and demand -ffast-math semantics the determinism contract forbids), so
// the lane-batched burst kernel evaluates its lognormal / Weibull /
// Pareto math through these plain-array polynomial routines, which the
// autovectorizer turns into AVX2 code on the kernel TUs (see
// cmake/ShearsKernels.cmake). Two properties matter more than speed:
//
//   * Determinism across builds: every operation below is exact-order
//     IEEE arithmetic — no FMA (kernel TUs pin -ffp-contract=off), no
//     reassociation, no table lookups — so a given input produces the
//     same bits whether the loop was vectorized or compiled scalar. The
//     SIMD and forced-scalar builds are bit-identical by construction.
//   * Bounded drift against libm: the routines are accurate to ~1e-10
//     relative rather than correctly rounded — the batched sampler is
//     gated distributionally (scalar-vs-batched differential oracle,
//     DESIGN.md §6), not by byte identity, so polynomial degrees are
//     chosen for throughput inside that budget.
//
// Linkage: everything below sits in an anonymous namespace, so each
// kernel TU that includes this header gets its own private copy compiled
// with that TU's instruction set (net/burst_lanes.cpp generic,
// net/burst_lanes_avx2.cpp AVX2). Plain `inline` functions would be
// merged by the linker, and the generic kernel could end up calling an
// AVX2 body on a CPU without AVX2.
//
// Domain notes: callers feed exp with |x| <= a few hundred (sigma·z and
// tail exponents) and log with x > 0; inputs outside clamp to the
// nearest boundary instead of producing inf/NaN, which keeps the masked
// dummy slots of partially-active lanes harmless.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace shears::stats::vec {
namespace {

inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;

/// exp(x) for finite x, clamped to [-708, 708] (beyond which the true
/// value under/overflows a double anyway). Relative error < ~1e-11.
inline double exp_poly(double x) noexcept {
  constexpr double kLog2e = 1.4426950408889634074;
  constexpr double kShift = 0x1.8p52;  // round-to-nearest-integer trick
  // Clamp as one select expression: the vectorizer if-converts this under
  // -fno-trapping-math (see ShearsKernels.cmake), where statement-form
  // reassignment chains defeat GCC 12's if-conversion.
  const double xc = x > 708.0 ? 708.0 : (x < -708.0 ? -708.0 : x);
  const double kd = xc * kLog2e + kShift;
  const double k = kd - kShift;  // nearest integer to xc * log2(e)
  const double r = (xc - k * kLn2Hi) - k * kLn2Lo;  // |r| <= ln2/2
  // Taylor for exp(r), degree 9 in exact Horner order: the truncation
  // term r^10/10! is < 7e-12 on the reduced range — far inside the
  // distributional gate's budget, and four Horner steps cheaper than a
  // faithful-rounding degree.
  double p = 1.0 / 362880.0;
  p = p * r + 1.0 / 40320.0;
  p = p * r + 1.0 / 5040.0;
  p = p * r + 1.0 / 720.0;
  p = p * r + 1.0 / 120.0;
  p = p * r + 1.0 / 24.0;
  p = p * r + 1.0 / 6.0;
  p = p * r + 0.5;
  p = p * r + 1.0;
  p = p * r + 1.0;
  // Scale by 2^k through the exponent bits; |k| <= 1022 after the clamp,
  // so the biased exponent never leaves (0, 2046). The integer k is read
  // out of kd's mantissa (kd == 1.5·2^52 + k exactly), which keeps the
  // whole routine in integer/fp lanes the vectorizer handles.
  const std::int64_t ik =
      (std::bit_cast<std::int64_t>(kd) & 0x000FFFFFFFFFFFFFLL) -
      0x0008000000000000LL;
  const double scale = std::bit_cast<double>((ik + 1023) << 52);
  return p * scale;
}

/// log(x) for x > 0 finite. Inputs below DBL_MIN (including +0 from
/// masked dummy slots) clamp to DBL_MIN, yielding ~-708.4 — more
/// negative than any draw the samplers produce, so downstream exp
/// flushes the value to the same ~0 the scalar path computes. Relative
/// error < ~1e-10.
inline double log_poly(double x) noexcept {
  constexpr double kMinNormal = 2.2250738585072014e-308;
  constexpr double kSqrt2 = 1.41421356237309504880;
  constexpr double kShift = 0x1.8p52;
  const double xs = x < kMinNormal ? kMinNormal : x;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(xs);
  const double m0 = std::bit_cast<double>((bits & 0x000FFFFFFFFFFFFFULL) |
                                          0x3FF0000000000000ULL);  // [1, 2)
  // Biased exponent as a double without an int64->double conversion
  // (which would need AVX512DQ to vectorize): adding the small integer
  // to kShift's bit pattern plants it in the mantissa, so the subtract
  // reads it back exactly — the inverse of exp_poly's rounding trick.
  const double eb =
      std::bit_cast<double>(static_cast<std::int64_t>(bits >> 52) +
                            std::bit_cast<std::int64_t>(kShift)) -
      kShift;
  // Fold the mantissa into [sqrt(2)/2, sqrt(2)) so s stays small. Selects
  // stay in expression form (see exp_poly) and the exponent bump happens
  // in exact double arithmetic, keeping the whole routine if-convertible.
  const bool fold = m0 > kSqrt2;
  const double m = fold ? m0 * 0.5 : m0;
  const double ed = (fold ? eb + 1.0 : eb) - 1023.0;
  const double s = (m - 1.0) / (m + 1.0);  // |s| <= 0.1716
  const double z = s * s;
  // atanh series: log(m) = 2s (1 + z/3 + z^2/5 + ...); z <= 0.0295, the
  // z^5/11 truncation is < 3e-9 relative on log(m) and shrinks with the
  // exponent term folded in — inside the distributional gate's budget.
  double p = 1.0 / 9.0;
  p = p * z + 1.0 / 7.0;
  p = p * z + 1.0 / 5.0;
  p = p * z + 1.0 / 3.0;
  p = p * z + 1.0;
  const double lm = 2.0 * s * p;
  return ed * kLn2Hi + (lm + ed * kLn2Lo);
}

/// sin(2*pi*t) for |t| <= 0.25 (one quarter period, in turns). Taylor
/// degree 11 in exact Horner order; the degree-13 truncation term is
/// < 6e-8 at the |t| = 0.25 boundary — far inside the epsilon budget of
/// the batched-sampling differential gate, which is distributional.
inline double sin_2pi_quarter(double t) noexcept {
  constexpr double k2Pi = 6.283185307179586476925286766559;
  constexpr double c0 = k2Pi;
  constexpr double c1 = -k2Pi * k2Pi * k2Pi / 6.0;
  constexpr double c2 = k2Pi * k2Pi * k2Pi * k2Pi * k2Pi / 120.0;
  constexpr double c3 = -c2 * k2Pi * k2Pi / 42.0;   // -(2pi)^7/7!
  constexpr double c4 = -c3 * k2Pi * k2Pi / 72.0;   // +(2pi)^9/9!
  constexpr double c5 = -c4 * k2Pi * k2Pi / 110.0;  // -(2pi)^11/11!
  const double z = t * t;
  double p = c5;
  p = p * z + c4;
  p = p * z + c3;
  p = p * z + c2;
  p = p * z + c1;
  p = p * z + c0;
  return t * p;
}

/// cos(2*pi*v) and sin(2*pi*v) for v in [0, 1) — one full turn, the
/// Box–Muller angle. Branch-free quarter-period folding onto
/// sin_2pi_quarter so the loop around it if-converts and vectorizes.
inline void cossin_2pi(double v, double& cos_out, double& sin_out) noexcept {
  // Centre the turn: y in [-0.5, 0.5), cos(2*pi*v) = -cos(2*pi*y),
  // sin(2*pi*v) = -sin(2*pi*y).
  const double y = v - 0.5;
  const double a = y < 0.0 ? -y : y;  // |y| in [0, 0.5]
  // cos(2*pi*a) = -sin(2*pi*(a - 0.25)), argument already in a quarter.
  cos_out = sin_2pi_quarter(a - 0.25);
  // sin(2*pi*a) = sin of the folded quarter 0.25 - |a - 0.25|, always
  // >= 0 on [0, 0.5]; restore the sign of y, then the half-turn flip.
  const double d = a - 0.25;
  const double q = 0.25 - (d < 0.0 ? -d : d);
  const double s = sin_2pi_quarter(q);
  sin_out = y < 0.0 ? s : -s;
}

inline void vexp(const double* x, double* out, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = exp_poly(x[i]);
}

inline void vlog(const double* x, double* out, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = log_poly(x[i]);
}

/// Exact (correctly rounded in hardware); vectorizes to vsqrtpd under
/// -fno-math-errno.
inline void vsqrt(const double* x, double* out, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = std::sqrt(x[i]);
}

}  // namespace
}  // namespace shears::stats::vec
