// Vectorized scan kernels over the columnar store's RTT columns.
//
// The store's summaries (RegionStats) are rebuilt by sorting each cell's
// sample; queries that only need min / a percentile / a feasibility
// count over a raw column can instead run these flat-array kernels,
// which reduce without sorting:
//
//   * min        — tree of IEEE min ops; associative and commutative for
//                  the store's finite non-NaN floats, so any reduction
//                  order gives the same bits;
//   * count_le   — exact comparison count (the feasibility scan: how
//                  many samples meet a budget);
//   * kth_smallest / quantile_type7 — exact order statistics by binary
//                  search on the float bit space: for non-negative IEEE
//                  floats, bit-pattern order equals numeric order, so 31
//                  count_le passes pin the k-th smallest *element*
//                  without reassociating anything;
//   * kth_smallest_of_runs — the same bisection over the union of
//                  several sorted runs, counting with upper_bound per
//                  run: how a country rollup finds its quantiles across
//                  its shard cells without a merged copy.
//
// Everything here is exact — no polynomial math, no reordered sums — so
// the kernels are gated by byte-identity against the Ecdf-based
// summaries (test_store_scan), on both the AVX2 and forced-scalar
// builds.
//
// Dispatch: active_scan_kernels() picks the AVX2 implementation when the
// binary carries it (scan_avx2.cpp, compiled with -mavx2 unless
// SHEARS_DISABLE_SIMD) and the CPU supports it, unless the
// SHEARS_FORCE_SCALAR environment variable is set (non-empty, not "0") —
// the runtime half of the scalar-fallback story, which CI's nightly
// scalar job exercises. The scalar kernels are always built and tested.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>

namespace shears::serve {

/// A kernel family: one function pointer per scan primitive. All
/// implementations must be bit-exact with the scalar reference.
struct ScanKernels {
  const char* name;  ///< "scalar" or "avx2" (diagnostics / tests)
  /// Minimum of n > 0 finite non-NaN floats.
  float (*min)(const float* data, std::size_t n);
  /// Number of elements <= threshold.
  std::size_t (*count_le)(const float* data, std::size_t n, float threshold);
};

/// The portable reference kernels; always available.
[[nodiscard]] const ScanKernels& scalar_scan_kernels() noexcept;

/// The best kernels for this process: AVX2 when compiled in and
/// supported by the CPU, unless SHEARS_FORCE_SCALAR is set in the
/// environment. Resolved once, at first call.
[[nodiscard]] const ScanKernels& active_scan_kernels() noexcept;

/// Exact k-th smallest (0-based, k < n) of n > 0 non-negative finite
/// floats, via bit-space bisection over count_le.
[[nodiscard]] float kth_smallest(const ScanKernels& kernels,
                                 const float* data, std::size_t n,
                                 std::size_t k) noexcept;

/// Type-7 (numpy-default) quantile of a sample of n > 0 values whose
/// k-th smallest (0-based) `kth(k)` returns. The one copy of the
/// interpolation: in double, exactly as stats::Ecdf::quantile does it,
/// so any float sample gives the bits Ecdf gives over its widened
/// copy (float -> double widening is exact).
template <class Kth>
[[nodiscard]] double type7_quantile(std::size_t n, double q, Kth&& kth) {
  if (q <= 0.0) return static_cast<double>(kth(std::size_t{0}));
  if (q >= 1.0) return static_cast<double>(kth(n - 1));
  const double h = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = lo + 1 < n ? lo + 1 : lo;
  const double frac = h - std::floor(h);
  const auto vlo = static_cast<double>(kth(lo));
  const auto vhi = hi == lo ? vlo : static_cast<double>(kth(hi));
  return vlo + frac * (vhi - vlo);
}

/// Type-7 quantile of n > 0 non-negative finite floats by selection —
/// bit-identical to Ecdf over the same sample.
[[nodiscard]] double quantile_type7(const ScanKernels& kernels,
                                    const float* data, std::size_t n,
                                    double q) noexcept;

/// Exact k-th smallest (0-based) of the union of sorted (ascending)
/// runs of non-negative finite floats; runs may be empty, the union
/// must hold more than k values. Bisects the float bit space between
/// the smallest front and the largest back, counting each probe with
/// one upper_bound per run — no merged copy is made.
[[nodiscard]] float kth_smallest_of_runs(
    std::span<const std::span<const float>> runs, std::size_t k) noexcept;

namespace detail {
/// The AVX2 family, or nullptr when the TU was built without -mavx2
/// (SHEARS_DISABLE_SIMD). Callers still must check CPU support.
[[nodiscard]] const ScanKernels* avx2_scan_kernels() noexcept;
}  // namespace detail

}  // namespace shears::serve
