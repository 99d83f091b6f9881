#include "serve/scan.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "stats/isa.hpp"

namespace shears::serve {

namespace {

float scalar_min(const float* data, std::size_t n) {
  float m = data[0];
  for (std::size_t i = 1; i < n; ++i) {
    m = data[i] < m ? data[i] : m;
  }
  return m;
}

std::size_t scalar_count_le(const float* data, std::size_t n,
                            float threshold) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    count += data[i] <= threshold ? 1 : 0;
  }
  return count;
}

constexpr ScanKernels kScalarKernels{"scalar", scalar_min, scalar_count_le};

}  // namespace

const ScanKernels& scalar_scan_kernels() noexcept { return kScalarKernels; }

const ScanKernels& active_scan_kernels() noexcept {
  static const ScanKernels& chosen = []() -> const ScanKernels& {
    const ScanKernels* avx2 = detail::avx2_scan_kernels();
    if (avx2 != nullptr && stats::avx2_allowed()) return *avx2;
    return kScalarKernels;
  }();
  return chosen;
}

float kth_smallest(const ScanKernels& kernels, const float* data,
                   std::size_t n, std::size_t k) noexcept {
  // For non-negative IEEE floats the unsigned bit pattern orders exactly
  // like the value, so the k-th smallest element is the smallest float f
  // with count_le(f) >= k + 1 — found by bisecting the bit space. The
  // upper bound 0x7F7FFFFF (max finite float) keeps every probe finite;
  // the store's RTT columns never hold inf/NaN.
  std::uint32_t lo = 0;
  std::uint32_t hi = 0x7F7FFFFFu;
  const std::size_t rank = k + 1;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (kernels.count_le(data, n, std::bit_cast<float>(mid)) >= rank) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return std::bit_cast<float>(lo);
}

double quantile_type7(const ScanKernels& kernels, const float* data,
                      std::size_t n, double q) noexcept {
  return type7_quantile(n, q, [&](std::size_t k) {
    return kth_smallest(kernels, data, n, k);
  });
}

float kth_smallest_of_runs(std::span<const std::span<const float>> runs,
                           std::size_t k) noexcept {
  // Same bit-space bisection as kth_smallest, bracketed by the union's
  // extremes: the smallest bit pattern whose upper_bound counts summed
  // over the runs reach rank k + 1 is the k-th smallest element.
  std::uint32_t lo = 0xFFFFFFFFu;
  std::uint32_t hi = 0;
  for (const std::span<const float> run : runs) {
    if (run.empty()) continue;
    lo = std::min(lo, std::bit_cast<std::uint32_t>(run.front()));
    hi = std::max(hi, std::bit_cast<std::uint32_t>(run.back()));
  }
  const std::size_t rank = k + 1;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const float x = std::bit_cast<float>(mid);
    std::size_t at_or_below = 0;
    for (const std::span<const float> run : runs) {
      at_or_below += static_cast<std::size_t>(
          std::upper_bound(run.begin(), run.end(), x) - run.begin());
    }
    if (at_or_below >= rank) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return std::bit_cast<float>(lo);
}

}  // namespace shears::serve
