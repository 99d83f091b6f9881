// Run-time instruction-set choice for the SIMD kernels.
//
// Kernels that ship an AVX2 build next to a portable one (the store scan,
// serve/scan.hpp; the lane burst kernel, net/burst_lanes.hpp) pick
// between them once per process through this predicate, so one
// environment variable pins every dispatcher to its portable build.
#pragma once

namespace shears::stats {

/// True when the CPU supports AVX2 and the SHEARS_FORCE_SCALAR
/// environment variable is unset, empty or "0". Whether the binary
/// carries AVX2 kernels at all (SHEARS_DISABLE_SIMD) is each
/// dispatcher's own check.
[[nodiscard]] bool avx2_allowed() noexcept;

}  // namespace shears::stats
