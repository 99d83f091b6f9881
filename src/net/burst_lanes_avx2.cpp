// AVX2 build of the lane burst kernel. Compiled with -mavx2 through
// shears_avx2_kernel unless SHEARS_DISABLE_SIMD is ON, in which case
// __AVX2__ is not defined and the kernel degrades to nullptr; the
// dispatcher (burst_lanes.cpp) then runs the generic build.
#include "net/burst_lanes.hpp"

#ifdef __AVX2__

#include "net/burst_lanes_kernel.hpp"

namespace shears::net {
namespace {

void sample_avx2(const LatencyModelConfig& config,
                 const BurstStateLanes& lanes, double excess_sigma,
                 int packets, stats::XoshiroLanes& rng,
                 std::array<PingResult, kBurstLanes>& out) noexcept {
  sample_burst_lanes_body(config, lanes, excess_sigma, packets, rng, out);
}

constexpr BurstKernel kAvx2Kernel{"avx2", sample_avx2};

}  // namespace

namespace detail {
const BurstKernel* avx2_burst_kernel() noexcept { return &kAvx2Kernel; }
}  // namespace detail

}  // namespace shears::net

#else

namespace shears::net::detail {
const BurstKernel* avx2_burst_kernel() noexcept { return nullptr; }
}  // namespace shears::net::detail

#endif
