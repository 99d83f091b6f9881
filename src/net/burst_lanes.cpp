// Generic build of the lane burst kernel, and the dispatcher that picks
// between it and the AVX2 build (burst_lanes_avx2.cpp).
#include "net/burst_lanes.hpp"

#include "net/burst_lanes_kernel.hpp"
#include "stats/isa.hpp"

namespace shears::net {
namespace {

void sample_generic(const LatencyModelConfig& config,
                    const BurstStateLanes& lanes, double excess_sigma,
                    int packets, stats::XoshiroLanes& rng,
                    std::array<PingResult, kBurstLanes>& out) noexcept {
  sample_burst_lanes_body(config, lanes, excess_sigma, packets, rng, out);
}

constexpr BurstKernel kGenericKernel{"generic", sample_generic};

}  // namespace

const BurstKernel& generic_burst_kernel() noexcept { return kGenericKernel; }

const BurstKernel& active_burst_kernel() noexcept {
  static const BurstKernel& chosen = []() -> const BurstKernel& {
    const BurstKernel* avx2 = detail::avx2_burst_kernel();
    if (avx2 != nullptr && stats::avx2_allowed()) return *avx2;
    return kGenericKernel;
  }();
  return chosen;
}

void sample_burst_lanes(const LatencyModelConfig& config,
                        const BurstStateLanes& lanes, double excess_sigma,
                        int packets, stats::XoshiroLanes& rng,
                        std::array<PingResult, kBurstLanes>& out) noexcept {
  active_burst_kernel().sample(config, lanes, excess_sigma, packets, rng, out);
}

}  // namespace shears::net
