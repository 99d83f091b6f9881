// Campaign-wide sampling cache.
//
// A campaign replays months of ping bursts over an invariant
// probe × region matrix, so the deterministic per-pair path work
// (haversine, stretch, hop budget) and the per-probe access profile are
// precomputed once — in parallel — instead of once per packet. The cache
// holds a flat row-major matrix (probe-major: one contiguous row of
// CachedPath per probe) plus one CachedProfile per probe. It is RNG-free
// by construction, so bursts sampled through it are byte-identical to the
// recomputing LatencyModel::ping_once and invariant across thread counts.
#pragma once

#include <cstdint>
#include <vector>

#include "atlas/placement.hpp"
#include "net/latency_model.hpp"
#include "topology/registry.hpp"

namespace shears::atlas {

class PathCache {
 public:
  /// An empty cache; Campaign fills its member once the config validates.
  PathCache() = default;

  /// Precomputes the full probe × region matrix with `threads` workers
  /// (0 = hardware concurrency). `fleet`, `registry`, and `model` are only
  /// read during construction; the cache owns its entries.
  PathCache(const ProbeFleet& fleet, const topology::CloudRegistry& registry,
            const net::LatencyModel& model, unsigned threads = 0);

  [[nodiscard]] bool empty() const noexcept { return paths_.empty(); }
  [[nodiscard]] std::size_t probe_count() const noexcept {
    return profiles_.size();
  }
  [[nodiscard]] std::size_t region_count() const noexcept {
    return region_count_;
  }

  /// The cached path state of one (probe, region) pair. Probe ids equal
  /// fleet indices; `region` indexes registry.regions().
  [[nodiscard]] const net::CachedPath& path(
      ProbeId probe, std::uint16_t region) const noexcept {
    return paths_[static_cast<std::size_t>(probe) * region_count_ + region];
  }

  /// The cached access state of one probe.
  [[nodiscard]] const net::CachedProfile& profile(
      ProbeId probe) const noexcept {
    return profiles_[probe];
  }

  /// One probe's contiguous row of per-region path states, indexable by
  /// region (the campaign's inner loop hoists the row base per probe).
  [[nodiscard]] const net::CachedPath* paths(ProbeId probe) const noexcept {
    return paths_.data() + static_cast<std::size_t>(probe) * region_count_;
  }

  /// Bytes held by the cache (telemetry / sizing studies).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return paths_.size() * sizeof(net::CachedPath) +
           profiles_.size() * sizeof(net::CachedProfile);
  }

 private:
  std::size_t region_count_ = 0;
  std::vector<net::CachedPath> paths_;      ///< probe-major flat matrix
  std::vector<net::CachedProfile> profiles_;
};

}  // namespace shears::atlas
