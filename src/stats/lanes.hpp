// Lane-batched PRNG: N independent Xoshiro256** streams advanced side by
// side for the block sampling kernels (net/burst_lanes.hpp).
//
// The lanes are the *same* generators the scalar engine uses — lane l is
// root.fork(stream_ids[l]), exactly the fork the per-probe scalar path
// performs — so any lane's raw 64-bit stream is recoverable by running
// that fork by hand. The batched kernel consumes each lane's stream on a
// *fixed schedule* (a constant number of draws per packet, see
// net/burst_lanes.hpp) instead of the scalar engine's data-dependent
// draw pattern; that is what lets the lockstep generator
// (stats/lanes_kernel.hpp) fill the whole draw grid as branch-free
// 8-wide array code. The two engines therefore
// agree in distribution, not draw for draw — the differential suite
// (src/check) holds them to bounded quantile drift.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "stats/rng.hpp"

namespace shears::stats {

class XoshiroLanes {
 public:
  /// Lane width of the batched kernels. Eight 256-bit states fill the
  /// same four cache lines as one AoS array of them; the win is the
  /// batched transcendental math downstream, not the RNG layout.
  static constexpr std::size_t kLanes = 8;

  XoshiroLanes() noexcept : XoshiroLanes(Xoshiro256(0)) {}
  explicit XoshiroLanes(const Xoshiro256& fill) noexcept
      : lanes_{fill, fill, fill, fill, fill, fill, fill, fill} {}

  /// Stripes lane l from root.fork(stream_ids[l]); unused trailing lanes
  /// (when fewer than kLanes ids are given) keep an arbitrary fork and
  /// must be masked inactive by the caller.
  [[nodiscard]] static XoshiroLanes striped(
      Xoshiro256& root, std::span<const std::uint64_t> stream_ids) noexcept {
    XoshiroLanes lanes(root.fork(0));
    const std::size_t n = stream_ids.size() < kLanes ? stream_ids.size()
                                                     : kLanes;
    for (std::size_t l = 0; l < n; ++l) {
      lanes.lanes_[l] = root.fork(stream_ids[l]);
    }
    return lanes;
  }

  [[nodiscard]] Xoshiro256& lane(std::size_t l) noexcept { return lanes_[l]; }
  [[nodiscard]] const Xoshiro256& lane(std::size_t l) const noexcept {
    return lanes_[l];
  }

  /// The lane states transposed: words[w][l] is state word w of lane l,
  /// the structure-of-arrays form the lockstep generator
  /// (stats/lanes_kernel.hpp) advances.
  using StateWords = std::array<std::array<std::uint64_t, kLanes>, 4>;
  [[nodiscard]] StateWords state_words() const noexcept;

  /// Writes `words` back into every lane with advance[l] set; the other
  /// lanes keep their state.
  void store_state_words(const StateWords& words,
                         const std::array<bool, kLanes>& advance) noexcept;

 private:
  std::array<Xoshiro256, kLanes> lanes_;
};

}  // namespace shears::stats
