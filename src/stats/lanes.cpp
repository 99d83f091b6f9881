// XoshiroLanes' state transpose (see lanes.hpp). Compiled with the
// baseline ISA, so the kernels of every ISA can call it.
#include "stats/lanes.hpp"

namespace shears::stats {

XoshiroLanes::StateWords XoshiroLanes::state_words() const noexcept {
  StateWords words;
  for (std::size_t w = 0; w < 4; ++w)
    for (std::size_t l = 0; l < kLanes; ++l) words[w][l] = lanes_[l].state_[w];
  return words;
}

void XoshiroLanes::store_state_words(
    const StateWords& words, const std::array<bool, kLanes>& advance) noexcept {
  for (std::size_t l = 0; l < kLanes; ++l) {
    if (!advance[l]) continue;
    for (std::size_t w = 0; w < 4; ++w) lanes_[l].state_[w] = words[w][l];
  }
}

}  // namespace shears::stats
