#include "stats/isa.hpp"

#include <cstdlib>

namespace shears::stats {

bool avx2_allowed() noexcept {
  const char* v = std::getenv("SHEARS_FORCE_SCALAR");
  const bool forced =
      v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
  return !forced && __builtin_cpu_supports("avx2");
}

}  // namespace shears::stats
