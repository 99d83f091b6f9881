// The lockstep Xoshiro256** generator behind XoshiroLanes, for the lane
// kernels to inline.
//
// Include this header only from kernel TUs. Like stats/vecmath.hpp it
// sits in an anonymous namespace: every TU gets a private copy compiled
// with its own instruction set, so the linker never hands an AVX2 body
// to the generic kernel.
//
// The Xoshiro256** recurrence defeats GCC 12's loop vectorizer (the
// cross-round state dependence reads as an "unsupported use"), so the
// hot loop uses GNU vector extensions instead of relying on
// autovectorization: 4x64-bit integer vectors, two per state word for
// the eight lanes. These are portable GNU C (GCC/Clang), not ISA
// intrinsics — under -mavx2 they lower to single AVX2 ops, otherwise to
// baseline SSE2/scalar code. Either way the math is exact unsigned
// 64-bit arithmetic — shifts, xors, rotates and multiplies by 5/9 — so
// the outputs and final states are bit-identical to calling next()
// `rounds` times on every lane, on every build.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "stats/lanes.hpp"

namespace shears::stats {
namespace {

/// Advances every lane of `lanes` `rounds` steps in lockstep and writes
/// the raw 64-bit outputs striped as out[r * kLanes + l] — row r holds
/// draw r of all eight streams. Lanes with advance[l] == false still
/// contribute rows (their slots carry valid but unused draws) yet keep
/// their state, so a masked-out lane's stream position is untouched.
inline void lockstep_fill(XoshiroLanes& lanes, std::uint64_t* out,
                          std::size_t rounds,
                          const std::array<bool, XoshiroLanes::kLanes>&
                              advance) noexcept {
  typedef std::uint64_t V4 __attribute__((vector_size(32)));
  constexpr std::size_t kWidth = 4;
  constexpr std::size_t kVecs = XoshiroLanes::kLanes / kWidth;
  static_assert(XoshiroLanes::kLanes % kWidth == 0);

  XoshiroLanes::StateWords words = lanes.state_words();
  V4 s0[kVecs], s1[kVecs], s2[kVecs], s3[kVecs];
  for (std::size_t h = 0; h < kVecs; ++h) {
    __builtin_memcpy(&s0[h], words[0].data() + h * kWidth, sizeof(V4));
    __builtin_memcpy(&s1[h], words[1].data() + h * kWidth, sizeof(V4));
    __builtin_memcpy(&s2[h], words[2].data() + h * kWidth, sizeof(V4));
    __builtin_memcpy(&s3[h], words[3].data() + h * kWidth, sizeof(V4));
  }

  for (std::size_t r = 0; r < rounds; ++r) {
    std::uint64_t* row = out + r * XoshiroLanes::kLanes;
    for (std::size_t h = 0; h < kVecs; ++h) {
      // Exactly Xoshiro256::next(), vector-form.
      const V4 x = s1[h] * 5;
      const V4 result = ((x << 7) | (x >> 57)) * 9;
      __builtin_memcpy(row + h * kWidth, &result, sizeof(V4));
      const V4 t = s1[h] << 17;
      s2[h] ^= s0[h];
      s3[h] ^= s1[h];
      s1[h] ^= s2[h];
      s0[h] ^= s3[h];
      s2[h] ^= t;
      s3[h] = (s3[h] << 45) | (s3[h] >> 19);
    }
  }

  for (std::size_t h = 0; h < kVecs; ++h) {
    __builtin_memcpy(words[0].data() + h * kWidth, &s0[h], sizeof(V4));
    __builtin_memcpy(words[1].data() + h * kWidth, &s1[h], sizeof(V4));
    __builtin_memcpy(words[2].data() + h * kWidth, &s2[h], sizeof(V4));
    __builtin_memcpy(words[3].data() + h * kWidth, &s3[h], sizeof(V4));
  }
  lanes.store_state_words(words, advance);
}

}  // namespace
}  // namespace shears::stats
