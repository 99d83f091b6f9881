# Compile-flag policy for the numeric hot paths and SIMD kernel TUs.
#
# Every special-cased math/vector flag in the tree is granted through the
# two helpers below instead of ad-hoc target_compile_options calls, so the
# default, sanitize, CI, and forced-scalar builds all agree on exactly
# which translation units get which flags.
#
#   shears_hot_math(<target>)
#     Adds -fno-math-errno to the whole target. Value-safe: sqrt lowers to
#     the bare hardware instruction (correctly rounded either way), nothing
#     in the tree reads errno, and no reassociation/contraction flags are
#     enabled — datasets stay bit-identical (the determinism suite pins
#     golden checksums).
#
#   shears_simd_kernel(<target> <source>...)
#     Marks the listed sources of <target> as portable SIMD kernel TUs:
#       * -ffp-contract=off always — the kernels promise bit-identical
#         results between their AVX2 and generic builds, which requires
#         that no build ever fuses a*b+c (plain -mavx2 does not enable FMA,
#         but this pins the contract against -march experiments);
#       * -O3 — GCC 12's -O2 vectorizer runs the "very-cheap" cost model,
#         which refuses every loop with an unknown trip count; the kernels
#         exist to be vectorized, so they opt into the full model;
#       * -fno-trapping-math — the kernels' clamp/mask selects are FP
#         compares feeding ternaries, and if-conversion refuses to
#         speculate FP compares while traps are considered observable.
#         Value-safe: results are bit-identical, only the (unused) FP
#         exception flags may differ.
#     Also applies shears_hot_math to the target (vector math needs the
#     errno bookkeeping gone to vectorize sqrt). These TUs target the
#     baseline ISA and run on any x86-64 CPU.
#
#   shears_avx2_kernel(<target> <source>...)
#     As shears_simd_kernel, plus -mavx2 unless SHEARS_DISABLE_SIMD is ON.
#     An AVX2 TU guards its body with #ifdef __AVX2__ and hands a null
#     kernel to its dispatcher otherwise; the dispatcher only calls it
#     after __builtin_cpu_supports("avx2"), so a binary built with AVX2
#     kernels still runs on a CPU without AVX2.
#
# SHEARS_DISABLE_SIMD is the build half of the scalar fallback story; the
# runtime half is the SHEARS_FORCE_SCALAR environment variable, read by
# the dispatchers of the store scan (serve/scan.cpp) and of the lane burst
# kernel (net/burst_lanes.cpp). CI's nightly scalar job sets both.

option(SHEARS_DISABLE_SIMD
  "Build SIMD kernel TUs without -mavx2 (scalar fallbacks only)" OFF)

function(shears_hot_math target)
  target_compile_options(${target} PRIVATE -fno-math-errno)
endfunction()

function(shears_simd_kernel target)
  shears_hot_math(${target})
  foreach(src ${ARGN})
    set_property(SOURCE ${src} APPEND PROPERTY COMPILE_OPTIONS
      "-ffp-contract=off" "-O3" "-fno-trapping-math")
  endforeach()
endfunction()

function(shears_avx2_kernel target)
  shears_simd_kernel(${target} ${ARGN})
  if(NOT SHEARS_DISABLE_SIMD)
    foreach(src ${ARGN})
      set_property(SOURCE ${src} APPEND PROPERTY COMPILE_OPTIONS "-mavx2")
    endforeach()
  endif()
endfunction()
