// Configure-time and runtime gates for the SIMD fast paths.
//
// Policy (DESIGN.md section 10): every vectorized kernel in the library is
// pure integer arithmetic with a portable scalar twin, so the dispatch
// below selects *speed only* -- results are bit-identical either way.
// Two switches compose:
//   * configure time: -DOBLV_SIMD=OFF compiles the scalar bodies only
//     (OBLV_SIMD_ENABLED undefined);
//   * runtime, CPU: the AVX2 kernels are compiled with
//     __attribute__((target("avx2"))) and only selected when
//     __builtin_cpu_supports("avx2") says the host can run them.
#pragma once

namespace oblivious {

#if defined(OBLV_SIMD_ENABLED) && (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define OBLV_SIMD_X86_DISPATCH 1
#else
#define OBLV_SIMD_X86_DISPATCH 0
#endif

// `omp simd` on the following loop when the SIMD build is on (the build
// adds -fopenmp-simd alongside OBLV_SIMD_ENABLED); expands to nothing in
// -DOBLV_SIMD=OFF builds, where the bare pragma would trip
// -Wunknown-pragmas under -Werror.
#if defined(OBLV_SIMD_ENABLED)
#define OBLV_PRAGMA_SIMD _Pragma("omp simd")
#else
#define OBLV_PRAGMA_SIMD
#endif

// True when the AVX2 kernels should be used: compiled in and supported
// by the host.
inline bool simd_avx2_enabled() {
#if OBLV_SIMD_X86_DISPATCH
  static const bool enabled = __builtin_cpu_supports("avx2") != 0;
  return enabled;
#else
  return false;
#endif
}

}  // namespace oblivious
