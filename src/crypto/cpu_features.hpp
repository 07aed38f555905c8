// CPUID probes for the x86-64 vector kernels of src/crypto. Private to that
// directory: each kernel family's *_dispatched() function asks here, and the
// answers are read once per process (one function-local static, so the
// first calls may come from several threads at once).
#pragma once

namespace dcpl::crypto::detail {

struct CpuFeatures {
  bool sha = false;       // SHA extensions, with SSE4.1 and SSSE3
  bool avx512bw = false;  // AVX-512F and BW
  bool ifma = false;      // AVX-512F, VL and IFMA
};

inline const CpuFeatures& cpu_features() {
  static const CpuFeatures features = [] {
    CpuFeatures f;
#if defined(__x86_64__)
    __builtin_cpu_init();
    f.sha = __builtin_cpu_supports("sha") &&
            __builtin_cpu_supports("sse4.1") &&
            __builtin_cpu_supports("ssse3");
    f.avx512bw = __builtin_cpu_supports("avx512f") &&
                 __builtin_cpu_supports("avx512bw");
    f.ifma = __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512vl") &&
             __builtin_cpu_supports("avx512ifma");
#endif
    return f;
  }();
  return features;
}

}  // namespace dcpl::crypto::detail
