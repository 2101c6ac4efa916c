// Kernel selection for the join kernels.
//
// The measured CPU time of these kernels *is* the virtual duration of every
// simulated task (DESIGN.md: "virtual time, real work"), so kernel speed
// shapes both the reproduced figures and the real wall-clock of the whole
// bench/test suite. The kernels are the cache-conscious ones of
// docs/KERNELS.md; the only choice left to callers is the vector tier,
// because which tiers exist depends on the platform.
#pragma once

namespace cj::join {

/// Requested vector tier for the SIMD kernels (fingerprint compare in the
/// bucket-group hash table, key compares in the merge joins). The request
/// is resolved against what the running CPU supports (join/simd.h):
/// kAuto picks the best available tier; forcing a tier the machine lacks
/// falls back to the portable scalar path. The CJ_SIMD environment
/// variable ("scalar" | "neon" | "avx2") caps detection process-wide —
/// CI's scalar-fallback job runs the kernel suites under CJ_SIMD=scalar.
enum class Simd {
  kAuto = 0,
  kScalar,
  kNeon,
  kAvx2,
};

struct KernelConfig {
  /// Vector tier for the fingerprint-group compare and the merge-join key
  /// compares. kAuto resolves to the best tier the CPU supports.
  Simd simd = Simd::kAuto;
};

}  // namespace cj::join
