// AVX2 tier of the join kernels — the only translation unit compiled with
// -mavx2 (src/join/CMakeLists.txt), so the generic templates from
// hash_group_impl.h and sort_merge_simd.h instantiate here with the
// intrinsics fully inlined into the probe loops and the merge's cursor
// loops. Nothing in this file executes unless runtime
// detection (join/simd.cpp) resolved the tier to kAvx2, which implies the
// CPU supports every instruction used here.
#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <bit>

#include "join/hash_group_impl.h"
#include "join/sort_merge_simd.h"

namespace cj::join {

namespace {

/// One probe-mask bit per 16-bit slot from a 256-bit compare result.
/// packs works per 128-bit lane, so the byte order after packing is
/// slots 0-7, zeros, slots 8-15, zeros — stitched back below.
inline std::uint32_t mask16_of(__m256i eq) {
  const __m256i packed = _mm256_packs_epi16(eq, _mm256_setzero_si256());
  const auto m = static_cast<std::uint32_t>(_mm256_movemask_epi8(packed));
  return (m & 0xFFU) | ((m >> 8) & 0xFF00U);
}

/// The whole 16-slot fingerprint array is one aligned 256-bit load
/// (alignas(64) on BucketGroup) and one vector compare.
struct Avx2Ops {
  static std::uint32_t match_mask(const std::uint16_t* fp, std::uint16_t want) {
    const __m256i v = _mm256_load_si256(reinterpret_cast<const __m256i*>(fp));
    return mask16_of(
        _mm256_cmpeq_epi16(v, _mm256_set1_epi16(static_cast<short>(want))));
  }
  static std::uint32_t empty_mask(const std::uint16_t* fp) {
    const __m256i v = _mm256_load_si256(reinterpret_cast<const __m256i*>(fp));
    return mask16_of(_mm256_cmpeq_epi16(v, _mm256_setzero_si256()));
  }
};

/// Key-column compares for the merge's bounds phase (sort_merge_simd.h):
/// one unaligned load of 8 keys, one signed compare (keys are unsigned, so
/// both sides are biased by 2^31), one movemask.
struct Avx2MergeOps {
  static std::uint32_t count_below(const std::uint32_t* k, std::uint32_t bound) {
    const __m256i bias = _mm256_set1_epi32(static_cast<int>(0x80000000U));
    const __m256i keys = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(k)), bias);
    const __m256i below = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(bound ^ 0x80000000U)), keys);
    return static_cast<std::uint32_t>(
        std::popcount(static_cast<std::uint32_t>(
            _mm256_movemask_ps(_mm256_castsi256_ps(below)))));
  }
};

}  // namespace

void PartitionHashTable::probe_dispatch_avx2(std::span<const rel::Tuple> r_run,
                                             JoinResult& result) const {
  probe_groups<Avx2Ops>(r_run, result);
}

namespace detail {

void window_bounds_avx2(const std::uint32_t* keys, std::uint32_t n,
                        std::uint32_t band, BoundsStream& a, std::size_t ca,
                        BoundsStream& b, std::size_t cb) {
  window_bounds<Avx2MergeOps>(keys, n, band, a, ca, b, cb);
}

}  // namespace detail

}  // namespace cj::join

#endif  // x86
