// AVX2 tier of the join kernels — the only translation unit compiled with
// -mavx2 (src/join/CMakeLists.txt), so the generic templates from
// hash_group_impl.h instantiate here with the intrinsics fully inlined
// into the probe loops. Nothing in this file executes unless runtime
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

/// Keys of 8 consecutive 12-byte tuples, gathered as dwords at stride 3.
/// Every lane reads exactly one tuple's key field — requires i + 8 <= n.
inline __m256i gather_keys8(const rel::Tuple* t, std::size_t i) {
  const __m256i idx = _mm256_setr_epi32(0, 3, 6, 9, 12, 15, 18, 21);
  return _mm256_i32gather_epi32(reinterpret_cast<const int*>(t + i), idx, 4);
}

}  // namespace

void PartitionHashTable::probe_dispatch_avx2(std::span<const rel::Tuple> r_run,
                                             JoinResult& result) const {
  probe_groups<Avx2Ops>(r_run, result);
}

namespace detail {

std::size_t run_end_avx2(const rel::Tuple* t, std::size_t i, std::size_t n,
                         std::uint32_t key) {
  const __m256i want = _mm256_set1_epi32(static_cast<int>(key));
  while (i + 8 <= n) {
    const __m256i eq = _mm256_cmpeq_epi32(gather_keys8(t, i), want);
    const auto m =
        static_cast<std::uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(eq)));
    if (m != 0xFFU) return i + std::countr_zero(~m & 0xFFU);
    i += 8;
  }
  while (i < n && t[i].key == key) ++i;
  return i;
}

std::size_t window_end_avx2(const rel::Tuple* t, std::size_t i, std::size_t n,
                            std::uint32_t hi_key) {
  // Keys are unsigned, cmpgt is signed: bias both sides by 2^31.
  const __m256i bias = _mm256_set1_epi32(static_cast<int>(0x80000000U));
  const __m256i limit = _mm256_set1_epi32(static_cast<int>(hi_key ^ 0x80000000U));
  while (i + 8 <= n) {
    const __m256i keys = _mm256_xor_si256(gather_keys8(t, i), bias);
    const __m256i gt = _mm256_cmpgt_epi32(keys, limit);
    const auto m =
        static_cast<std::uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(gt)));
    if (m != 0) return i + std::countr_zero(m);
    i += 8;
  }
  while (i < n && t[i].key <= hi_key) ++i;
  return i;
}

}  // namespace detail

}  // namespace cj::join

#endif  // x86
