// NEON tier of the join kernels — aarch64 counterpart of kernels_avx2.cpp.
// NEON is architecture baseline on aarch64, so this TU needs no special
// flags; it is only compiled (and only dispatched to) on ARM builds.
#if defined(__aarch64__) || defined(__ARM_NEON)

#include <arm_neon.h>

#include "join/hash_group_impl.h"
#include "join/sort_merge_simd.h"

namespace cj::join {

namespace {

/// One probe-mask bit per 16-bit slot: narrow each 0xFFFF/0x0000 lane to a
/// byte, AND with the bit-position vector, sum across lanes.
inline std::uint32_t mask8_of(uint16x8_t eq) {
  const uint8x8_t narrowed = vmovn_u16(eq);
  const uint8x8_t bits = {1, 2, 4, 8, 16, 32, 64, 128};
  return vaddv_u8(vand_u8(narrowed, bits));
}

/// The 16-slot fingerprint array takes two 128-bit compares.
struct NeonOps {
  static std::uint32_t match_mask(const std::uint16_t* fp, std::uint16_t want) {
    const uint16x8_t w = vdupq_n_u16(want);
    return mask8_of(vceqq_u16(vld1q_u16(fp), w)) |
           (mask8_of(vceqq_u16(vld1q_u16(fp + 8), w)) << 8);
  }
  static std::uint32_t empty_mask(const std::uint16_t* fp) {
    const uint16x8_t z = vdupq_n_u16(0);
    return mask8_of(vceqq_u16(vld1q_u16(fp), z)) |
           (mask8_of(vceqq_u16(vld1q_u16(fp + 8), z)) << 8);
  }
};

/// Key-column compares for the merge's bounds phase (sort_merge_simd.h):
/// two 4-lane loads and unsigned compares cover the 8 keys of a step; each
/// passing lane is all-ones, so shifting it down to 1 and adding the lanes
/// counts them.
struct NeonMergeOps {
  static std::uint32_t count_below(const std::uint32_t* k, std::uint32_t bound) {
    const uint32x4_t b = vdupq_n_u32(bound);
    const uint32x4_t lo = vshrq_n_u32(vcltq_u32(vld1q_u32(k), b), 31);
    const uint32x4_t hi = vshrq_n_u32(vcltq_u32(vld1q_u32(k + 4), b), 31);
    return vaddvq_u32(vaddq_u32(lo, hi));
  }
};

}  // namespace

void PartitionHashTable::probe_dispatch_neon(std::span<const rel::Tuple> r_run,
                                             JoinResult& result) const {
  probe_groups<NeonOps>(r_run, result);
}

namespace detail {

void window_bounds_neon(const std::uint32_t* keys, std::uint32_t n,
                        std::uint32_t band, BoundsStream& a, std::size_t ca,
                        BoundsStream& b, std::size_t cb) {
  window_bounds<NeonMergeOps>(keys, n, band, a, ca, b, cb);
}

}  // namespace detail

}  // namespace cj::join

#endif  // aarch64 / ARM NEON
