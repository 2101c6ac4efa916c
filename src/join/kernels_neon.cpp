// NEON tier of the join kernels — aarch64 counterpart of kernels_avx2.cpp.
// NEON is architecture baseline on aarch64, so this TU needs no special
// flags; it is only compiled (and only dispatched to) on ARM builds.
#if defined(__aarch64__) || defined(__ARM_NEON)

#include <arm_neon.h>

#include <bit>

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

/// Keys of 4 consecutive 12-byte tuples: vld3q_u32 deinterleaves the 48
/// bytes at stride 3, lane array 0 holds the keys. Requires i + 4 <= n.
inline uint32x4_t load_keys4(const rel::Tuple* t, std::size_t i) {
  return vld3q_u32(reinterpret_cast<const std::uint32_t*>(t + i)).val[0];
}

/// 16 bits per lane (vmovn to u16, reinterpret as u64): all-ones means
/// every lane passed the compare.
inline std::uint64_t lanemask4_of(uint32x4_t cmp) {
  return vget_lane_u64(vreinterpret_u64_u16(vmovn_u32(cmp)), 0);
}

}  // namespace

void PartitionHashTable::probe_dispatch_neon(std::span<const rel::Tuple> r_run,
                                             JoinResult& result) const {
  probe_groups<NeonOps>(r_run, result);
}

namespace detail {

std::size_t run_end_neon(const rel::Tuple* t, std::size_t i, std::size_t n,
                         std::uint32_t key) {
  const uint32x4_t want = vdupq_n_u32(key);
  while (i + 4 <= n) {
    const std::uint64_t m = lanemask4_of(vceqq_u32(load_keys4(t, i), want));
    if (m != ~0ULL) {
      return i + static_cast<std::size_t>(std::countr_zero(~m) >> 4);
    }
    i += 4;
  }
  while (i < n && t[i].key == key) ++i;
  return i;
}

std::size_t window_end_neon(const rel::Tuple* t, std::size_t i, std::size_t n,
                            std::uint32_t hi_key) {
  const uint32x4_t limit = vdupq_n_u32(hi_key);
  while (i + 4 <= n) {
    const std::uint64_t m = lanemask4_of(vcgtq_u32(load_keys4(t, i), limit));
    if (m != 0) {
      return i + static_cast<std::size_t>(std::countr_zero(m) >> 4);
    }
    i += 4;
  }
  while (i < n && t[i].key <= hi_key) ++i;
  return i;
}

}  // namespace detail

}  // namespace cj::join

#endif  // aarch64 / ARM NEON
