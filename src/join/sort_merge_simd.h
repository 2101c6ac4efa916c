// Bounds phase of the merge join, shared across SIMD tiers — internal header.
//
// Included only by sort_merge.cpp (scalar tier) and the per-ISA translation
// units (kernels_avx2.cpp, kernels_neon.cpp). Each of them instantiates
// window_bounds with its own Ops policy, so the AVX2 copy is compiled under
// -mavx2 with the compares inlined into the cursor loops, while the scalar
// copy stays portable baseline code. The Ops policy is one static function
// over kLanes consecutive keys of the key column:
//
//   static std::uint32_t count_below(const std::uint32_t* k, std::uint32_t bound);
//
// the number of keys among k[0, kLanes) that are < bound. The column is
// ascending, so the count is also the lane where the compare first fails:
// a cursor advances by it without a branch per key.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "join/simd.h"
#include "rel/relation.h"

namespace cj::join::detail {

/// Keys per compare step; the key column is padded by this many keys so a
/// step at any cursor below the end stays inside it (kKeyPad).
constexpr std::uint32_t kLanes = 8;

/// One stream of R tuples through the bounds phase: per tuple i, its window
/// [lo[i], hi[i]) of the key column. The cursors carry over between calls.
struct BoundsStream {
  const rel::Tuple* r;
  std::uint32_t* lo;
  std::uint32_t* hi;
  std::uint32_t lo_pos;
  std::uint32_t hi_pos;
};

/// Computes the windows of a[0, ca) and b[0, cb) over keys[0, n), advancing
/// each stream's cursors. Each stream's keys must ascend and start at or
/// after its cursors' keys.
using BoundsFn = void (*)(const std::uint32_t* keys, std::uint32_t n,
                          std::uint32_t band, BoundsStream& a, std::size_t ca,
                          BoundsStream& b, std::size_t cb);

void window_bounds_scalar(const std::uint32_t* keys, std::uint32_t n,
                          std::uint32_t band, BoundsStream& a, std::size_t ca,
                          BoundsStream& b, std::size_t cb);
#if defined(__x86_64__) || defined(__i386__)
void window_bounds_avx2(const std::uint32_t* keys, std::uint32_t n,
                        std::uint32_t band, BoundsStream& a, std::size_t ca,
                        BoundsStream& b, std::size_t cb);
#endif
#if defined(__aarch64__) || defined(__ARM_NEON)
void window_bounds_neon(const std::uint32_t* keys, std::uint32_t n,
                        std::uint32_t band, BoundsStream& a, std::size_t ca,
                        BoundsStream& b, std::size_t cb);
#endif

/// The resolved tier's bounds phase.
BoundsFn window_bounds_fn(SimdTier tier);

/// First index in [p, n] whose key is >= bound. Reads keys[p, p + kLanes)
/// per step, and steps again only while all kLanes keys were below.
template <typename Ops>
inline std::uint32_t skip_below(const std::uint32_t* keys, std::uint32_t p,
                                std::uint32_t n, std::uint32_t bound) {
  std::uint32_t c;
  do {
    c = Ops::count_below(keys + p, bound);
    p += c;
  } while (c == kLanes && p < n);
  return std::min(p, n);
}

/// The key range [key - band, key + band] saturated to 32 bits.
inline std::uint32_t band_low(std::uint32_t key, std::uint32_t band) {
  return key >= band ? key - band : 0;
}
inline std::uint32_t band_high(std::uint32_t key, std::uint32_t band) {
  return key > 0xFFFFFFFFU - band ? 0xFFFFFFFFU : key + band;
}

/// One R tuple's window: both cursors advance independently, so their
/// latency chains overlap. The hi cursor skips the keys below
/// band_high + 1, unless band_high saturated: then every key is in.
template <typename Ops>
inline void bound_one(const std::uint32_t* keys, std::uint32_t n,
                      std::uint32_t band, BoundsStream& s, std::size_t i) {
  const std::uint32_t key = s.r[i].key;
  const std::uint32_t high = band_high(key, band);
  s.lo_pos = skip_below<Ops>(keys, s.lo_pos, n, band_low(key, band));
  s.hi_pos = high == 0xFFFFFFFFU ? n : skip_below<Ops>(keys, s.hi_pos, n, high + 1);
  s.lo[i] = s.lo_pos;
  s.hi[i] = s.hi_pos;
}

template <typename Ops>
void window_bounds(const std::uint32_t* keys, std::uint32_t n,
                   std::uint32_t band, BoundsStream& a, std::size_t ca,
                   BoundsStream& b, std::size_t cb) {
  // Local copies keep the four cursors in registers.
  BoundsStream x = a;
  BoundsStream y = b;
  const std::size_t both = std::min(ca, cb);
  for (std::size_t i = 0; i < both; ++i) {
    bound_one<Ops>(keys, n, band, x, i);
    bound_one<Ops>(keys, n, band, y, i);
  }
  for (std::size_t i = both; i < ca; ++i) bound_one<Ops>(keys, n, band, x, i);
  for (std::size_t i = both; i < cb; ++i) bound_one<Ops>(keys, n, band, y, i);
  a = x;
  b = y;
}

}  // namespace cj::join::detail
