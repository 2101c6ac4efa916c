// Bucket-group probe kernels, shared across SIMD tiers.
//
// Internal header: included ONLY by hash_join.cpp (scalar tier) and the
// per-ISA translation units (kernels_avx2.cpp, kernels_neon.cpp). Each of
// those instantiates the templates below with its own Ops policy, so the
// AVX2 copy is compiled under -mavx2 (full inlining of the intrinsics into
// the loop) while the scalar copy stays portable baseline code. The Ops
// policy is two static functions over one group's fingerprint array:
//
//   static std::uint32_t match_mask(const std::uint16_t* fp, std::uint16_t want);
//   static std::uint32_t empty_mask(const std::uint16_t* fp);
//
// both returning one bit per slot (bit i = slot i). Everything else —
// batching, the two-stage prefetch pipeline, overflow walks, match
// emission — is tier-independent and lives here exactly once.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>

#include "join/hash_join.h"

namespace cj::join {

namespace detail {

/// Probe look-ahead: the batch whose home groups are prefetched while the
/// previous batches are compared and key-checked. 16 gives an out-of-L2
/// probe enough in-flight lines to cover L3/DRAM latency without evicting
/// its own useful prefetches (bench/micro_kernels).
constexpr std::size_t kProbeBatch = 16;

/// Insert look-ahead of the direct build's pipeline (hash_join.cpp): a
/// store burst per insert leaves less independent work per miss than a
/// probe, so the build prefetches 4x as far ahead.
constexpr std::size_t kBuildPrefetchDistance = 4 * kProbeBatch;

inline void prefetch_ro(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

/// Portable fingerprint compare: one bit per slot, computed slot-by-slot.
/// GCC/Clang usually auto-vectorize the inner loop with the baseline ISA
/// (SSE2 on x86-64), which is exactly what the scalar tier means: no
/// hand-written intrinsics, no dispatch requirement.
struct ScalarGroupOps {
  static std::uint32_t match_mask(const std::uint16_t* fp, std::uint16_t want) {
    std::uint32_t m = 0;
    for (int i = 0; i < PartitionHashTable::kGroupSize; ++i) {
      m |= static_cast<std::uint32_t>(fp[i] == want ? 1U : 0U) << i;
    }
    return m;
  }
  static std::uint32_t empty_mask(const std::uint16_t* fp) {
    std::uint32_t m = 0;
    for (int i = 0; i < PartitionHashTable::kGroupSize; ++i) {
      m |= static_cast<std::uint32_t>(fp[i] == 0 ? 1U : 0U) << i;
    }
    return m;
  }
};

}  // namespace detail

/// Continues a probe's walk at group `g` after its home group turned out
/// completely full. Uncommon by construction (50% load with 16-slot groups
/// keeps most clusters inside one group), so this is the cooler tail, not
/// the hot path.
template <typename Ops>
void PartitionHashTable::probe_walk(const rel::Tuple& r, std::uint32_t h,
                                    std::uint32_t g, JoinResult& result) const {
  const BucketGroup* groups = groups_;
  const std::uint16_t want = fingerprint_of(h);
  for (;;) {
    const BucketGroup& grp = groups[g];
    for (std::uint32_t cand = Ops::match_mask(grp.fp, want); cand != 0;
         cand &= cand - 1) {
      const int c = std::countr_zero(cand);
      const bool hit = grp.key[c] == r.key;
      result.add_match_if(hit, r, rel::Tuple{grp.key[c], grp.payload[c]});
    }
    if (Ops::empty_mask(grp.fp) != 0) return;
    g = next_group(g);
  }
}

/// Batched three-stage probe pipeline (AMAC-style, but with whole-batch
/// stages instead of per-probe state machines):
///
///   stage 1  hash the batch, prefetch each home group's fingerprint line;
///   stage 2  vector fingerprint compare per group → candidate and
///            group-full masks, prefetch exactly the candidate tuples'
///            key/payload lines (and the next group's line when full);
///   stage 3  key-check the candidates, emit matches, walk overflows.
///
/// Stages run one batch apart (stage 1 of batch b, stage 2 of b-1, stage 3
/// of b-2), so every prefetch has a full batch of independent work to hide
/// behind — enough to cover a memory miss for out-of-cache tables while
/// adding only mask/index bookkeeping for cache-resident ones.
template <typename Ops>
void PartitionHashTable::probe_groups(std::span<const rel::Tuple> r_run,
                                      JoinResult& result) const {
  const BucketGroup* groups = groups_;
  const std::size_t n = r_run.size();
  constexpr std::size_t batch = detail::kProbeBatch;

  struct Slot {
    std::uint32_t h;
    std::uint32_t g;
    std::uint32_t cand;
    std::uint32_t full;
  };
  Slot ring[3][batch];

  const std::size_t num_batches = (n + batch - 1) / batch;
  const auto bounds = [&](std::size_t b, std::size_t& lo, std::size_t& hi) {
    lo = b * batch;
    hi = std::min(n, lo + batch);
  };

  const auto stage1 = [&](std::size_t b, Slot* s) {
    std::size_t lo, hi;
    bounds(b, lo, hi);
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint32_t h = hash_key(r_run[i].key);
      const std::uint32_t g = group_index(h);
      s[i - lo] = Slot{h, g, 0, 0};
      detail::prefetch_ro(groups[g].fp);
    }
  };
  const auto stage2 = [&](std::size_t b, Slot* s) {
    std::size_t lo, hi;
    bounds(b, lo, hi);
    for (std::size_t i = lo; i < hi; ++i) {
      Slot& sl = s[i - lo];
      const BucketGroup& grp = groups[sl.g];
      sl.cand = Ops::match_mask(grp.fp, fingerprint_of(sl.h));
      sl.full = Ops::empty_mask(grp.fp) == 0 ? 1U : 0U;
      for (std::uint32_t c = sl.cand; c != 0; c &= c - 1) {
        const int k = std::countr_zero(c);
        detail::prefetch_ro(&grp.key[k]);
        detail::prefetch_ro(&grp.payload[k]);
      }
      if (sl.full) detail::prefetch_ro(groups[next_group(sl.g)].fp);
    }
  };
  const auto stage3 = [&](std::size_t b, Slot* s) {
    std::size_t lo, hi;
    bounds(b, lo, hi);
    for (std::size_t i = lo; i < hi; ++i) {
      const Slot& sl = s[i - lo];
      const rel::Tuple& r = r_run[i];
      const BucketGroup& grp = groups[sl.g];
      for (std::uint32_t c = sl.cand; c != 0; c &= c - 1) {
        const int k = std::countr_zero(c);
        const bool hit = grp.key[k] == r.key;
        result.add_match_if(hit, r, rel::Tuple{grp.key[k], grp.payload[k]});
      }
      if (sl.full) {
        probe_walk<Ops>(r, sl.h, next_group(sl.g), result);
      }
    }
  };

  for (std::size_t b = 0; b < num_batches + 2; ++b) {
    if (b < num_batches) stage1(b, ring[b % 3]);
    if (b >= 1 && b - 1 < num_batches) stage2(b - 1, ring[(b - 1) % 3]);
    if (b >= 2) stage3(b - 2, ring[(b - 2) % 3]);
  }
}

}  // namespace cj::join
