// Sort-merge join — the paper's second local join algorithm.
//
// Setup phase:  sort both fragments by join key with sort_into, a
//               range-radix sort, where the paper uses the C library's
//               qsort. Sorting then costs less than radix clustering plus
//               a hash build, so the setup-vs-join trade-off of paper
//               Sec. V-E no longer shows (EXPERIMENTS.md, deviation 6).
//               The stationary side's sort also writes its key column:
//               the sorted keys, contiguous and padded.
// Join phase:   one two-phase kernel serves equi and band joins
//               (|r.key - s.key| <= band, band 0 being the equi-join; the
//               paper highlights band joins as something hash join cannot
//               do). Per block of R tuples, a bounds phase advances a lo
//               and a hi cursor over the key column with vector compares
//               (AVX2/NEON/scalar per KernelConfig::simd, join/simd.h) to
//               find each R tuple's window [lo, hi) of S, two halves of R
//               side by side so their latency chains overlap; then an
//               emission phase flattens the windows into (r, s) pairs with
//               fixed-width stores and hashes the pairs in one pass: a
//               window of up to 8 pairs costs no data-dependent branch
//               (docs/KERNELS.md).
//
// Parallelism: split sorted R into contiguous chunks; each chunk merges
// against the window of S it can match (matching_window).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "join/join_result.h"
#include "join/kernel_config.h"
#include "join/page_pool.h"
#include "join/staged.h"
#include "rel/relation.h"

namespace cj::join {

/// Keys the merge's compare steps may read past a cursor; a key column
/// carries this many padding keys after its last.
inline constexpr std::size_t kKeyPad = 8;

/// Writes `in` sorted by join key into `*out`, which the job allocates
/// (setup phase), and with `keys` also the key column of the sorted output
/// that band_merge_join reads: `*keys` gets in.size() keys plus kKeyPad
/// padding keys of 0xFFFFFFFF, from the page pool. Four stages
/// (join/staged.h), each split over the job's tasks:
///   1. the key range [min, max], per input slice; then `*out` (and
///      `*keys`) is allocated, so a one-task job allocates where an inline
///      sort did;
///   2. an MSD histogram per slice over the top bits of key - min: as
///      many bits as make clusters of about 2^12 tuples, at most 11;
///   3. the MSD scatter per slice, `in` into `*out`, write-combined past
///      16 clusters, so every cluster holds one contiguous key range
///      (stable: slices scatter in task order);
///   4. each cluster sorted in place — a tiny one by insertion sort, a
///      larger one by LSD counting passes over its remaining bits, with
///      digits of at most min(11, bit_width(cluster size)) bits and every
///      digit that is constant across the cluster skipped — and its keys
///      copied to `*keys` while it is in cache, with the clusters spread
///      over the tasks by tuple count.
/// The LSD passes borrow one scratch buffer per task sized to its largest
/// cluster, never to the input. Every sort is stable, so the output is the
/// same for every task count. `in`, `out` and `keys` must stay valid until
/// the job ran.
void sort_into(std::span<const rel::Tuple> in, PoolArray<rel::Tuple>* out,
               StagedJob& job, PoolArray<std::uint32_t>* keys = nullptr);

/// sort_into's stages run inline as one task, into `out`, which must be as
/// large as `in` and must not overlap it.
void sort_into(std::span<const rel::Tuple> in, std::span<rel::Tuple> out);

/// Sorts a fragment in place by join key: sort_into from a copy.
void sort_fragment(std::span<rel::Tuple> fragment);

/// True if the span is sorted by key (debug validation).
bool is_sorted_by_key(std::span<const rel::Tuple> fragment);

/// Band join over sorted runs: matches where |r.key - s.key| <= band, band
/// 0 being the equi-join. `s_keys` is s_sorted's key column:
/// s_keys[j] == s_sorted[j].key, followed by kKeyPad more keys that keep it
/// ascending (the rest of a larger column, or its padding), so a window of
/// a column is a column too. Materialized rows come in r order, and for
/// one r in s order. kernel.simd selects the tier of the key compares;
/// every tier produces identical results.
void band_merge_join(std::span<const rel::Tuple> r_sorted,
                     std::span<const rel::Tuple> s_sorted,
                     const std::uint32_t* s_keys, std::uint32_t band,
                     JoinResult& result, const KernelConfig& kernel = {});

/// The same without a key column: R in pieces of 2^14 tuples, each against
/// a key column of its matching_window built on the spot.
void band_merge_join(std::span<const rel::Tuple> r_sorted,
                     std::span<const rel::Tuple> s_sorted, std::uint32_t band,
                     JoinResult& result, const KernelConfig& kernel = {});

/// Equi-join of two sorted runs: band_merge_join with band 0. Emits the
/// full cross product of each key's duplicates on both sides.
void merge_join(std::span<const rel::Tuple> r_sorted,
                std::span<const rel::Tuple> s_sorted, JoinResult& result,
                const KernelConfig& kernel = {});

/// The part of s_sorted that can match any key in [lo_key, hi_key] given a
/// band — used to bound per-chunk merge work when parallelizing.
std::span<const rel::Tuple> matching_window(std::span<const rel::Tuple> s_sorted,
                                            std::uint32_t lo_key,
                                            std::uint32_t hi_key,
                                            std::uint32_t band = 0);

}  // namespace cj::join
