// Sort-merge join — the paper's second local join algorithm.
//
// Setup phase:  sort both fragments by join key with sort_into, a
//               range-radix sort, where the paper uses the C library's
//               qsort. Sorting then costs less than radix clustering plus
//               a hash build, so the setup-vs-join trade-off of paper
//               Sec. V-E no longer shows (EXPERIMENTS.md, deviation 6).
// Join phase:   a strictly sequential merge over the two sorted runs —
//               maximally cache-friendly — with full duplicate-group
//               handling. The inner key scans (equal-key run ends, band
//               window ends) dispatch to AVX2/NEON/scalar variants per
//               KernelConfig::simd (join/simd.h). A band variant evaluates
//               |r.key - s.key| <= band (the paper highlights band joins
//               as something hash join cannot do).
//
// Parallelism: split sorted R into contiguous chunks; each chunk merges
// against S independently starting from a binary-searched position.
#pragma once

#include <cstdint>
#include <span>

#include "join/join_result.h"
#include "join/kernel_config.h"
#include "join/page_pool.h"
#include "join/staged.h"
#include "rel/relation.h"

namespace cj::join {

/// Writes `in` sorted by join key into `*out`, which the job allocates
/// (setup phase). Four stages (join/staged.h), each split over the job's
/// tasks:
///   1. the key range [min, max], per input slice; then `*out` is
///      allocated, so a one-task job allocates where an inline sort did;
///   2. an MSD histogram per slice over the top (at most 11) bits of
///      key - min;
///   3. the MSD scatter per slice, `in` into `*out`, so every cluster holds
///      one contiguous key range (stable: slices scatter in task order);
///   4. each cluster sorted in place — a tiny one by insertion sort, a
///      larger one by LSD counting passes over its remaining bits, skipping
///      every digit that is constant across the cluster — with the clusters
///      spread over the tasks by tuple count.
/// The LSD passes borrow one scratch buffer per task sized to its largest
/// cluster, never to the input. Every sort is stable, so the output is the
/// same for every task count. `in` and `out` must stay valid until the job
/// ran.
void sort_into(std::span<const rel::Tuple> in, PoolArray<rel::Tuple>* out,
               StagedJob& job);

/// sort_into's stages run inline as one task, into `out`, which must be as
/// large as `in` and must not overlap it.
void sort_into(std::span<const rel::Tuple> in, std::span<rel::Tuple> out);

/// Sorts a fragment in place by join key: sort_into from a copy.
void sort_fragment(std::span<rel::Tuple> fragment);

/// True if the span is sorted by key (debug validation).
bool is_sorted_by_key(std::span<const rel::Tuple> fragment);

/// Equi-join two sorted runs. Handles duplicate keys on both sides
/// (emits the full cross product per key group). kernel.simd selects the
/// key-scan tier; every tier produces identical results.
void merge_join(std::span<const rel::Tuple> r_sorted,
                std::span<const rel::Tuple> s_sorted, JoinResult& result,
                const KernelConfig& kernel = {});

/// Band join over sorted runs: matches where |r.key - s.key| <= band.
/// band == 0 degenerates to the equi-join.
void band_merge_join(std::span<const rel::Tuple> r_sorted,
                     std::span<const rel::Tuple> s_sorted, std::uint32_t band,
                     JoinResult& result, const KernelConfig& kernel = {});

/// The part of s_sorted that can match any key in [lo_key, hi_key] given a
/// band — used to bound per-chunk merge work when parallelizing.
std::span<const rel::Tuple> matching_window(std::span<const rel::Tuple> s_sorted,
                                            std::uint32_t lo_key,
                                            std::uint32_t hi_key,
                                            std::uint32_t band = 0);

}  // namespace cj::join
