// Radix clustering — the setup phase of the partitioned hash join.
//
// Follows the MonetDB radix join of Manegold, Boncz & Kersten (TKDE 2002),
// which the paper ported to cyclo-join: inputs are clustered on the low
// bits of a hash of the join key in multiple passes of bounded fan-out
// (cache/TLB friendly), until each partition of the stationary relation
// plus its hash table fits the CPU cache budget.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.h"
#include "join/kernel_config.h"
#include "join/page_pool.h"
#include "join/staged.h"
#include "rel/relation.h"

namespace cj::join {

struct RadixConfig {
  /// Target: an S partition + hash table fits the L2 cache. The paper's
  /// Xeons had 4 MB of L2; this default assumes a ~2 MB L2 (common today)
  /// and leaves headroom — what matters for the paper's Equation (*) is
  /// that probes stay cache-resident at *every* ring size.
  std::size_t cache_budget_bytes = 1ULL << 20;
  /// Max fan-out per pass is 2^bits_per_pass (TLB-friendly).
  int bits_per_pass = 8;
  /// Hard cap on total radix bits (2^16 partitions is plenty).
  int max_bits = 16;
  /// Vector tier of the kernels themselves (docs/KERNELS.md).
  KernelConfig kernel;
};

/// 32-bit finalizer-style hash of a join key (murmur3 avalanche). Both
/// sides of the join and the per-partition hash tables share it.
inline std::uint32_t hash_key(std::uint32_t key) {
  std::uint32_t h = key;
  h ^= h >> 16;
  h *= 0x85EBCA6BU;
  h ^= h >> 13;
  h *= 0xC2B2AE35U;
  h ^= h >> 16;
  return h;
}

/// Partition of a key under `bits` total radix bits (low bits of the hash).
inline std::uint32_t partition_of(std::uint32_t key, int bits) {
  return bits == 0 ? 0 : (hash_key(key) & ((1U << bits) - 1));
}

/// Picks the number of radix bits so an even share of `s_rows` per
/// partition (plus its hash-table overhead) fits the cache budget.
int choose_radix_bits(std::size_t s_rows, const RadixConfig& config);

/// Tuples clustered into 2^bits partitions, with a partition directory.
/// Partition p occupies [offsets[p], offsets[p+1]). The tuples live in
/// page-pool storage (join/page_pool.h): a repeated setup reuses them.
class PartitionedData {
 public:
  PartitionedData() = default;
  PartitionedData(PoolArray<rel::Tuple> tuples, std::vector<std::uint32_t> offsets,
                  int bits)
      : tuples_(std::move(tuples)), offsets_(std::move(offsets)), bits_(bits) {
    CJ_CHECK(offsets_.size() == (1ULL << bits_) + 1);
    CJ_CHECK(offsets_.back() == tuples_.size());
  }

  int bits() const { return bits_; }
  std::uint32_t num_partitions() const { return 1U << bits_; }
  std::size_t rows() const { return tuples_.size(); }

  std::span<const rel::Tuple> partition(std::uint32_t p) const {
    CJ_DCHECK(p < num_partitions());
    return std::span<const rel::Tuple>(tuples_).subspan(offsets_[p],
                                                        offsets_[p + 1] - offsets_[p]);
  }

  std::span<const rel::Tuple> all_tuples() const { return tuples_; }
  std::span<const std::uint32_t> offsets() const { return offsets_; }

 private:
  PoolArray<rel::Tuple> tuples_;
  std::vector<std::uint32_t> offsets_;
  int bits_ = 0;
};

/// Multi-pass radix clustering of `input` into 2^total_bits partitions.
/// Each pass has fan-out at most 2^bits_per_pass. O(passes * n) time,
/// 2n tuples of transient memory, all of it page-pool storage. Each key is
/// hashed once and the hash carried across passes; high-fan-out passes use
/// the software-buffered scatter (docs/KERNELS.md). Tuple order *within* a
/// partition may differ between pass shapes. `kernel` is accepted for
/// symmetry with the other setup calls; clustering has no SIMD tier.
/// Runs radix_cluster's stages inline as one task.
PartitionedData radix_cluster(std::span<const rel::Tuple> input, int total_bits,
                              int bits_per_pass, const KernelConfig& kernel = {});

/// radix_cluster as stages of `job` (join/staged.h): the first pass's
/// histogram per input slice, its scatter per slice, then every later pass
/// per range of first-pass partitions (split by tuple count). Writes the
/// result to `*out` when the last stage ends; the output is the same for
/// every task count. `input` and `out` must stay valid until the job ran.
void radix_cluster(std::span<const rel::Tuple> input, int total_bits,
                   int bits_per_pass, StagedJob& job, PartitionedData* out);

}  // namespace cj::join
