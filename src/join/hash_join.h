// Partitioned (radix) hash join — the paper's primary local join algorithm.
//
// Setup phase:  radix-cluster S_i and build a hash table per partition
//               (HashJoinStationary::build); radix-cluster R_j with the
//               same radix bits so probes hit exactly one table.
// Join phase:   scan R partitions, probe the matching S partition's table
//               (probe_partition). When the radix bits were chosen so an S
//               partition + table fits the L2 budget, probes run from cache.
//
// The tables use one layout (docs/KERNELS.md): F14/Swiss-style bucket
// groups of 16 16-bit fingerprints packed contiguously next to their inline
// tuples, probed with one vector compare per group (AVX2 / NEON / scalar,
// resolved at runtime via join/simd.h). The build batches hashing ahead of
// any bucket touch and stages out-of-cache inserts through the same
// write-combining scatter as the radix pass.
//
// The join phase is embarrassingly parallel across partitions — the cyclo
// layer schedules disjoint partition ranges on the host's (virtual) cores,
// like the paper's four join threads.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "join/join_result.h"
#include "join/kernel_config.h"
#include "join/radix.h"
#include "join/page_pool.h"
#include "join/simd.h"
#include "join/staged.h"
#include "rel/relation.h"

namespace cj::join {

/// Compact hash table over one partition of S. Groups index on the high
/// hash bits (the low bits are constant within a radix partition). Stores
/// its own copy of the tuples so probes are a single structure walk.
class PartitionHashTable {
 public:
  PartitionHashTable() = default;

  /// Builds over the tuples of one S partition. `kernel` picks the SIMD
  /// tier of the probe's fingerprint compare.
  void build(std::span<const rel::Tuple> s_partition, int radix_bits,
             const KernelConfig& kernel = {});

  /// Probes every tuple of `r_run` (all from this partition) against the
  /// table, emitting matches: batched, with a two-stage software-prefetch
  /// pipeline and one vector fingerprint compare per group.
  void probe(std::span<const rel::Tuple> r_run, JoinResult& result) const;

  std::size_t rows() const { return rows_; }

  /// Memory footprint (cache-budget accounting).
  std::size_t bytes() const {
    return static_cast<std::size_t>(num_groups_) * sizeof(BucketGroup);
  }

  /// Build load factor of the bucket-group layout: kLoadNum/kLoadDen = 1/2
  /// occupied slots per slot allocated (50%). Duplicate-heavy keys (the
  /// benchmark's key_domain = |S| sampled with replacement is the common
  /// case) inflate group-occupancy variance well past Poisson: at 80% load
  /// ~40% of 16-slot groups come out completely full and nearly half the
  /// probes walk past their home group (measured ~1.5-2x probe slowdown);
  /// at 50% load <5% of groups are full and ~7% of probes walk one extra
  /// group. Probe speed is the product here, so the table buys it with
  /// space — and fastrange sizing (no power-of-two rounding) claws back
  /// most of what the old bit_ceil layout wasted anyway.
  static constexpr std::size_t kLoadNum = 1;
  static constexpr std::size_t kLoadDen = 2;

  /// Fingerprints per bucket group: one AVX2 compare, two NEON compares.
  static constexpr int kGroupSize = 16;

 private:
  /// One bucket group: kGroupSize 16-bit fingerprints packed contiguously
  /// (one vector compare covers all of them) next to the inline tuples
  /// they tag, in structure-of-arrays order. fp == 0 marks an empty slot
  /// (occupied fingerprints have their top bit set); a group with any
  /// empty slot terminates a probe's walk, because inserts only spill to
  /// the next group when a group is completely full. alignas(64) starts
  /// every fingerprint block on its own cache line (sizeof is 256 B), so a
  /// probe touches the fingerprint line plus exactly the candidate
  /// tuple's line.
  struct alignas(64) BucketGroup {
    std::uint16_t fp[kGroupSize];
    std::uint32_t key[kGroupSize];
    std::uint64_t payload[kGroupSize];
  };
  static_assert(sizeof(BucketGroup) == 256);

 public:
  /// Probe-phase footprint of one stationary tuple — what choose_radix_bits
  /// sizes partitions with: the tuple copy the partition directory keeps
  /// plus kLoadDen/kLoadNum slots of 16 B each (32 B of table, 44 B total).
  static constexpr std::size_t kBytesPerStationaryTuple =
      sizeof(rel::Tuple) + sizeof(BucketGroup) / kGroupSize * kLoadDen / kLoadNum;

 private:
  static std::uint16_t fingerprint_of(std::uint32_t h) {
    return static_cast<std::uint16_t>(h >> 16) | 0x8000U;
  }

  /// Fibonacci multiplier (2^32/φ, odd) remixing the usable hash bits
  /// before fastrange. Load-bearing, not hygiene: the fingerprint is the
  /// top 16 hash bits, and fastrange indexes mostly on the top bits of its
  /// input — feed it the raw hash and every tuple in a group shares (up to
  /// rounding) one fingerprint, so the vector compare flags all occupied
  /// slots and each probe key-checks ~16 candidates instead of ~1 (measured
  /// 2x probe slowdown). The remix decorrelates group index from
  /// fingerprint while staying a bijection on the usable bits.
  static constexpr std::uint32_t kGroupMix = 0x9E3779B9U;

  /// The remixed group-index key of hash `h`: the 32-shift usable (high)
  /// hash bits, Fibonacci-scrambled within that width. group_index is
  /// monotone in this value, which the staged build exploits: tuples
  /// pre-clustered on remix()'s top bits land in contiguous group ranges.
  static std::uint32_t remix(std::uint32_t h, int shift) {
    return ((h >> shift) * kGroupMix) & (0xFFFFFFFFU >> shift);
  }

  /// Home group of hash `h`: fastrange (Lemire) over the remixed high hash
  /// bits (the low bits are constant within a radix partition). Maps the
  /// 32-shift_ usable bits onto [0, num_groups_) with a multiply and a
  /// shift, so num_groups_ can be ceil(n/(load·16)) exactly instead of the
  /// next power of two — the table never over-allocates by up to 2x.
  std::uint32_t group_index(std::uint32_t h) const {
    const std::uint64_t x = remix(h, shift_);
    return static_cast<std::uint32_t>((x * num_groups_) >> (32 - shift_));
  }

  /// Successor in a probe/insert walk, wrapping the (arbitrary, not
  /// power-of-two) group count.
  std::uint32_t next_group(std::uint32_t g) const {
    return g + 1 == num_groups_ ? 0 : g + 1;
  }

  /// Exact group-table bytes a build over `rows` tuples will use — what
  /// HashJoinStationary sizes its shared table slab with.
  static std::size_t table_bytes_for(std::size_t rows) {
    return groups_for(rows) * sizeof(BucketGroup);
  }

  friend class HashJoinStationary;

  /// Shared build prologue: records the radix shift and SIMD tier and
  /// drops whatever a previous build left behind.
  void init_build(std::size_t rows, int radix_bits, const KernelConfig& kernel);

  /// Group count for `n` tuples at the build load factor (at least 1, so
  /// group_index is always valid and walks always terminate: at 50% load
  /// the table keeps ≥ n spare slots).
  static std::uint32_t groups_for(std::size_t n) {
    constexpr std::uint64_t per_group = kLoadNum * kGroupSize;
    const std::uint64_t ng = (n * kLoadDen + per_group - 1) / per_group;
    return static_cast<std::uint32_t>(std::max<std::uint64_t>(1, ng));
  }

  /// Points the table at its group storage: `storage` when the caller
  /// carved a range out of a shared slab (HashJoinStationary), else a
  /// freshly allocated slab of its own (huge-page backed when large).
  void attach_groups(std::size_t table_bytes, std::byte* storage);

  /// Direct build into `storage` (or the table's own slab when null).
  void build_groups(std::span<const rel::Tuple> s_partition,
                    std::byte* storage);

  /// Staged bucket-group build over a partition slice that was clustered
  /// into `region_offsets.size()-1` (a power of two) equal hash ranges on
  /// the top hash bits — the fused setup path of HashJoinStationary. Every
  /// region's inserts go to a compact L2-resident scratch (fingerprint +
  /// 16-bit tuple index), and the final inline-tuple table is then written
  /// strictly sequentially, so it is never the target of a random store.
  /// The 16-bit staging indices require every region to hold < 2^15 tuples;
  /// build_groups_staged reports false on (pathological) skew beyond that
  /// and build_staged falls back to the direct build.
  void build_staged(std::span<const rel::Tuple> slice,
                    std::span<const std::uint32_t> region_offsets,
                    int radix_bits, const KernelConfig& kernel,
                    std::byte* storage);
  bool build_groups_staged(std::span<const rel::Tuple> slice,
                           std::span<const std::uint32_t> region_offsets,
                           std::byte* storage);

  /// build() into caller-carved group storage (own slab when null).
  void build_direct(std::span<const rel::Tuple> s_partition, int radix_bits,
                    const KernelConfig& kernel, std::byte* storage);

  // Group-probe kernels, templated on the fingerprint-compare policy of
  // each SIMD tier; definitions live in join/hash_group_impl.h and are
  // instantiated by hash_join.cpp (scalar) and the per-ISA translation
  // units (kernels_avx2.cpp / kernels_neon.cpp).
  template <typename Ops>
  void probe_groups(std::span<const rel::Tuple> r_run, JoinResult& result) const;
  template <typename Ops>
  void probe_walk(const rel::Tuple& r, std::uint32_t h, std::uint32_t g,
                  JoinResult& result) const;

#if defined(__x86_64__) || defined(__i386__)
  void probe_dispatch_avx2(std::span<const rel::Tuple> r_run,
                           JoinResult& result) const;
#endif
#if defined(__aarch64__) || defined(__ARM_NEON)
  void probe_dispatch_neon(std::span<const rel::Tuple> r_run,
                           JoinResult& result) const;
#endif

  // groups_ is slab_'s storage when this table allocated for itself, or a
  // range carved from HashJoinStationary's shared slab (which then owns
  // the bytes and outlives the table).
  PoolBuffer slab_;
  BucketGroup* groups_ = nullptr;
  std::uint32_t num_groups_ = 0;
  SimdTier tier_ = SimdTier::kScalar;

  std::size_t rows_ = 0;
  int shift_ = 0;
};

/// Baseline: a single hash table over the whole fragment, no radix
/// clustering. Cheaper setup, but probes walk a table far larger than any
/// cache — this is what the Manegold/Boncz/Kersten partitioning fixes, and
/// `bench/abl_no_partition` quantifies the difference.
class SingleTableHashJoin {
 public:
  static SingleTableHashJoin build(std::span<const rel::Tuple> s,
                                   const KernelConfig& kernel = {}) {
    SingleTableHashJoin out;
    out.table_.build(s, /*radix_bits=*/0, kernel);
    return out;
  }

  void probe(std::span<const rel::Tuple> r, JoinResult& result) const {
    table_.probe(r, result);
  }

  std::size_t bytes() const { return table_.bytes(); }

 private:
  PartitionHashTable table_;
};

/// The setup product over a stationary fragment S_i: clustered data plus a
/// hash table per radix partition. Built once per cyclo-join run and probed
/// by every rotating fragment (paper Sec. IV-D: setup is amortized over the
/// whole revolution).
class HashJoinStationary {
 public:
  /// Clusters `s` into 2^radix_bits partitions and builds the tables.
  /// config.kernel selects the tables' SIMD tier. Runs the staged build's
  /// stages inline as one task.
  static HashJoinStationary build(std::span<const rel::Tuple> s, int radix_bits,
                                  const RadixConfig& config = {});

  /// build() as stages of `job` (join/staged.h): the clustering (the
  /// fused pass's hashing and histogram per input slice, then its scatter
  /// per slice; or radix_cluster's stages), then the per-partition table
  /// builds, spread over the tasks by tuple count. Fills `*out`; the
  /// result is the same for every task count. `s` and `out` must stay
  /// valid until the job ran.
  static void build(std::span<const rel::Tuple> s, int radix_bits,
                    const RadixConfig& config, StagedJob& job,
                    HashJoinStationary* out);

  int radix_bits() const { return parts_.bits(); }
  std::uint32_t num_partitions() const { return parts_.num_partitions(); }
  std::size_t rows() const { return parts_.rows(); }

  /// Probes a whole run of R tuples that all belong to radix partition `p`
  /// in one prefetch-pipelined batch.
  void probe_partition(std::uint32_t p, std::span<const rel::Tuple> r_run,
                       JoinResult& result) const {
    tables_[p].probe(r_run, result);
  }

  const PartitionHashTable& table(std::uint32_t p) const { return tables_[p]; }
  const PartitionedData& partitions() const { return parts_; }

  /// Total memory of all hash tables (reporting).
  std::size_t bytes() const;

 private:
  PartitionedData parts_;
  std::vector<PartitionHashTable> tables_;
  /// Backing store of the partitions' group tables: one page-pool block
  /// per build task (one for an inline build), holding the tables of that
  /// task's partition range, instead of num_partitions small allocations.
  /// Sub-2MB per-partition tables still share 2 MB pages (build faults and
  /// probe TLB reach both scale with page count), a rebuild reuses the
  /// previous build's pages (see join/page_pool.h), and each task
  /// first-touches only its own block.
  std::vector<PoolBuffer> table_slabs_;
};

}  // namespace cj::join
