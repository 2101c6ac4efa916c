// The kernel cases shared by bench/micro_kernels (baseline producer) and
// bench/regress (regression gate): one measurable closure per kernel x
// variant x size, over identical inputs (same generator seeds), so a
// BENCH_kernels.json written by one binary is comparable with a
// re-measurement taken by the other.
//
// Every probe case is checked against an independent reference: its
// order-independent checksum must equal that of a sort-merge equi-join of
// the same inputs (check_checksum), so a wrong hash join fails the run
// before any of its timings is trusted. Sort cases are checked the same
// way against a std::sort of the same input.
#pragma once

#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "join/hash_join.h"
#include "join/local_join.h"
#include "join/radix.h"
#include "join/simd.h"
#include "join/sort_merge.h"
#include "rel/generator.h"

namespace cj::bench {

/// One measurable kernel configuration. `run` executes exactly one rep of
/// the kernel (allocation included, like the virtual-time closures in the
/// simulator) and returns a checksum when the kernel produces join output
/// (a size otherwise). Inputs are owned by the closure (shared with the
/// other cases of the same size).
struct KernelCase {
  std::string kernel;   ///< "radix_cluster", "hash_build", "probe_partition",
                        ///< "probe_cached", "probe_simd", "sort_into",
                        ///< "sort_into_cold"
  /// "optimized", or "legacy" for probe_simd's forced-scalar twin. The
  /// names match the rows of the checked-in baseline, which also keeps the
  /// frozen numbers of the removed pre-optimization kernels.
  std::string variant;
  std::int64_t rows = 0;
  int radix_bits = 0;
  /// Resolved SIMD dispatch tier this case's kernels execute under
  /// ("scalar" | "neon" | "avx2"). Stamped into the BENCH row; the
  /// regression gate refuses to compare a baseline taken at one tier with
  /// a measurement taken at another — kernel times across tiers are
  /// different code paths, not noise.
  std::string tier;
  /// For probe cases, the checksum of a sort-merge equi-join of the same
  /// inputs; for sort cases, the std::sort reference's sampled keys.
  /// run() must return it.
  std::optional<std::uint64_t> reference;
  std::function<std::uint64_t()> run;

  std::string label() const { return kernel + "/" + variant; }
};

/// Aborts when a case's result disagrees with its reference: the kernel is
/// wrong and no timing of it can be trusted.
inline void check_checksum(const KernelCase& c, std::uint64_t checksum) {
  CJ_CHECK_MSG(!c.reference.has_value() || *c.reference == checksum,
               "kernel case result differs from its reference");
}

namespace internal {

/// Inputs shared by every case of one size (kept alive via shared_ptr
/// captures in the case closures).
struct AbInputs {
  rel::Relation r;
  rel::Relation s;
  // Pre-built probe state: the probe cases measure the table walk, not the
  // build that precedes it.
  join::HashJoinStationary single;     // radix_bits = 0
  join::PartitionedData single_r;
  join::HashJoinStationary cached;     // cache-budget bits
  join::PartitionedData cached_r;
  join::HashJoinStationary scalar_cached;  // simd forced off, same layout
  std::vector<rel::Tuple> sorted;  // the warm sort's output
};

}  // namespace internal

/// Builds the full case list for one input size. Seeds match the
/// historical micro_kernels sweep (41/42) so fresh measurements are
/// comparable with checked-in baselines.
inline std::vector<KernelCase> make_kernel_cases(std::int64_t rows) {
  const join::RadixConfig cfg;
  const join::KernelConfig kernel = cfg.kernel;

  auto in = std::make_shared<internal::AbInputs>();
  const auto n = static_cast<std::uint64_t>(rows);
  in->r = rel::generate({.rows = n, .key_domain = n, .seed = 41}, "bench", 1);
  in->s = rel::generate({.rows = n, .key_domain = n, .seed = 42}, "bench", 2);
  const std::uint64_t reference =
      join::local_sort_merge_join(in->r.tuples(), in->s.tuples()).checksum();

  const int bits = join::choose_radix_bits(static_cast<std::size_t>(rows), cfg);
  const std::string tier = join::simd_tier_name(join::resolve_simd(kernel.simd));

  std::vector<KernelCase> cases;
  const auto add = [&](const char* name, const char* variant, int case_bits,
                       std::string case_tier, std::function<std::uint64_t()> run,
                       std::optional<std::uint64_t> expected = std::nullopt) {
    cases.push_back(KernelCase{name, variant, rows, case_bits,
                               std::move(case_tier), expected, std::move(run)});
  };

  add("radix_cluster", "optimized", bits, tier, [in, bits, kernel] {
    auto parts = join::radix_cluster(in->r.tuples(), bits, 8, kernel);
    return static_cast<std::uint64_t>(parts.rows());
  });
  add("hash_build", "optimized", bits, tier, [in, bits, cfg] {
    auto t = join::HashJoinStationary::build(in->s.tuples(), bits, cfg);
    return static_cast<std::uint64_t>(t.bytes());
  });

  // Probes, two shapes (docs/KERNELS.md): `probe_partition` at
  // radix_bits = 0 — one table far larger than L2, isolating the table
  // walk — and `probe_cached` at the cache-budget bits the system picks.
  in->single = join::HashJoinStationary::build(in->s.tuples(), 0, cfg);
  in->single_r = join::radix_cluster(in->r.tuples(), 0, 8, kernel);
  in->cached = join::HashJoinStationary::build(in->s.tuples(), bits, cfg);
  in->cached_r = join::radix_cluster(in->r.tuples(), bits, 8, kernel);

  const auto probe_all = [](const join::HashJoinStationary& built,
                            const join::PartitionedData& parts) {
    join::JoinResult result;
    for (std::uint32_t p = 0; p < parts.num_partitions(); ++p) {
      built.probe_partition(p, parts.partition(p), result);
    }
    return result.checksum();
  };
  add("probe_partition", "optimized", 0, tier,
      [in, probe_all] { return probe_all(in->single, in->single_r); }, reference);
  add("probe_cached", "optimized", bits, tier,
      [in, probe_all] { return probe_all(in->cached, in->cached_r); }, reference);

  // SIMD-tier pair over identical bucket-group tables: the layout does not
  // depend on KernelConfig::simd, so forcing the scalar tier ("legacy")
  // against the resolved best tier ("optimized") isolates the vector
  // fingerprint compare itself. On a machine whose best tier IS scalar the
  // pair degenerates to a self-compare at ratio ~1.
  join::RadixConfig scalar_cfg = cfg;
  scalar_cfg.kernel.simd = join::Simd::kScalar;
  in->scalar_cached =
      join::HashJoinStationary::build(in->s.tuples(), bits, scalar_cfg);
  add("probe_simd", "legacy", bits,
      join::simd_tier_name(join::resolve_simd(scalar_cfg.kernel.simd)),
      [in, probe_all] { return probe_all(in->scalar_cached, in->cached_r); },
      reference);
  add("probe_simd", "optimized", bits, tier,
      [in, probe_all] { return probe_all(in->cached, in->cached_r); }, reference);

  // Sort-merge setup: sort_into from the input view into a sorted copy.
  // `sort_into` writes into an output the previous rep already touched;
  // `sort_into_cold` maps fresh pages every rep, so the first-touch page
  // faults of a query's one setup count too. Both return the sorted
  // output's min, median and max keys, which must match a std::sort.
  const auto sorted_keys = [](std::span<const rel::Tuple> sorted) {
    const std::uint64_t lo = sorted.front().key;
    const std::uint64_t mid = sorted[sorted.size() / 2].key;
    const std::uint64_t hi = sorted.back().key;
    return (lo << 42) ^ (mid << 21) ^ hi;
  };
  std::vector<rel::Tuple> by_std(in->r.tuples().begin(), in->r.tuples().end());
  std::sort(by_std.begin(), by_std.end(),
            [](const rel::Tuple& a, const rel::Tuple& b) { return a.key < b.key; });
  const std::uint64_t sort_reference = sorted_keys(by_std);
  in->sorted.assign(in->r.rows(), rel::Tuple{});
  add("sort_into", "optimized", 0, tier,
      [in, sorted_keys] {
        join::sort_into(in->r.tuples(), in->sorted);
        return sorted_keys(in->sorted);
      },
      sort_reference);
  add("sort_into_cold", "optimized", 0, tier,
      [in, sorted_keys] {
        const std::size_t bytes = in->r.rows() * sizeof(rel::Tuple);
        void* pages = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        CJ_CHECK_MSG(pages != MAP_FAILED, "mmap of the sort output failed");
        const std::span<rel::Tuple> out(static_cast<rel::Tuple*>(pages),
                                        in->r.rows());
        join::sort_into(in->r.tuples(), out);
        const std::uint64_t keys = sorted_keys(out);
        munmap(pages, bytes);
        return keys;
      },
      sort_reference);
  return cases;
}

}  // namespace cj::bench
