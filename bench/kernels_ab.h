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
                        ///< "sort_into_cold"; at kRunnerShapeRows
                        ///< "band_merge", "merge" and "sort_into"
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

/// Rows per side of the runner-shape cases: one host's fragments of the
/// end-to-end band_zipf_sim workload (2^20 rows over 6 hosts).
inline constexpr std::int64_t kRunnerShapeRows = 174'762;

/// The sort-merge kernels as the cyclo-join runner calls them on one host
/// of band_zipf_sim: `sort_into` sorts a Zipf 0.5 fragment over 2^20 keys;
/// `band_merge` (Zipf 0.5, band 1) and `merge` (uniform keys, equi-join)
/// merge sorted R in ring-buffer chunks of 2'730 tuples, four ranges a
/// chunk, each range against its matching_window of sorted S and the
/// window's slice of S's key column. The merges' checksums must equal a
/// plain two-cursor merge's (reference_merge_checksum).
inline std::vector<KernelCase> make_runner_shape_cases();

/// Builds the full case list for one input size — the runner-shape cases
/// at kRunnerShapeRows. Seeds match the historical micro_kernels sweep
/// (41/42) so fresh measurements are comparable with checked-in baselines.
inline std::vector<KernelCase> make_kernel_cases(std::int64_t rows) {
  if (rows == kRunnerShapeRows) return make_runner_shape_cases();
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

namespace internal {

/// Sorted fragments of one runner-shape merge case, S with its key column.
struct MergeInputs {
  std::vector<rel::Tuple> r;
  join::PoolArray<rel::Tuple> s;
  join::PoolArray<std::uint32_t> s_keys;
};

/// Checksum of the band join of sorted r and s by the textbook merge: per
/// r tuple, a lower cursor that only moves forward and a scan of its
/// window. Shares nothing with band_merge_join but pair_hash.
inline std::uint64_t reference_merge_checksum(const MergeInputs& in,
                                              std::uint32_t band) {
  std::uint64_t sum = 0;
  std::size_t lo = 0;
  for (const rel::Tuple& r : in.r) {
    const std::uint64_t key = r.key;
    while (lo < in.s.size() && in.s[lo].key + std::uint64_t{band} < key) ++lo;
    for (std::size_t j = lo; j < in.s.size() && in.s[j].key <= key + band; ++j) {
      sum += join::JoinResult::pair_hash(r.payload, in.s[j].payload);
    }
  }
  return sum;
}

}  // namespace internal

inline std::vector<KernelCase> make_runner_shape_cases() {
  constexpr std::int64_t rows = kRunnerShapeRows;
  static constexpr std::size_t kChunk = 2'730;  // a 32 KB ring buffer of tuples
  static constexpr std::size_t kRanges = 4;     // join threads
  const std::string tier =
      join::simd_tier_name(join::resolve_simd(join::KernelConfig{}.simd));
  const auto fragments = [](double zipf, std::uint64_t domain) {
    auto in = std::make_shared<internal::MergeInputs>();
    const auto n = static_cast<std::uint64_t>(rows);
    const auto generate = [&](std::uint64_t seed) {
      return rel::generate(
          {.rows = n, .key_domain = domain, .zipf_z = zipf, .seed = seed}, "bench", 1);
    };
    const rel::Relation r = generate(41);
    in->r.resize(r.rows());
    join::sort_into(r.tuples(), in->r);
    // S as the runner's stationary side: sorted with its key column.
    const rel::Relation s = generate(42);
    join::StagedJob job(1);
    join::sort_into(s.tuples(), &in->s, job, &in->s_keys);
    job.run_inline();
    return in;
  };
  const auto chunked_merge = [](const internal::MergeInputs& in,
                                std::uint32_t band) {
    join::JoinResult result;
    const std::span<const rel::Tuple> r(in.r);
    for (std::size_t off = 0; off < r.size(); off += kChunk) {
      const auto chunk = r.subspan(off, std::min(kChunk, r.size() - off));
      for (std::size_t p = 0; p < kRanges; ++p) {
        const std::size_t b = chunk.size() * p / kRanges;
        const std::size_t e = chunk.size() * (p + 1) / kRanges;
        if (b == e) continue;
        const auto range = chunk.subspan(b, e - b);
        const auto window =
            join::matching_window(in.s, range.front().key, range.back().key, band);
        join::band_merge_join(range, window,
                              in.s_keys.data() + (window.data() - in.s.data()),
                              band, result);
      }
    }
    return result.checksum();
  };

  std::vector<KernelCase> cases;
  const auto band = fragments(0.5, std::uint64_t{1} << 20);
  cases.push_back(KernelCase{"band_merge", "optimized", rows, 0, tier,
                             internal::reference_merge_checksum(*band, 1),
                             [band, chunked_merge] { return chunked_merge(*band, 1); }});
  const auto equi = fragments(0.0, static_cast<std::uint64_t>(rows));
  cases.push_back(KernelCase{"merge", "optimized", rows, 0, tier,
                             internal::reference_merge_checksum(*equi, 0),
                             [equi, chunked_merge] { return chunked_merge(*equi, 0); }});

  // The sort reads the unsorted fragment and must return the keys of a
  // std::sort of it (min, median, max, as in make_kernel_cases).
  auto unsorted = std::make_shared<rel::Relation>(rel::generate(
      {.rows = static_cast<std::uint64_t>(rows), .key_domain = std::uint64_t{1} << 20,
       .zipf_z = 0.5, .seed = 41},
      "bench", 1));
  auto out = std::make_shared<std::vector<rel::Tuple>>(unsorted->rows());
  std::vector<rel::Tuple> by_std(unsorted->tuples().begin(), unsorted->tuples().end());
  std::sort(by_std.begin(), by_std.end(),
            [](const rel::Tuple& a, const rel::Tuple& b) { return a.key < b.key; });
  const auto sorted_keys = [](std::span<const rel::Tuple> sorted) {
    const std::uint64_t lo = sorted.front().key;
    const std::uint64_t mid = sorted[sorted.size() / 2].key;
    const std::uint64_t hi = sorted.back().key;
    return (lo << 42) ^ (mid << 21) ^ hi;
  };
  cases.push_back(KernelCase{"sort_into", "optimized", rows, 0, tier,
                             sorted_keys(by_std),
                             [unsorted, out, sorted_keys] {
                               join::sort_into(unsorted->tuples(), *out);
                               return sorted_keys(*out);
                             }});
  return cases;
}

}  // namespace cj::bench
