// Micro-benchmarks of the join kernels and workload generators
// (google-benchmark). These are the raw building blocks whose measured CPU
// costs drive the simulation's virtual time.
//
// Besides the google-benchmark suite, the binary runs a self-contained
// sweep of the cache-sensitive kernels (radix clustering, hash build, hash
// probe; docs/KERNELS.md) and writes its trajectory to BENCH_kernels.json
// (BenchJson): one row per kernel x variant x size, every probe checked
// against a sort-merge join of the same inputs. The sweep always ends with
// the runner-shape sort-merge cases (bench/kernels_ab.h, kRunnerShapeRows).
// Flags, on top of the --benchmark_* ones:
//
//   --ab_only          skip google-benchmark, run just the kernel sweep (CI)
//   --ab_rows=a,b,c    sweep input sizes        (default 2^16,2^20,2^22)
//   --ab_reps=N        best-of-N repetitions    (default 5)
//   --json_out=PATH    trajectory dump          (default BENCH_kernels.json)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/cputime.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "cyclo/chunk.h"
#include "harness.h"
#include "join/hash_join.h"
#include "join/radix.h"
#include "join/sort_merge.h"
#include "kernels_ab.h"
#include "obs/prof.h"
#include "rel/generator.h"

namespace {

using namespace cj;

rel::Relation make_rel(std::int64_t rows, double zipf = 0.0,
                       std::uint64_t seed = 99) {
  return rel::generate({.rows = static_cast<std::uint64_t>(rows),
                        .key_domain = static_cast<std::uint64_t>(rows),
                        .zipf_z = zipf,
                        .seed = seed},
                       "bench", 1);
}

// ------------------------------------------------------- hash join kernels

void BM_RadixCluster(benchmark::State& state) {
  const auto rows = state.range(0);
  auto r = make_rel(rows);
  const int bits = join::choose_radix_bits(static_cast<std::size_t>(rows), {});
  for (auto _ : state) {
    auto parts = join::radix_cluster(r.tuples(), bits, 8);
    benchmark::DoNotOptimize(parts.rows());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_RadixCluster)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 22);

void BM_HashBuild(benchmark::State& state) {
  const auto rows = state.range(0);
  auto s = make_rel(rows);
  const int bits = join::choose_radix_bits(static_cast<std::size_t>(rows), {});
  for (auto _ : state) {
    auto stationary = join::HashJoinStationary::build(s.tuples(), bits);
    benchmark::DoNotOptimize(stationary.bytes());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_HashBuild)->Arg(1 << 16)->Arg(1 << 20);

void BM_HashProbe(benchmark::State& state) {
  const auto rows = state.range(0);
  auto r = make_rel(rows, 0.0, 99);
  auto s = make_rel(rows, 0.0, 98);
  const int bits = join::choose_radix_bits(static_cast<std::size_t>(rows), {});
  auto stationary = join::HashJoinStationary::build(s.tuples(), bits);
  auto r_parts = join::radix_cluster(r.tuples(), bits, 8);
  for (auto _ : state) {
    join::JoinResult result;
    for (std::uint32_t p = 0; p < r_parts.num_partitions(); ++p) {
      stationary.probe_partition(p, r_parts.partition(p), result);
    }
    benchmark::DoNotOptimize(result.checksum());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_HashProbe)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 22);

// ------------------------------------------------------- other kernels

// Sort-merge setup: sort_into from the input view into a sorted copy,
// against the copy + std::sort it replaced (docs/KERNELS.md). Args: rows,
// Zipf z x 100 (key domain = rows).
void BM_Sort(benchmark::State& state) {
  const auto rows = state.range(0);
  auto r = make_rel(rows, static_cast<double>(state.range(1)) / 100.0);
  std::vector<rel::Tuple> out(r.rows());
  for (auto _ : state) {
    join::sort_into(r.tuples(), out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * rows);
}

void BM_SortStdBaseline(benchmark::State& state) {
  const auto rows = state.range(0);
  auto r = make_rel(rows, static_cast<double>(state.range(1)) / 100.0);
  std::vector<rel::Tuple> out(r.rows());
  for (auto _ : state) {
    std::copy(r.tuples().begin(), r.tuples().end(), out.begin());
    std::sort(out.begin(), out.end(), [](const rel::Tuple& a, const rel::Tuple& b) {
      return a.key < b.key;
    });
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * rows);
}

void sort_args(benchmark::internal::Benchmark* b) {
  for (const std::int64_t rows : {1 << 16, 1 << 20, 1 << 22}) {
    for (const std::int64_t zipf_x100 : {0, 125}) b->Args({rows, zipf_x100});
  }
}
BENCHMARK(BM_Sort)->Apply(sort_args);
BENCHMARK(BM_SortStdBaseline)->Apply(sort_args);

void BM_MergeJoin(benchmark::State& state) {
  const auto rows = state.range(0);
  auto r = make_rel(rows);
  auto s = make_rel(rows);
  std::vector<rel::Tuple> r_sorted(r.tuples().begin(), r.tuples().end());
  std::vector<rel::Tuple> s_sorted(s.tuples().begin(), s.tuples().end());
  join::sort_fragment(r_sorted);
  join::sort_fragment(s_sorted);
  for (auto _ : state) {
    join::JoinResult result;
    join::merge_join(r_sorted, s_sorted, result);
    benchmark::DoNotOptimize(result.checksum());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_MergeJoin)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 22);

void BM_BandMergeJoin(benchmark::State& state) {
  const auto rows = state.range(0);
  auto r = make_rel(rows);
  auto s = make_rel(rows);
  std::vector<rel::Tuple> r_sorted(r.tuples().begin(), r.tuples().end());
  std::vector<rel::Tuple> s_sorted(s.tuples().begin(), s.tuples().end());
  join::sort_fragment(r_sorted);
  join::sort_fragment(s_sorted);
  for (auto _ : state) {
    join::JoinResult result;
    join::band_merge_join(r_sorted, s_sorted, 2, result);
    benchmark::DoNotOptimize(result.checksum());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_BandMergeJoin)->Arg(1 << 16)->Arg(1 << 20);

void BM_ZipfGenerate(benchmark::State& state) {
  const double z = static_cast<double>(state.range(0)) / 100.0;
  ZipfGenerator zipf(1 << 22, z);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfGenerate)->Arg(0)->Arg(50)->Arg(90);

void BM_ChunkEncodeDecode(benchmark::State& state) {
  const auto rows = state.range(0);
  auto r = make_rel(rows);
  const int bits = join::choose_radix_bits(static_cast<std::size_t>(rows), {});
  auto parts = join::radix_cluster(r.tuples(), bits, 8);
  const cyclo::ChunkWriter writer(256 * 1024);
  for (auto _ : state) {
    cyclo::ChunkSlab slab = writer.from_partitioned(parts, 0);
    std::uint64_t tuples = 0;
    for (std::size_t c = 0; c < slab.num_chunks(); ++c) {
      tuples += cyclo::decode_chunk(slab.chunk(c)).tuples.size();
    }
    benchmark::DoNotOptimize(tuples);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_ChunkEncodeDecode)->Arg(1 << 18);

// ---------------------------------------------------- kernel trajectory
//
// Best-of-N CPU time per kernel case over the shared case list
// (bench/kernels_ab.h); every probe's checksum must equal the sort-merge
// reference. This is the machine-readable perf baseline the CI regression
// gate (bench/regress) compares against. One extra untimed rep per case
// runs under the kernel profiler, so the JSON also carries per-phase
// counters ("profile" key).

double best_of(int reps, const std::function<void()>& fn) {
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  for (int i = 0; i < reps; ++i) best = std::min<std::int64_t>(best, measure_cpu(fn));
  return static_cast<double>(best);
}

void run_kernel_ab(bench::BenchJson& json, const std::vector<std::int64_t>& sizes,
                   int reps) {
  std::printf("\n== kernel sweep (best of %d, thread CPU time) ==\n", reps);
  obs::prof::KernelProfiler profiler;
  for (const std::int64_t rows : sizes) {
    for (const bench::KernelCase& c : bench::make_kernel_cases(rows)) {
      // One profiled (untimed) rep first — it warms the freshly generated
      // inputs and the arena, and its per-phase counters (attributed under
      // entity = "kernel/variant") end up in the JSON's "profile" key.
      {
        const std::string entity = c.label();
        obs::prof::ScopedContext ctx(&profiler, /*host=*/0, entity);
        c.run();
      }
      std::uint64_t checksum = 0;
      const double ns = best_of(reps, [&] {
        checksum = c.run();
        benchmark::DoNotOptimize(checksum);
      });
      bench::check_checksum(c, checksum);
      const double rows_d = static_cast<double>(rows);
      json.row({{"kernel", c.kernel.c_str()},
                {"variant", c.variant.c_str()},
                {"tier", c.tier.c_str()}},
               {{"rows", rows_d},
                {"radix_bits", static_cast<double>(c.radix_bits)},
                {"cpu_ns", ns},
                {"items_per_sec", rows_d / (ns * 1e-9)}});
      std::printf("%-26s %9" PRId64 " rows  bits %2d  %-6s %7.1f Mit/s%s\n",
                  c.label().c_str(), rows, c.radix_bits, c.tier.c_str(),
                  rows_d / (ns * 1e-3),
                  !c.reference.has_value()        ? ""
                  : c.kernel.starts_with("sort")  ? "  (= std::sort)"
                                                  : "  (= sort-merge)");
    }
  }
  std::printf("profile counters: %s\n", profiler.hardware() ? "hw" : "fallback");
  json.set_profile(profiler.snapshot().to_json());
}

}  // namespace

int main(int argc, char** argv) {
  cj::bench::pin_allocator_for_measurement();
  benchmark::Initialize(&argc, argv);  // strips --benchmark_* from argv
  auto flags = bench::parse_flags_or_die(argc, argv);
  const bool ab_only = flags.get_bool("ab_only", false);
  auto ab_rows = flags.get_int_list("ab_rows", {1 << 16, 1 << 20, 1 << 22});
  if (std::ranges::find(ab_rows, bench::kRunnerShapeRows) == ab_rows.end()) {
    ab_rows.push_back(bench::kRunnerShapeRows);
  }
  const int ab_reps = static_cast<int>(flags.get_int("ab_reps", 5));
  bench::BenchJson json(flags, "kernels");
  bench::check_unused_flags(flags);

  if (!ab_only) benchmark::RunSpecifiedBenchmarks();
  run_kernel_ab(json, ab_rows, ab_reps);
  json.write();
  return 0;
}
