#include "join/local_join.h"

#include <memory>

#include "common/cputime.h"
#include "join/hash_join.h"
#include "join/sort_merge.h"

namespace cj::join {

JoinResult local_hash_join(std::span<const rel::Tuple> r,
                           std::span<const rel::Tuple> s,
                           const RadixConfig& config, LocalJoinTiming* timing,
                           bool materialize) {
  CpuStopwatch watch;
  const int bits = choose_radix_bits(s.size(), config);
  HashJoinStationary stationary = HashJoinStationary::build(s, bits, config);
  PartitionedData r_parts =
      radix_cluster(r, bits, config.bits_per_pass, config.kernel);
  if (timing) timing->setup_ns = watch.elapsed_ns();

  watch.restart();
  JoinResult result(materialize);
  for (std::uint32_t p = 0; p < r_parts.num_partitions(); ++p) {
    stationary.probe_partition(p, r_parts.partition(p), result);
  }
  if (timing) timing->join_ns = watch.elapsed_ns();
  return result;
}

JoinResult local_sort_merge_join(std::span<const rel::Tuple> r,
                                 std::span<const rel::Tuple> s, std::uint32_t band,
                                 LocalJoinTiming* timing, bool materialize,
                                 const KernelConfig& kernel) {
  CpuStopwatch watch;
  const auto r_sorted = std::make_unique_for_overwrite<rel::Tuple[]>(r.size());
  const auto s_sorted = std::make_unique_for_overwrite<rel::Tuple[]>(s.size());
  sort_into(r, {r_sorted.get(), r.size()});
  sort_into(s, {s_sorted.get(), s.size()});
  if (timing) timing->setup_ns = watch.elapsed_ns();

  watch.restart();
  JoinResult result(materialize);
  band_merge_join({r_sorted.get(), r.size()}, {s_sorted.get(), s.size()}, band,
                  result, kernel);
  if (timing) timing->join_ns = watch.elapsed_ns();
  return result;
}

}  // namespace cj::join
