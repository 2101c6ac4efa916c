#include "join/radix.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <utility>

#include "join/hash_join.h"
#include "join/scatter.h"
#include "obs/prof.h"

namespace cj::join {

int choose_radix_bits(std::size_t s_rows, const RadixConfig& config) {
  CJ_CHECK(config.cache_budget_bytes > 0);
  // Per-tuple probe-phase footprint of one S partition. Group geometry and
  // load factor live with the table, not here, so a layout change resizes
  // partitions automatically.
  const std::size_t bytes_per_tuple = PartitionHashTable::kBytesPerStationaryTuple;
  int bits = 0;
  while (bits < config.max_bits) {
    const std::size_t rows_per_part = s_rows >> bits;
    if (rows_per_part * bytes_per_tuple <= config.cache_budget_bytes) break;
    ++bits;
  }
  return bits;
}

namespace {

/// Clustering work item of the single-hash path: the tuple with its hash
/// carried alongside, so no pass ever rehashes. 16 bytes — four per cache
/// line, and unlike the bare 12-byte tuple no entry straddles a line.
struct HashedTuple {
  rel::Tuple t;
  std::uint32_t h;
};
static_assert(sizeof(HashedTuple) == 16);

using detail::kMinBufferedFanout;
using detail::kStageCap;
using detail::scatter_range;

/// The cache-conscious kernel. The first pass hashes each key exactly once
/// (into a transient side array used by its own scatter); if more passes
/// follow, the scatter materializes HashedTuples so no later pass ever
/// rehashes, and the final pass strips the hashes while scattering bare
/// tuples into the output. A single-pass clustering therefore never pays
/// for the 16-byte representation at all. Every scatter with fan-out of at
/// least kMinBufferedFanout stages kStageCap entries per destination and
/// flushes them in bulk.
PartitionedData cluster_single_hash(std::span<const rel::Tuple> input,
                                    int total_bits, int bits_per_pass) {
  const std::size_t n = input.size();
  const std::uint32_t id_mask = (1U << total_bits) - 1;
  PoolArray<rel::Tuple> out(n);

  std::vector<std::uint32_t> counts;
  std::vector<std::uint32_t> cursor;
  std::vector<std::uint32_t> fill;
  std::vector<rel::Tuple> stage_t;
  std::vector<HashedTuple> stage_h;

  // ---- first pass: counts straight off the bare input, hashing once ----
  std::optional<obs::prof::ScopedProfile> pass_prof;
  pass_prof.emplace(obs::prof::current(), "radix_pass1", n);
  const int b1 = std::min(bits_per_pass, total_bits);
  const int shift1 = total_bits - b1;
  const std::uint32_t fanout1 = 1U << b1;
  const bool only_pass = b1 == total_bits;
  const bool staged1 = fanout1 >= kMinBufferedFanout;

  PoolArray<std::uint32_t> hashes(n);
  counts.assign(fanout1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t h = hash_key(input[i].key);
    hashes[i] = h;
    ++counts[(h & id_mask) >> shift1];  // top slice: no further mask needed
  }

  std::vector<std::uint32_t> boundaries(static_cast<std::size_t>(fanout1) + 1);
  cursor.resize(fanout1);
  std::uint32_t acc = 0;
  for (std::uint32_t s = 0; s < fanout1; ++s) {
    cursor[s] = acc;
    acc += counts[s];
    boundaries[s + 1] = acc;
  }
  if (staged1) fill.assign(fanout1, 0);
  const auto slice1 = [&](std::size_t i) { return (hashes[i] & id_mask) >> shift1; };

  if (only_pass) {
    if (staged1) stage_t.resize(static_cast<std::size_t>(fanout1) * kStageCap);
    scatter_range<rel::Tuple>(0, n, staged1, fanout1, cursor, fill, stage_t,
                              out.data(), slice1,
                              [&](std::size_t i) { return input[i]; });
    return PartitionedData(std::move(out), std::move(boundaries), total_bits);
  }

  PoolArray<HashedTuple> cur(n);
  if (staged1) stage_h.resize(static_cast<std::size_t>(fanout1) * kStageCap);
  scatter_range<HashedTuple>(0, n, staged1, fanout1, cursor, fill, stage_h,
                             cur.data(), slice1, [&](std::size_t i) {
                               return HashedTuple{input[i], hashes[i]};
                             });
  // Later passes carry the hash inside the HashedTuples.
  hashes = PoolArray<std::uint32_t>();
  pass_prof.reset();
  int consumed = b1;
  PoolArray<HashedTuple> next;  // allocated only if a middle pass needs it

  // ---- remaining passes over the HashedTuple representation ----
  while (consumed < total_bits) {
    obs::prof::ScopedProfile later_prof(obs::prof::current(), "radix_pass2", n);
    const int b = std::min(bits_per_pass, total_bits - consumed);
    const int slice_shift = total_bits - consumed - b;
    const std::uint32_t slice_mask = (1U << b) - 1;
    const std::uint32_t fanout = 1U << b;
    const bool last_pass = consumed + b == total_bits;
    if (!last_pass && next.size() != n) next = PoolArray<HashedTuple>(n);

    std::vector<std::uint32_t> new_boundaries;
    new_boundaries.reserve((boundaries.size() - 1) * fanout + 1);
    new_boundaries.push_back(0);

    counts.resize(fanout);
    cursor.resize(fanout);
    const bool staged = fanout >= kMinBufferedFanout;
    if (staged) {
      fill.assign(fanout, 0);
      if (last_pass) {
        stage_t.resize(static_cast<std::size_t>(fanout) * kStageCap);
      } else {
        stage_h.resize(static_cast<std::size_t>(fanout) * kStageCap);
      }
    }

    const auto slice_of = [&](std::size_t i) {
      return ((cur[i].h & id_mask) >> slice_shift) & slice_mask;
    };

    for (std::size_t r = 0; r + 1 < boundaries.size(); ++r) {
      const std::uint32_t begin = boundaries[r];
      const std::uint32_t end = boundaries[r + 1];

      std::fill(counts.begin(), counts.end(), 0);
      for (std::uint32_t i = begin; i < end; ++i) ++counts[slice_of(i)];

      std::uint32_t pos = begin;
      for (std::uint32_t s = 0; s < fanout; ++s) {
        cursor[s] = pos;
        pos += counts[s];
        new_boundaries.push_back(pos);
      }

      if (last_pass) {
        scatter_range<rel::Tuple>(begin, end, staged, fanout, cursor, fill,
                                  stage_t, out.data(), slice_of,
                                  [&](std::size_t i) { return cur[i].t; });
      } else {
        scatter_range<HashedTuple>(begin, end, staged, fanout, cursor, fill,
                                   stage_h, next.data(), slice_of,
                                   [&](std::size_t i) { return cur[i]; });
      }
    }

    if (!last_pass) std::swap(cur, next);
    boundaries = std::move(new_boundaries);
    consumed += b;
  }

  return PartitionedData(std::move(out), std::move(boundaries), total_bits);
}

}  // namespace

PartitionedData radix_cluster(std::span<const rel::Tuple> input, int total_bits,
                              int bits_per_pass, const KernelConfig& /*kernel*/) {
  CJ_CHECK(total_bits >= 0 && total_bits <= 24);
  CJ_CHECK(bits_per_pass >= 1);
  const std::size_t n = input.size();

  if (total_bits == 0) {
    return PartitionedData(PoolArray<rel::Tuple>(input),
                           {0, static_cast<std::uint32_t>(n)}, 0);
  }
  CJ_CHECK_MSG(n <= 0xFFFFFFFFULL, "32-bit partition directory limits fragments to 4G rows");
  return cluster_single_hash(input, total_bits, bits_per_pass);
}

}  // namespace cj::join
