#include "join/radix.h"

#include <algorithm>
#include <cstring>
#include <memory>
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
using detail::ScatterBuffers;
using detail::scatter_range;

/// The cache-conscious kernel, as three stages. The first pass hashes each
/// key exactly once (into a transient side array used by its own scatter):
/// a histogram per input slice, then the scatter per slice from prefix-
/// summed per-task cursors. If more passes follow, that scatter
/// materializes HashedTuples so no later pass ever rehashes; the later
/// passes then run per range of first-pass partitions, each task taking its
/// partitions through every remaining pass, and the final pass strips the
/// hashes while scattering bare tuples into the output. A single-pass
/// clustering therefore never pays for the 16-byte representation at all.
/// Every scatter with fan-out of at least kMinBufferedFanout stages
/// kStageCap entries per destination and flushes them in bulk.
void cluster_single_hash(std::span<const rel::Tuple> input, int total_bits,
                         int bits_per_pass, StagedJob& job,
                         PartitionedData* result) {
  const int tasks = job.tasks();
  const auto T = static_cast<std::size_t>(tasks);
  struct State {
    std::span<const rel::Tuple> input;
    int total_bits = 0;
    int bits_per_pass = 0;
    std::uint32_t id_mask = 0;
    int b1 = 0;
    int shift1 = 0;
    std::uint32_t fanout1 = 0;
    bool only_pass = false;
    bool staged1 = false;
    PoolArray<std::uint32_t> hashes;
    PoolArray<rel::Tuple> out;
    PoolArray<HashedTuple> cur;
    PoolArray<HashedTuple> next;  // only if a middle pass needs it
    /// Per task, fanout1 entries: its first-pass histogram, then its
    /// first-pass write cursors.
    std::vector<std::uint32_t> cursor;
    std::vector<std::uint32_t> boundaries1;  // first-pass partitions
    std::vector<std::uint32_t> boundaries;   // final partitions
    std::vector<std::size_t> first;  // per task: first-pass partitions
  };
  auto st = std::make_shared<State>();
  st->input = input;
  st->total_bits = total_bits;
  st->bits_per_pass = bits_per_pass;
  st->id_mask = (1U << total_bits) - 1;
  st->b1 = std::min(bits_per_pass, total_bits);
  st->shift1 = total_bits - st->b1;
  st->fanout1 = 1U << st->b1;
  st->only_pass = st->b1 == total_bits;
  st->staged1 = st->fanout1 >= kMinBufferedFanout;
  st->cursor.assign(T * st->fanout1, 0);
  // Buffers are allocated inside the job, in the order of the inline
  // kernel, so a one-task job's page-pool demand matches it exactly.
  job.add_serial([st] {
    st->out = PoolArray<rel::Tuple>(st->input.size());
    st->hashes = PoolArray<std::uint32_t>(st->input.size());
  });

  // ---- first pass: counts straight off the bare input, hashing once ----
  job.add_stage([st, tasks](int t) {
    const auto [b, e] = task_slice(st->input.size(), t, tasks);
    obs::prof::ScopedProfile prof(obs::prof::current(), "radix_pass1", e - b);
    std::uint32_t* counts =
        st->cursor.data() + static_cast<std::size_t>(t) * st->fanout1;
    const rel::Tuple* in = st->input.data();
    std::uint32_t* hashes = st->hashes.data();
    const std::uint32_t id_mask = st->id_mask;
    const int shift1 = st->shift1;
    for (std::size_t i = b; i < e; ++i) {
      const std::uint32_t h = hash_key(in[i].key);
      hashes[i] = h;
      ++counts[(h & id_mask) >> shift1];  // top slice: no further mask needed
    }
  });
  job.add_serial([st, tasks] {
    st->boundaries1 = prefix_cursors(st->cursor, st->fanout1, tasks);
    if (!st->only_pass) st->cur = PoolArray<HashedTuple>(st->input.size());
  });
  job.add_stage([st, tasks](int t) {
    const auto [b, e] = task_slice(st->input.size(), t, tasks);
    obs::prof::ScopedProfile prof(obs::prof::current(), "radix_pass1");
    const std::uint32_t fanout1 = st->fanout1;
    std::vector<std::uint32_t> cursor(
        st->cursor.begin() + static_cast<std::ptrdiff_t>(t) * fanout1,
        st->cursor.begin() + static_cast<std::ptrdiff_t>(t + 1) * fanout1);
    const rel::Tuple* in = st->input.data();
    const std::uint32_t* hashes = st->hashes.data();
    const std::uint32_t id_mask = st->id_mask;
    const int shift1 = st->shift1;
    const bool staged1 = st->staged1;
    const auto slice1 = [&](std::size_t i) {
      return (hashes[i] & id_mask) >> shift1;
    };
    if (st->only_pass) {
      ScatterBuffers<rel::Tuple> buf(staged1, fanout1);
      scatter_range<rel::Tuple>(b, e, staged1, fanout1, cursor, buf.fill,
                                buf.stage, st->out.data(), slice1,
                                [&](std::size_t i) { return in[i]; });
      return;
    }
    ScatterBuffers<HashedTuple> buf(staged1, fanout1);
    scatter_range<HashedTuple>(b, e, staged1, fanout1, cursor, buf.fill,
                               buf.stage, st->cur.data(), slice1,
                               [&](std::size_t i) {
                                 return HashedTuple{in[i], hashes[i]};
                               });
  });
  if (st->only_pass) {
    job.add_serial([st, result] {
      st->hashes = PoolArray<std::uint32_t>();
      *result = PartitionedData(std::move(st->out), std::move(st->boundaries1),
                                st->total_bits);
    });
    return;
  }
  job.add_serial([st, tasks] {
    // Later passes carry the hash inside the HashedTuples.
    st->hashes = PoolArray<std::uint32_t>();
    st->cursor = {};
    const std::size_t n = st->input.size();
    if (st->b1 + st->bits_per_pass < st->total_bits) {
      st->next = PoolArray<HashedTuple>(n);
    }
    st->boundaries.assign((std::size_t{1} << st->total_bits) + 1, 0);
    st->first = split_by_weight(
        std::span<const std::uint32_t>(st->boundaries1), tasks);
  });

  // ---- remaining passes over the HashedTuple representation, per range
  // of first-pass partitions ----
  job.add_stage([st](int t) {
    const std::size_t r0 = st->first[static_cast<std::size_t>(t)];
    const std::size_t r1 = st->first[static_cast<std::size_t>(t) + 1];
    if (r0 == r1) return;
    const std::uint32_t begin0 = st->boundaries1[r0];
    const std::uint32_t end0 = st->boundaries1[r1];
    // The passes of all the task's partitions at once: a pass clusters
    // each region of the previous one, and the regions of different
    // first-pass partitions never mix.
    const auto r_begin =
        st->boundaries1.begin() + static_cast<std::ptrdiff_t>(r0);
    std::vector<std::uint32_t> boundaries(
        r_begin, r_begin + static_cast<std::ptrdiff_t>(r1 - r0) + 1);
    std::vector<std::uint32_t> counts;
    std::vector<std::uint32_t> cursor;
    HashedTuple* src = st->cur.data();
    HashedTuple* spare = st->next.data();
    rel::Tuple* out = st->out.data();
    const std::uint32_t id_mask = st->id_mask;
    int consumed = st->b1;
    while (consumed < st->total_bits) {
      obs::prof::ScopedProfile later_prof(obs::prof::current(), "radix_pass2",
                                          end0 - begin0);
      const int b = std::min(st->bits_per_pass, st->total_bits - consumed);
      const int slice_shift = st->total_bits - consumed - b;
      const std::uint32_t slice_mask = (1U << b) - 1;
      const std::uint32_t fanout = 1U << b;
      const bool last_pass = consumed + b == st->total_bits;
      const bool staged = fanout >= kMinBufferedFanout;

      std::vector<std::uint32_t> new_boundaries;
      new_boundaries.reserve((boundaries.size() - 1) * fanout + 1);
      new_boundaries.push_back(begin0);
      counts.resize(fanout);
      cursor.resize(fanout);
      ScatterBuffers<rel::Tuple> buf_t(staged && last_pass, fanout);
      ScatterBuffers<HashedTuple> buf_h(staged && !last_pass, fanout);

      const auto slice_of = [&](std::size_t i) {
        return ((src[i].h & id_mask) >> slice_shift) & slice_mask;
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
          scatter_range<rel::Tuple>(begin, end, staged, fanout, cursor,
                                    buf_t.fill, buf_t.stage, out, slice_of,
                                    [&](std::size_t i) { return src[i].t; });
        } else {
          scatter_range<HashedTuple>(begin, end, staged, fanout, cursor,
                                     buf_h.fill, buf_h.stage, spare, slice_of,
                                     [&](std::size_t i) { return src[i]; });
        }
      }

      if (!last_pass) std::swap(src, spare);
      boundaries = std::move(new_boundaries);
      consumed += b;
    }
    // The task's final partitions are one contiguous run of the directory.
    const std::size_t sub = (boundaries.size() - 1) / (r1 - r0);
    std::copy(boundaries.begin() + 1, boundaries.end(),
              st->boundaries.begin() +
                  static_cast<std::ptrdiff_t>(r0 * sub) + 1);
  });
  job.add_serial([st, result] {
    *result = PartitionedData(std::move(st->out), std::move(st->boundaries),
                              st->total_bits);
    st->cur = PoolArray<HashedTuple>();
    st->next = PoolArray<HashedTuple>();
  });
}

}  // namespace

void radix_cluster(std::span<const rel::Tuple> input, int total_bits,
                   int bits_per_pass, StagedJob& job, PartitionedData* out) {
  CJ_CHECK(total_bits >= 0 && total_bits <= 24);
  CJ_CHECK(bits_per_pass >= 1);
  CJ_CHECK(out != nullptr);
  const std::size_t n = input.size();

  if (total_bits == 0) {
    // One partition: a copy, per slice.
    auto copy = std::make_shared<PoolArray<rel::Tuple>>();
    const int tasks = job.tasks();
    job.add_serial([copy, n] { *copy = PoolArray<rel::Tuple>(n); });
    job.add_stage([input, copy, tasks](int t) {
      const auto [b, e] = task_slice(input.size(), t, tasks);
      if (b != e) {
        std::memcpy(copy->data() + b, input.data() + b,
                    (e - b) * sizeof(rel::Tuple));
      }
    });
    job.add_serial([copy, out, n] {
      *out = PartitionedData(std::move(*copy),
                             {0, static_cast<std::uint32_t>(n)}, 0);
    });
    return;
  }
  CJ_CHECK_MSG(n <= 0xFFFFFFFFULL, "32-bit partition directory limits fragments to 4G rows");
  cluster_single_hash(input, total_bits, bits_per_pass, job, out);
}

PartitionedData radix_cluster(std::span<const rel::Tuple> input, int total_bits,
                              int bits_per_pass, const KernelConfig& /*kernel*/) {
  PartitionedData out;
  StagedJob job(1);
  radix_cluster(input, total_bits, bits_per_pass, job, &out);
  job.run_inline();
  return out;
}

}  // namespace cj::join
