#include "join/hash_join.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>

#if defined(__x86_64__) || defined(__i386__)
#include <emmintrin.h>
#endif

#include "join/hash_group_impl.h"
#include "join/scatter.h"
#include "obs/prof.h"

namespace cj::join {

namespace {

using detail::kBuildPrefetchDistance;

inline void prefetch_write(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/1, /*locality=*/3);
#else
  (void)p;
#endif
}

/// Stationary setups whose total table footprint is at least this large
/// take the fused (write-combining) build: the radix pass clusters on extra
/// high hash bits so every table is built region by region from an
/// L2-resident staging image and streamed out with non-temporal stores.
/// Below it the tables stay LLC-resident across the whole build and the
/// direct lean loop is cheaper.
constexpr std::size_t kStagedBuildMinTableBytes = 8U << 20;

/// Target final-table bytes per staged-build region. The compact staging
/// image is a quarter of this (16 B/slot table, 4 B/slot image), so a
/// region's random stores land in ≤ kStagedRegionTableBytes/4 of hot
/// scratch — comfortably inside L2.
constexpr std::size_t kStagedRegionTableBytes = 512U << 10;

/// Fan-out cap of the fused clustering pass (partitions × regions).
constexpr int kMaxFusedFanoutBits = 10;

/// Direct builds whose whole table fits this budget skip the batched-hash
/// + prefetch pipeline: the random inserts stay cache-resident, so the
/// pipeline's extra pass and bookkeeping is all cost and no latency hidden.
constexpr std::size_t kDirectPipelineMinTableBytes = 1U << 20;

constexpr int kGroupSize = PartitionHashTable::kGroupSize;

/// Compact staging image of one bucket group: the fingerprint lanes plus a
/// 16-bit index per slot naming the tuple that will occupy it (region-slice
/// position, or carry-list position when kCarryFlag is set). One cache line
/// per group — a quarter of the final group — so the random stores of an
/// insert burst stay inside a scratch window that fits L2. The final
/// inline-tuple table is then written strictly sequentially.
struct StagedGroup {
  std::uint16_t fp[kGroupSize];
  std::uint16_t idx[kGroupSize];
};
static_assert(sizeof(StagedGroup) == 64);

/// idx tag: the slot's tuple lives in the carry list (spill from the
/// previous region), not the region slice.
constexpr std::uint16_t kCarryFlag = 0x8000;

}  // namespace

void PartitionHashTable::init_build(std::size_t rows, int radix_bits,
                                    const KernelConfig& kernel) {
  rows_ = rows;
  shift_ = radix_bits;
  tier_ = resolve_simd(kernel.simd);
  slab_.reset();
  groups_ = nullptr;
  num_groups_ = 0;
}

void PartitionHashTable::attach_groups(std::size_t table_bytes,
                                       std::byte* storage) {
  if (storage == nullptr) {
    slab_ = PoolBuffer(table_bytes);
    storage = slab_.data();
  }
  groups_ = reinterpret_cast<BucketGroup*>(storage);
}

void PartitionHashTable::build(std::span<const rel::Tuple> s_partition,
                               int radix_bits, const KernelConfig& kernel) {
  build_direct(s_partition, radix_bits, kernel, nullptr);
}

void PartitionHashTable::build_direct(std::span<const rel::Tuple> s_partition,
                                      int radix_bits, const KernelConfig& kernel,
                                      std::byte* storage) {
  obs::prof::ScopedProfile prof(obs::prof::current(), "hash_build",
                                s_partition.size());
  init_build(s_partition.size(), radix_bits, kernel);
  build_groups(s_partition, storage);
}

void PartitionHashTable::build_staged(std::span<const rel::Tuple> slice,
                                      std::span<const std::uint32_t> region_offsets,
                                      int radix_bits, const KernelConfig& kernel,
                                      std::byte* storage) {
  obs::prof::ScopedProfile prof(obs::prof::current(), "hash_build", slice.size());
  init_build(slice.size(), radix_bits, kernel);
  if (!build_groups_staged(slice, region_offsets, storage)) {
    // Pathological region skew (≥ 2^15 tuples hashing into one region's
    // range): the 16-bit staging indices cannot span it, so rebuild this
    // partition with the direct pipelined path.
    build_groups(slice, storage);
  }
}

void PartitionHashTable::build_groups(std::span<const rel::Tuple> s_partition,
                                      std::byte* storage) {
  const std::size_t n = s_partition.size();
  num_groups_ = groups_for(n);

  // Clear only the fingerprint lanes (never value-initialize the table:
  // the zero-fill of a full value-init, 32 B/slot, was the single largest
  // cost of the old build). Keys/payloads are written exactly once, by
  // their insert; fp == 0 alone defines emptiness.
  attach_groups(num_groups_ * sizeof(BucketGroup), storage);
  BucketGroup* groups = groups_;
  for (std::uint32_t g = 0; g < num_groups_; ++g) {
    std::memset(groups[g].fp, 0, sizeof(groups[g].fp));
  }
  if (n == 0) return;

  // Per-group occupancy counters, one byte per group: table_bytes/256 of
  // transient state, hot in L1 throughout the build. Inserts assign slots
  // from the counter instead of scanning fingerprints for the first zero —
  // the scan's data-dependent exit was one branch mispredict per insert.
  // Slot order is identical (fps start zeroed, slots fill 0..15), so the
  // layout matches a scan-built table bit for bit.
  std::vector<std::uint8_t> fill(num_groups_, 0);
  const auto insert = [&](const rel::Tuple& t, std::uint32_t h) {
    std::uint32_t g = group_index(h);
    while (fill[g] == kGroupSize) g = next_group(g);  // spill only if full
    const int c = fill[g]++;
    BucketGroup& grp = groups[g];
    grp.fp[c] = fingerprint_of(h);
    grp.key[c] = t.key;
    grp.payload[c] = t.payload;
  };

  // Cache-resident tables (the common case: choose_radix_bits sizes
  // partitions for the cache budget) take the lean loop — hash inline,
  // insert, nothing else. The batched-hash + prefetch machinery below
  // only earns its bookkeeping when inserts actually miss.
  if (num_groups_ * sizeof(BucketGroup) <= kDirectPipelineMinTableBytes) {
    for (std::size_t i = 0; i < n; ++i) {
      insert(s_partition[i], hash_key(s_partition[i].key));
    }
    return;
  }

  // Batched hashing: the whole slice is hashed before any bucket is
  // touched, so the hash ALU work never serializes behind bucket misses
  // and the insert loop reads hashes from a sequential array.
  PoolArray<std::uint32_t> hashes(n);
  for (std::size_t i = 0; i < n; ++i) {
    hashes[i] = hash_key(s_partition[i].key);
  }

  // Pipelined build: inserts land on random groups; prefetch the group of
  // the insert k positions ahead so its (write) miss overlaps inserts
  // i..i+k-1. Builds want a much deeper pipeline than probes — a store
  // burst per insert leaves less independent work per miss.
  const std::size_t k = std::min(kBuildPrefetchDistance, n);
  for (std::size_t j = 0; j < k; ++j) {
    prefetch_write(groups[group_index(hashes[j])].fp);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (i + k < n) prefetch_write(groups[group_index(hashes[i + k])].fp);
    insert(s_partition[i], hashes[i]);
  }
}

bool PartitionHashTable::build_groups_staged(
    std::span<const rel::Tuple> slice,
    std::span<const std::uint32_t> region_offsets, std::byte* storage) {
  const std::size_t n = slice.size();
  const std::uint32_t nreg =
      static_cast<std::uint32_t>(region_offsets.size() - 1);
  const int rb = std::countr_zero(nreg);
  num_groups_ = groups_for(n);
  const std::uint32_t ng = num_groups_;

  // No fingerprint pre-clear here: the sequential finalization below
  // writes every group's full fingerprint block exactly once.
  attach_groups(ng * sizeof(BucketGroup), storage);
  BucketGroup* groups = groups_;

  // Region r owns the contiguous group range [g_lo(r), g_lo(r+1)).
  // Exact because group_index is fastrange over the remixed key and the
  // regions are equal slices of that key's top bits: the smallest remixed
  // key of region r maps to precisely (r * ng) >> rb.
  const auto g_lo = [&](std::uint32_t r) {
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(r) * ng) >> rb);
  };

  const std::uint32_t max_region_groups = (ng + nreg - 1) / nreg + 1;
  std::vector<StagedGroup> scratch(max_region_groups);
  std::vector<std::uint8_t> fill(max_region_groups);

  // Spills that walked past a region's last group; they resume at the next
  // region's first group (everything in between was full, which also keeps
  // the probe-walk termination invariant intact).
  struct Carry {
    rel::Tuple t;
    std::uint16_t fp;
  };
  std::vector<Carry> carry_in;
  std::vector<Carry> carry_out;

  obs::prof::ScopedProfile stage_prof(obs::prof::current(), "build_stage", n);
  const std::uint32_t base_off = region_offsets.front();
  for (std::uint32_t r = 0; r < nreg; ++r) {
    const std::uint32_t lo = g_lo(r);
    const std::uint32_t ngr = g_lo(r + 1) - lo;
    const std::uint32_t rows = region_offsets[r + 1] - region_offsets[r];
    if (rows >= kCarryFlag || carry_in.size() >= kCarryFlag) return false;
    const rel::Tuple* base = slice.data() + (region_offsets[r] - base_off);

    std::memset(scratch.data(), 0, ngr * sizeof(StagedGroup));
    std::fill(fill.begin(), fill.begin() + ngr, 0);
    carry_out.clear();

    const auto place = [&](std::uint32_t local, std::uint16_t fp,
                           std::uint16_t id, const rel::Tuple& t) {
      while (local < ngr && fill[local] == kGroupSize) ++local;
      if (local >= ngr) {
        carry_out.push_back(Carry{t, fp});
        return;
      }
      const int c = fill[local]++;
      scratch[local].fp[c] = fp;
      scratch[local].idx[c] = id;
    };

    for (std::size_t ci = 0; ci < carry_in.size(); ++ci) {
      place(0, carry_in[ci].fp, static_cast<std::uint16_t>(kCarryFlag | ci),
            carry_in[ci].t);
    }
    for (std::uint32_t i = 0; i < rows; ++i) {
      const std::uint32_t h = hash_key(base[i].key);
      // A hash on the region's upper boundary can map to g_lo(r+1) itself
      // (fastrange rounding); place() then carries it to the next region,
      // which is exactly its home group.
      place(group_index(h) - lo, fingerprint_of(h),
            static_cast<std::uint16_t>(i), base[i]);
    }

    // Sequential finalization: stream the region's groups out in index
    // order — fingerprint block from scratch (including its zeros; empty
    // slots' key/payload lanes stay unwritten, probes never read them),
    // tuples gathered through the staging indices. Prefetch one group
    // ahead: the gather's reads wander the region slice, not the table.
    // On x86 each group is composed in a cache-hot local image and
    // streamed to the table with non-temporal stores: the table is
    // write-only DRAM traffic, no read-for-ownership of lines this build
    // never reads — the direct build cannot do this (random stores), and
    // it is the staged path's decisive edge once the tables in aggregate
    // overflow the LLC.
#if defined(__x86_64__) || defined(__i386__)
    alignas(64) BucketGroup image;
#endif
    for (std::uint32_t lg = 0; lg < ngr; ++lg) {
      if (lg + 1 < ngr) {
        const StagedGroup& nx = scratch[lg + 1];
        const int ncnt = fill[lg + 1];
        for (int c = 0; c < ncnt; ++c) {
          if (!(nx.idx[c] & kCarryFlag)) detail::prefetch_ro(&base[nx.idx[c]]);
        }
      }
#if defined(__x86_64__) || defined(__i386__)
      BucketGroup& dst = image;
#else
      BucketGroup& dst = groups[lo + lg];
#endif
      const StagedGroup& src = scratch[lg];
      std::memcpy(dst.fp, src.fp, sizeof(dst.fp));
      const int cnt = fill[lg];
      for (int c = 0; c < cnt; ++c) {
        const std::uint16_t id = src.idx[c];
        const rel::Tuple& t =
            (id & kCarryFlag) ? carry_in[id & (kCarryFlag - 1U)].t : base[id];
        dst.key[c] = t.key;
        dst.payload[c] = t.payload;
      }
#if defined(__x86_64__) || defined(__i386__)
      // Stale image bytes in empty key/payload lanes are streamed along
      // with the live ones — probes never read an empty slot's lanes.
      auto* out128 = reinterpret_cast<__m128i*>(&groups[lo + lg]);
      const auto* img128 = reinterpret_cast<const __m128i*>(&image);
      for (std::size_t q = 0; q < sizeof(BucketGroup) / 16; ++q) {
        _mm_stream_si128(out128 + q, _mm_load_si128(img128 + q));
      }
#endif
    }
    carry_in.swap(carry_out);
  }

#if defined(__x86_64__) || defined(__i386__)
  // Drain the non-temporal stores before anything reads the table — the
  // wrap-carry patch below scans fingerprint lanes, and the rt backend
  // probes from other threads.
  _mm_sfence();
#endif

  // Spills past the table's last group wrap to group 0, whose region is
  // long finalized — patch them straight into the table. The walk from
  // their (full) home groups wraps the same way, and every group before
  // the patched slot is full, so probes still find them. The load factor
  // guarantees an empty slot exists.
  for (const Carry& cw : carry_in) {
    std::uint32_t g = 0;
    for (;;) {
      BucketGroup& dst = groups[g];
      int c = 0;
      while (c < kGroupSize && dst.fp[c] != 0) ++c;
      if (c < kGroupSize) {
        dst.fp[c] = cw.fp;
        dst.key[c] = cw.t.key;
        dst.payload[c] = cw.t.payload;
        break;
      }
      g = next_group(g);
    }
  }

  return true;
}

void PartitionHashTable::probe(std::span<const rel::Tuple> r_run,
                               JoinResult& result) const {
  if (rows_ == 0) return;
  obs::prof::ScopedProfile prof(obs::prof::current(), "probe", r_run.size());
  // One reserve per probe batch: with unique build keys a probe yields at
  // most one match, so this bound makes the per-match append allocation-free
  // and its capacity branch perfectly predicted.
  result.reserve_batch(r_run.size());
  switch (tier_) {
#if defined(__x86_64__) || defined(__i386__)
    case SimdTier::kAvx2:
      probe_dispatch_avx2(r_run, result);
      return;
#endif
#if defined(__aarch64__) || defined(__ARM_NEON)
    case SimdTier::kNeon:
      probe_dispatch_neon(r_run, result);
      return;
#endif
    default:
      break;
  }
  probe_groups<detail::ScalarGroupOps>(r_run, result);
}

HashJoinStationary HashJoinStationary::build(std::span<const rel::Tuple> s,
                                             int radix_bits,
                                             const RadixConfig& config) {
  HashJoinStationary out;
  StagedJob job(1);
  build(s, radix_bits, config, job, &out);
  job.run_inline();
  return out;
}

void HashJoinStationary::build(std::span<const rel::Tuple> s, int radix_bits,
                               const RadixConfig& config, StagedJob& job,
                               HashJoinStationary* out) {
  CJ_CHECK(out != nullptr);
  const KernelConfig kernel = config.kernel;
  const int tasks = job.tasks();
  const std::size_t n = s.size();

  // Fused setup for large builds: one extended-fanout
  // clustering pass serves as both the radix pass and the write-combining
  // stage of every table build. Clustering on rb extra top hash bits
  // splits each partition into 2^rb regions that map to contiguous group
  // ranges, so the staged per-table build (build_staged) inserts into an
  // L2-resident scratch and writes the final tables sequentially. rb < 0
  // selects the classic two-step setup.
  int rb = -1;
  if (radix_bits >= 1 && radix_bits <= kMaxFusedFanoutBits &&
      n <= 0xFFFFFFFFULL) {
    const std::size_t table_bytes =
        n * (PartitionHashTable::kBytesPerStationaryTuple - sizeof(rel::Tuple));
    // Staging pays when the tables in aggregate overflow the LLC: there
    // the direct build is bound by read-for-ownership traffic on random
    // table lines, while the staged build's strictly sequential
    // finalization streams the table with non-temporal stores — write-only
    // DRAM traffic. Below the threshold the tables stay cache-resident
    // across the build and the direct path's lean loop wins.
    if (table_bytes >= kStagedBuildMinTableBytes) {
      const std::size_t part_table = table_bytes >> radix_bits;
      rb = 0;
      while (radix_bits + rb < kMaxFusedFanoutBits &&
             (part_table >> rb) > kStagedRegionTableBytes) {
        ++rb;
      }
      if ((1U << (radix_bits + rb)) < detail::kMinBufferedFanout) rb = -1;
    }
  }

  // Shared by the stages. `boundaries` is the extended-bucket directory of
  // the fused path (empty on the two-step path).
  struct State {
    std::span<const rel::Tuple> s;
    int radix_bits = 0;
    int rb = -1;
    std::uint32_t fanout = 0;
    PoolArray<std::uint32_t> hashes;
    /// Per task, fanout entries: its bucket histogram, then its cursors.
    std::vector<std::uint32_t> cursor;
    std::vector<std::uint32_t> boundaries;
    PoolArray<rel::Tuple> clustered;
    std::vector<std::size_t> first;   // per task: its partitions, by weight
  };
  auto st = std::make_shared<State>();
  st->s = s;
  st->radix_bits = radix_bits;
  st->rb = rb;

  // Spreads the partition tables over the tasks by tuple count. Each task
  // builds its tables into one backing slab of its own (see
  // join/page_pool.h), so the first touches of fresh table memory are
  // spread over the tasks too.
  const auto split_tables = [st, out, tasks] {
    out->tables_.resize(out->parts_.num_partitions());
    out->table_slabs_.resize(static_cast<std::size_t>(tasks));
    st->first = split_by_weight(out->parts_.offsets(), tasks);
  };
  // Carves task t's slab into one range per table of its partitions and
  // calls build(p, base) for each.
  const auto build_tables = [st, out](int t, auto&& build) {
    const std::size_t p0 = st->first[static_cast<std::size_t>(t)];
    const std::size_t p1 = st->first[static_cast<std::size_t>(t) + 1];
    std::size_t total = 0;
    for (std::size_t p = p0; p < p1; ++p) {
      total += PartitionHashTable::table_bytes_for(
          out->parts_.partition(static_cast<std::uint32_t>(p)).size());
    }
    PoolBuffer& slab = out->table_slabs_[static_cast<std::size_t>(t)];
    slab = PoolBuffer(total);
    std::byte* cursor = slab.data();
    for (std::size_t p = p0; p < p1; ++p) {
      build(p, cursor);
      cursor += PartitionHashTable::table_bytes_for(
          out->parts_.partition(static_cast<std::uint32_t>(p)).size());
    }
  };

  if (rb < 0) {
    radix_cluster(s, radix_bits, config.bits_per_pass, job, &out->parts_);
    job.add_serial(split_tables);
    job.add_stage([st, out, kernel, build_tables](int t) {
      build_tables(t, [&](std::size_t p, std::byte* base) {
        out->tables_[p].build_direct(
            out->parts_.partition(static_cast<std::uint32_t>(p)), st->radix_bits,
            kernel, base);
      });
    });
    return;
  }

  const std::uint32_t num_parts = 1U << radix_bits;
  st->fanout = num_parts << rb;
  st->cursor.assign(static_cast<std::size_t>(tasks) * st->fanout, 0);
  // Buffers are allocated inside the job, in the order of the inline
  // build, so a one-task job's page-pool demand matches it exactly.
  job.add_serial([st] {
    st->clustered = PoolArray<rel::Tuple>(st->s.size());
    st->hashes = PoolArray<std::uint32_t>(st->s.size());
  });
  // Extended bucket: partition id (low hash bits) majored over the region
  // id — the top rb bits of the *remixed* group-index key, so within a
  // partition the buckets are exactly the contiguous group-range regions
  // that group_index (monotone in the remixed key) assigns.
  const std::uint32_t pmask = num_parts - 1;
  const int xw = 32 - radix_bits;  // usable width of the remixed key
  const auto bucket_of = [pmask, rb, xw, radix_bits](std::uint32_t h) {
    const std::uint32_t p = h & pmask;
    if (rb == 0) return p;
    const std::uint32_t x = PartitionHashTable::remix(h, radix_bits);
    return (p << rb) | (x >> (xw - rb));
  };

  // 1. Hash once and count buckets, per input slice.
  job.add_stage([st, tasks, bucket_of](int t) {
    const auto [b, e] = task_slice(st->s.size(), t, tasks);
    obs::prof::ScopedProfile pass_prof(obs::prof::current(), "radix_pass1", e - b);
    const rel::Tuple* in = st->s.data();
    std::uint32_t* hashes = st->hashes.data();
    std::uint32_t* counts =
        st->cursor.data() + static_cast<std::size_t>(t) * st->fanout;
    for (std::size_t i = b; i < e; ++i) {
      const std::uint32_t h = hash_key(in[i].key);
      hashes[i] = h;
      ++counts[bucket_of(h)];
    }
  });
  // Bucket directory and per-task cursors.
  job.add_serial([st, tasks] {
    st->boundaries = prefix_cursors(st->cursor, st->fanout, tasks);
  });
  // 2. The write-combining scatter per slice.
  job.add_stage([st, tasks, bucket_of](int t) {
    const auto [b, e] = task_slice(st->s.size(), t, tasks);
    obs::prof::ScopedProfile pass_prof(obs::prof::current(), "radix_pass1");
    const std::uint32_t fanout = st->fanout;
    const rel::Tuple* in = st->s.data();
    const std::uint32_t* hashes = st->hashes.data();
    std::vector<std::uint32_t> cursor(
        st->cursor.begin() + static_cast<std::ptrdiff_t>(t) * fanout,
        st->cursor.begin() + static_cast<std::ptrdiff_t>(t + 1) * fanout);
    detail::ScatterBuffers<rel::Tuple> buf(/*staged=*/true, fanout);
    detail::scatter_range<rel::Tuple>(
        b, e, /*staged=*/true, fanout, cursor, buf.fill, buf.stage,
        st->clustered.data(),
        [&](std::size_t i) { return bucket_of(hashes[i]); },
        [&](std::size_t i) { return in[i]; });
  });
  // The partition directory at partition granularity: tuple order within a
  // partition is region-major, which PartitionedData's contract allows.
  job.add_serial([st, out, split_tables] {
    st->hashes = PoolArray<std::uint32_t>();
    st->cursor = {};
    const std::uint32_t num_parts = 1U << st->radix_bits;
    std::vector<std::uint32_t> offsets(static_cast<std::size_t>(num_parts) + 1);
    for (std::uint32_t p = 0; p < num_parts; ++p) {
      offsets[p] = st->boundaries[static_cast<std::size_t>(p) << st->rb];
    }
    offsets[num_parts] = static_cast<std::uint32_t>(st->s.size());
    out->parts_ = PartitionedData(std::move(st->clustered), std::move(offsets),
                                  st->radix_bits);
    split_tables();
  });
  // 3. The staged table builds, per range of partitions.
  job.add_stage([st, out, kernel, build_tables](int t) {
    const std::uint32_t regions = 1U << st->rb;
    build_tables(t, [&](std::size_t p, std::byte* base) {
      const auto region_offsets =
          std::span<const std::uint32_t>(st->boundaries)
              .subspan(p << st->rb, regions + 1);
      out->tables_[p].build_staged(
          out->parts_.partition(static_cast<std::uint32_t>(p)), region_offsets,
          st->radix_bits, kernel, base);
    });
  });
}

std::size_t HashJoinStationary::bytes() const {
  std::size_t total = 0;
  for (const auto& t : tables_) total += t.bytes();
  return total;
}

}  // namespace cj::join
