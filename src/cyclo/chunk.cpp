#include "cyclo/chunk.h"

#include <cstring>
#include <functional>
#include <memory>

#include "obs/prof.h"

namespace cj::cyclo {

namespace {

constexpr std::size_t kHeaderBytes = sizeof(ChunkHeader);
constexpr std::size_t kAlign = 8;  // chunk starts 8-aligned within the slab

std::size_t aligned(std::size_t n) { return (n + kAlign - 1) & ~(kAlign - 1); }

}  // namespace

std::size_t ChunkWriter::tuples_per_chunk(std::size_t runs) const {
  const std::size_t overhead = kHeaderBytes + runs * sizeof(PartitionRun);
  CJ_CHECK_MSG(max_payload_ > overhead + sizeof(rel::Tuple),
               "ring buffer too small for even one tuple per chunk");
  return (max_payload_ - overhead) / sizeof(rel::Tuple);
}

namespace {

/// One chunk of a slab under construction: where it goes and what it holds.
/// Its runs are [run_begin, run_begin + num_runs) of the layout's run list,
/// its tuples [tuple_begin, tuple_begin + num_tuples) of the input.
struct ChunkPlan {
  std::size_t offset;
  std::size_t run_begin;
  std::size_t num_runs;
  std::size_t tuple_begin;
  std::size_t num_tuples;
};

/// The shared state of one staged slab build. The dry pass (a serial step)
/// lays the chunks out; the copy stage writes chunk ranges in place into
/// the slab, one range per task; a last serial step hands the slab over.
struct SlabBuild {
  ChunkKind kind = ChunkKind::kRaw;
  int origin = 0;
  int radix_bits = 0;
  std::span<const rel::Tuple> tuples;
  std::vector<PartitionRun> runs;
  std::vector<ChunkPlan> chunks;
  std::size_t used = 0;
  join::PoolBuffer storage;

  /// Appends a chunk of `num_runs` runs (already pushed) and `count`
  /// tuples starting at tuple `begin`.
  void plan(std::size_t num_runs, std::size_t begin, std::size_t count) {
    const std::size_t offset = aligned(used);
    chunks.push_back({offset, runs.size() - num_runs, num_runs, begin, count});
    used = offset + kHeaderBytes + num_runs * sizeof(PartitionRun) +
           count * sizeof(rel::Tuple);
  }

  /// Writes chunk `c` and the alignment gap before it (zeroed: the
  /// registered slab holds no stale bytes).
  void write(std::size_t c) {
    const ChunkPlan& plan = chunks[c];
    const std::size_t gap_begin =
        c == 0 ? 0 : chunks[c - 1].offset + payload_bytes(chunks[c - 1]);
    std::byte* const base = storage.data();
    std::memset(base + gap_begin, 0, plan.offset - gap_begin);

    ChunkHeader header{};
    header.magic = kChunkMagic;
    header.origin_host = static_cast<std::uint16_t>(origin);
    header.kind = static_cast<std::uint8_t>(kind);
    header.radix_bits = static_cast<std::uint8_t>(radix_bits);
    header.num_runs = static_cast<std::uint32_t>(plan.num_runs);
    header.num_tuples = static_cast<std::uint32_t>(plan.num_tuples);

    std::byte* out = base + plan.offset;
    std::memcpy(out, &header, kHeaderBytes);
    const std::size_t runs_bytes = plan.num_runs * sizeof(PartitionRun);
    if (runs_bytes != 0) {
      std::memcpy(out + kHeaderBytes, runs.data() + plan.run_begin, runs_bytes);
    }
    if (plan.num_tuples != 0) {
      std::memcpy(out + kHeaderBytes + runs_bytes,
                  tuples.data() + plan.tuple_begin,
                  plan.num_tuples * sizeof(rel::Tuple));
    }
  }

  static std::size_t payload_bytes(const ChunkPlan& plan) {
    return kHeaderBytes + plan.num_runs * sizeof(PartitionRun) +
           plan.num_tuples * sizeof(rel::Tuple);
  }

  ChunkSlab finish() {
    std::vector<ChunkSlab::Entry> entries;
    entries.reserve(chunks.size());
    std::uint64_t total_tuples = 0;
    for (const ChunkPlan& plan : chunks) {
      entries.push_back({plan.offset, payload_bytes(plan)});
      total_tuples += plan.num_tuples;
    }
    return ChunkSlab(std::move(storage), used, std::move(entries), total_tuples);
  }
};

/// Appends the copy stage and the hand-over of a slab build whose dry pass
/// was appended before. Chunks are written back-to-back (8-byte aligned)
/// straight into the slab: no reallocation, and no zero-fill ahead of the
/// copies — this code runs inside the measured setup tasks, where every
/// byte touched is billed as virtual time.
void add_copies(const std::shared_ptr<SlabBuild>& build, join::StagedJob& job,
                ChunkSlab* out) {
  const int tasks = job.tasks();
  job.add_stage([build, tasks](int t) {
    const auto [c0, c1] = join::task_slice(build->chunks.size(), t, tasks);
    std::size_t tuples = 0;
    for (std::size_t c = c0; c < c1; ++c) tuples += build->chunks[c].num_tuples;
    obs::prof::ScopedProfile prof(obs::prof::current(), "chunk_memcpy", tuples);
    for (std::size_t c = c0; c < c1; ++c) build->write(c);
  });
  job.add_serial([build, out] { *out = build->finish(); });
}

/// A slab of equal chunks of `per_chunk` tuples (the last one shorter) over
/// the tuples `input()` returns when the job reaches the dry pass, sized
/// for the worst case.
void fixed_chunks(ChunkKind kind,
                  std::function<std::span<const rel::Tuple>()> input,
                  int origin, std::size_t per_chunk, join::StagedJob& job,
                  ChunkSlab* out) {
  auto build = std::make_shared<SlabBuild>();
  build->kind = kind;
  build->origin = origin;
  const auto dry_pass = [build, per_chunk, input = std::move(input)] {
    build->tuples = input();
    const std::size_t n = build->tuples.size();
    const std::size_t max_chunks = n / per_chunk + 1;
    build->chunks.reserve(max_chunks);
    for (std::size_t begin = 0; begin < n; begin += per_chunk) {
      build->plan(0, begin, std::min(per_chunk, n - begin));
    }
    build->storage = join::PoolBuffer(
        build->tuples.size_bytes() + max_chunks * (kHeaderBytes + kAlign));
  };
  job.add_serial(dry_pass);
  add_copies(build, job, out);
}

}  // namespace

void ChunkWriter::from_partitioned(const join::PartitionedData& data,
                                   int origin_host, join::StagedJob& job,
                                   ChunkSlab* out) const {
  auto build = std::make_shared<SlabBuild>();
  build->kind = ChunkKind::kPartitioned;
  build->origin = origin_host;
  // The dry pass: greedy packing. Walk partitions in order (they are
  // contiguous in the clustered layout) and split a partition into
  // multiple runs when it does not fit the remaining space. It walks runs,
  // not tuples, so it is cheap and sizes the slab exactly.
  const auto dry_pass = [writer = *this, build, &data] {
    build->tuples = data.all_tuples();
    build->radix_bits = data.bits();
    std::size_t chunk_runs = 0;
    std::size_t chunk_tuples = 0;
    std::size_t chunk_begin = 0;  // index into data.all_tuples()
    const auto flush = [&] {
      if (chunk_tuples == 0) return;
      build->plan(chunk_runs, chunk_begin, chunk_tuples);
      chunk_begin += chunk_tuples;
      chunk_tuples = 0;
      chunk_runs = 0;
    };
    for (std::uint32_t p = 0; p < data.num_partitions(); ++p) {
      std::size_t remaining = data.partition(p).size();
      while (remaining > 0) {
        // +1 run for the piece we are about to add.
        std::size_t capacity = writer.tuples_per_chunk(chunk_runs + 1);
        if (chunk_tuples >= capacity) {
          flush();
          capacity = writer.tuples_per_chunk(1);
        }
        const std::size_t take = std::min(remaining, capacity - chunk_tuples);
        build->runs.push_back(PartitionRun{p, static_cast<std::uint32_t>(take)});
        ++chunk_runs;
        chunk_tuples += take;
        remaining -= take;
      }
    }
    flush();
    build->storage = join::PoolBuffer(build->used);
  };
  job.add_serial(dry_pass);
  add_copies(build, job, out);
}

void ChunkWriter::from_sorted(const join::PoolArray<rel::Tuple>& sorted,
                              int origin_host, join::StagedJob& job,
                              ChunkSlab* out) const {
  fixed_chunks(
      ChunkKind::kSorted,
      [&sorted] { return std::span<const rel::Tuple>(sorted); }, origin_host,
      tuples_per_chunk(0), job, out);
}

void ChunkWriter::from_raw(std::span<const rel::Tuple> tuples, int origin_host,
                           join::StagedJob& job, ChunkSlab* out) const {
  fixed_chunks(
      ChunkKind::kRaw, [tuples] { return tuples; }, origin_host,
      tuples_per_chunk(0), job, out);
}

ChunkSlab ChunkWriter::from_partitioned(const join::PartitionedData& data,
                                        int origin_host) const {
  ChunkSlab out;
  join::StagedJob job(1);
  from_partitioned(data, origin_host, job, &out);
  job.run_inline();
  return out;
}

ChunkSlab ChunkWriter::from_sorted(std::span<const rel::Tuple> sorted,
                                   int origin_host) const {
  ChunkSlab out;
  join::StagedJob job(1);
  fixed_chunks(
      ChunkKind::kSorted, [sorted] { return sorted; }, origin_host,
      tuples_per_chunk(0), job, &out);
  job.run_inline();
  return out;
}

ChunkSlab ChunkWriter::from_raw(std::span<const rel::Tuple> tuples,
                                int origin_host) const {
  ChunkSlab out;
  join::StagedJob job(1);
  from_raw(tuples, origin_host, job, &out);
  job.run_inline();
  return out;
}

ChunkView decode_chunk(std::span<const std::byte> payload) {
  CJ_CHECK_MSG(payload.size() >= kHeaderBytes, "truncated chunk header");
  ChunkHeader header;
  std::memcpy(&header, payload.data(), kHeaderBytes);
  CJ_CHECK_MSG(header.magic == kChunkMagic, "bad chunk magic");

  const std::size_t runs_bytes = header.num_runs * sizeof(PartitionRun);
  const std::size_t tuples_bytes = header.num_tuples * sizeof(rel::Tuple);
  CJ_CHECK_MSG(payload.size() == kHeaderBytes + runs_bytes + tuples_bytes,
               "chunk length mismatch");

  ChunkView view;
  view.kind = static_cast<ChunkKind>(header.kind);
  view.origin_host = header.origin_host;
  view.radix_bits = header.radix_bits;
  view.runs = std::span<const PartitionRun>(
      reinterpret_cast<const PartitionRun*>(payload.data() + kHeaderBytes),
      header.num_runs);
  view.tuples = std::span<const rel::Tuple>(
      reinterpret_cast<const rel::Tuple*>(payload.data() + kHeaderBytes + runs_bytes),
      header.num_tuples);

  if (view.kind == ChunkKind::kPartitioned) {
    std::uint64_t run_total = 0;
    for (const auto& run : view.runs) run_total += run.count;
    CJ_CHECK_MSG(run_total == header.num_tuples, "chunk run directory mismatch");
  }
  return view;
}

}  // namespace cj::cyclo
