#include "cyclo/chunk.h"

#include <cstring>

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

// Low-level emit shared by the three builders. Chunks are written in place
// into the slab back-to-back (8-byte aligned).
class SlabBuilder {
 public:
  /// Sizes the backing slab (an upper bound is fine), so emitting chunks
  /// writes straight into it: no reallocation, and no zero-fill ahead of
  /// the copies — this code runs inside the measured setup closures, where
  /// every byte touched is billed as virtual time.
  SlabBuilder(std::size_t max_bytes, std::size_t max_chunks)
      : storage_(max_bytes) {
    entries_.reserve(max_chunks);
  }

  void emit(ChunkKind kind, int origin, int radix_bits,
            std::span<const PartitionRun> runs, std::span<const rel::Tuple> tuples) {
    const std::size_t payload =
        kHeaderBytes + runs.size_bytes() + tuples.size_bytes();
    const std::size_t offset = aligned(used_);
    CJ_CHECK(offset + payload <= storage_.bytes());
    // Zero the alignment gap: the registered slab holds no stale bytes.
    std::memset(storage_.data() + used_, 0, offset - used_);
    used_ = offset + payload;

    ChunkHeader header{};
    header.magic = kChunkMagic;
    header.origin_host = static_cast<std::uint16_t>(origin);
    header.kind = static_cast<std::uint8_t>(kind);
    header.radix_bits = static_cast<std::uint8_t>(radix_bits);
    header.num_runs = static_cast<std::uint32_t>(runs.size());
    header.num_tuples = static_cast<std::uint32_t>(tuples.size());

    std::byte* out = storage_.data() + offset;
    std::memcpy(out, &header, kHeaderBytes);
    if (!runs.empty()) {
      std::memcpy(out + kHeaderBytes, runs.data(), runs.size_bytes());
    }
    if (!tuples.empty()) {
      std::memcpy(out + kHeaderBytes + runs.size_bytes(), tuples.data(),
                  tuples.size_bytes());
    }
    entries_.push_back({offset, payload});
    total_tuples_ += tuples.size();
  }

  ChunkSlab finish() {
    return ChunkSlab(std::move(storage_), used_, std::move(entries_),
                     total_tuples_);
  }

 private:
  join::PoolBuffer storage_;
  std::size_t used_ = 0;
  std::vector<ChunkSlab::Entry> entries_;
  std::uint64_t total_tuples_ = 0;
};

}  // namespace

ChunkSlab ChunkWriter::from_partitioned(const join::PartitionedData& data,
                                        int origin_host) const {
  obs::prof::ScopedProfile prof(obs::prof::current(), "chunk_memcpy",
                                data.all_tuples().size());
  const auto tuples = data.all_tuples();
  // Greedy packing: walk partitions in order (they are contiguous in the
  // clustered layout) and split a partition into multiple runs when it does
  // not fit the remaining space. Calls chunk(runs, first tuple, count) per
  // chunk. It walks runs, not tuples, so a dry pass that sizes the slab
  // exactly is cheap.
  const auto pack = [&](auto&& chunk) {
    std::vector<PartitionRun> runs;
    std::size_t chunk_tuples = 0;
    std::size_t chunk_begin = 0;  // index into data.all_tuples()
    const auto flush = [&] {
      if (chunk_tuples == 0) return;
      chunk(std::span<const PartitionRun>(runs), chunk_begin, chunk_tuples);
      chunk_begin += chunk_tuples;
      chunk_tuples = 0;
      runs.clear();
    };
    for (std::uint32_t p = 0; p < data.num_partitions(); ++p) {
      std::size_t remaining = data.partition(p).size();
      while (remaining > 0) {
        // +1 run for the piece we are about to add.
        std::size_t capacity = tuples_per_chunk(runs.size() + 1);
        if (chunk_tuples >= capacity) {
          flush();
          capacity = tuples_per_chunk(1);
        }
        const std::size_t take = std::min(remaining, capacity - chunk_tuples);
        runs.push_back(PartitionRun{p, static_cast<std::uint32_t>(take)});
        chunk_tuples += take;
        remaining -= take;
      }
    }
    flush();
  };

  std::size_t bytes = 0;
  std::size_t chunks = 0;
  pack([&](std::span<const PartitionRun> runs, std::size_t, std::size_t count) {
    bytes = aligned(bytes) + kHeaderBytes + runs.size_bytes() +
            count * sizeof(rel::Tuple);
    ++chunks;
  });
  SlabBuilder builder(bytes, chunks);
  pack([&](std::span<const PartitionRun> runs, std::size_t begin,
           std::size_t count) {
    builder.emit(ChunkKind::kPartitioned, origin_host, data.bits(), runs,
                 tuples.subspan(begin, count));
  });
  return builder.finish();
}

ChunkSlab ChunkWriter::from_sorted(std::span<const rel::Tuple> sorted,
                                   int origin_host) const {
  obs::prof::ScopedProfile prof(obs::prof::current(), "chunk_memcpy",
                                sorted.size());
  const std::size_t per_chunk = tuples_per_chunk(0);
  const std::size_t max_chunks = sorted.size() / per_chunk + 1;
  SlabBuilder builder(
      sorted.size_bytes() + max_chunks * (kHeaderBytes + kAlign), max_chunks);
  for (std::size_t begin = 0; begin < sorted.size(); begin += per_chunk) {
    const std::size_t count = std::min(per_chunk, sorted.size() - begin);
    builder.emit(ChunkKind::kSorted, origin_host, 0, {},
                 sorted.subspan(begin, count));
  }
  return builder.finish();
}

ChunkSlab ChunkWriter::from_raw(std::span<const rel::Tuple> tuples,
                                int origin_host) const {
  obs::prof::ScopedProfile prof(obs::prof::current(), "chunk_memcpy",
                                tuples.size());
  const std::size_t per_chunk = tuples_per_chunk(0);
  const std::size_t max_chunks = tuples.size() / per_chunk + 1;
  SlabBuilder builder(
      tuples.size_bytes() + max_chunks * (kHeaderBytes + kAlign), max_chunks);
  for (std::size_t begin = 0; begin < tuples.size(); begin += per_chunk) {
    const std::size_t count = std::min(per_chunk, tuples.size() - begin);
    builder.emit(ChunkKind::kRaw, origin_host, 0, {}, tuples.subspan(begin, count));
  }
  return builder.finish();
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
