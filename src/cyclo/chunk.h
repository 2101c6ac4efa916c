// Chunk format: the unit of rotation in cyclo-join.
//
// The roundabout transfers whole ring-buffer elements (paper Sec. III-D),
// so a rotating fragment R_j is cut into *chunks*, each at most one buffer
// element in size and each independently joinable against any stationary
// S_i. Chunks carry the fragment's *prepared* form (paper Sec. IV-D: the
// reorganized — partitioned or sorted — data is what rotates, spending
// network bandwidth to save CPU):
//
//   kPartitioned  radix-clustered tuples with a run directory
//                 {partition id, count}*, for the hash join,
//   kSorted       a sorted key range, for the sort-merge join,
//   kRaw          arbitrary tuples, for the nested-loops fallback.
//
// Joins read tuples directly out of the ring buffer (zero-copy; decode
// returns views, not copies). A chunk retires after visiting every host:
// the origin id in the header tells a host whether its successor is the
// chunk's birthplace.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.h"
#include "join/page_pool.h"
#include "join/radix.h"
#include "join/staged.h"
#include "rel/relation.h"

namespace cj::cyclo {

enum class ChunkKind : std::uint8_t { kRaw = 0, kPartitioned = 1, kSorted = 2 };

#pragma pack(push, 1)
struct ChunkHeader {
  std::uint32_t magic;
  std::uint16_t origin_host;
  std::uint8_t kind;
  std::uint8_t radix_bits;
  std::uint32_t num_runs;
  std::uint32_t num_tuples;
};

/// A maximal run of tuples from one radix partition within a chunk. A
/// partition larger than a chunk is split into runs across chunks.
struct PartitionRun {
  std::uint32_t partition_id;
  std::uint32_t count;
};
#pragma pack(pop)

static_assert(sizeof(ChunkHeader) == 16);
static_assert(sizeof(PartitionRun) == 8);

constexpr std::uint32_t kChunkMagic = 0xC1C707A1;  // "cyclo" chunk marker

/// Decoded, zero-copy view of one chunk. Spans alias the source buffer.
struct ChunkView {
  ChunkKind kind = ChunkKind::kRaw;
  int origin_host = 0;
  int radix_bits = 0;
  std::span<const PartitionRun> runs;   // kPartitioned only
  std::span<const rel::Tuple> tuples;
};

/// All chunks of one host's share of the rotating relation, laid out in one
/// contiguous slab (registered once with the RNIC; chunks are sent straight
/// from here). The slab is page-pool storage (join/page_pool.h) sized for
/// the worst case and written in place; its first total_bytes() are used.
class ChunkSlab {
 public:
  struct Entry {
    std::size_t offset;
    std::size_t size;
  };

  ChunkSlab() = default;
  ChunkSlab(join::PoolBuffer storage, std::size_t used,
            std::vector<Entry> entries, std::uint64_t total_tuples)
      : storage_(std::move(storage)),
        used_(used),
        entries_(std::move(entries)),
        total_tuples_(total_tuples) {}

  std::size_t num_chunks() const { return entries_.size(); }

  std::span<const std::byte> chunk(std::size_t i) const {
    const Entry& e = entries_[i];
    return {storage_.data() + e.offset, e.size};
  }

  /// The used storage, for memory registration.
  std::span<std::byte> slab() { return {storage_.data(), used_}; }

  std::uint64_t total_bytes() const { return used_; }
  std::uint64_t total_tuples() const { return total_tuples_; }

 private:
  join::PoolBuffer storage_;
  std::size_t used_ = 0;
  std::vector<Entry> entries_;
  std::uint64_t total_tuples_ = 0;
};

/// Builds ChunkSlabs. max_payload_bytes caps each chunk (ring buffer size).
class ChunkWriter {
 public:
  explicit ChunkWriter(std::size_t max_payload_bytes)
      : max_payload_(max_payload_bytes) {}

  /// Chunks a radix-clustered fragment, splitting oversized partitions
  /// into runs as needed.
  ChunkSlab from_partitioned(const join::PartitionedData& data, int origin_host) const;

  /// Chunks a sorted fragment into contiguous sorted ranges.
  ChunkSlab from_sorted(std::span<const rel::Tuple> sorted, int origin_host) const;

  /// Chunks arbitrary tuples (nested-loops fallback).
  ChunkSlab from_raw(std::span<const rel::Tuple> tuples, int origin_host) const;

  // The same three as stages of `job` (join/staged.h): one serial dry pass
  // that lays the chunks out and sizes the slab, then the chunk copies by
  // chunk range, one range per task. They read their input only when the
  // job runs, so they may follow the stages that produce (or allocate) it;
  // the input and `out` must stay valid until the job ran. The one-shot
  // calls above run these inline; the slab bytes are the same for every
  // task count.
  void from_partitioned(const join::PartitionedData& data, int origin_host,
                        join::StagedJob& job, ChunkSlab* out) const;
  void from_sorted(const join::PoolArray<rel::Tuple>& sorted, int origin_host,
                   join::StagedJob& job, ChunkSlab* out) const;
  void from_raw(std::span<const rel::Tuple> tuples, int origin_host,
                join::StagedJob& job, ChunkSlab* out) const;

  /// Largest tuple count that fits one chunk with `runs` directory entries.
  std::size_t tuples_per_chunk(std::size_t runs) const;

 private:
  std::size_t max_payload_;
};

/// Parses and validates a chunk from a received buffer.
ChunkView decode_chunk(std::span<const std::byte> payload);

}  // namespace cj::cyclo
