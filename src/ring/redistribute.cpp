#include "ring/redistribute.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <utility>

#include "common/assert.h"
#include "ring/frame.h"

namespace cj::ring {
namespace {

constexpr std::uint32_t kRedistMagic = 0x52DAB142;  // "ring data b142"

/// Record envelope, modeled on the replication phase's replica records
/// (cyclo/cyclo_join.cpp): a fixed header in front of a dense tuple
/// payload, sealed with the same FNV-1a 64 the resilient frames use.
struct RedistHeader {
  std::uint32_t magic = kRedistMagic;
  std::uint16_t src = 0;
  std::uint16_t dst = 0;
  std::uint32_t seq = 0;    ///< per-(src, dst) piece index
  std::uint32_t count = 0;  ///< tuples in this record
  std::uint64_t checksum = 0;
};
static_assert(sizeof(RedistHeader) == 24);

/// Tuples per record: buckets stream in bounded pieces, like the replica
/// phase's max_record_bytes pieces, so no link ever needs an unbounded
/// posted buffer (~64 KB payloads).
constexpr std::size_t kTuplesPerRecord = 5461;  // ~64 KB of 12-byte tuples

std::uint64_t record_checksum(const RedistHeader& header,
                              std::span<const std::byte> payload) {
  RedistHeader clean = header;
  clean.checksum = 0;
  std::byte head[sizeof(RedistHeader)];
  std::memcpy(head, &clean, sizeof(RedistHeader));
  return fnv1a64(fnv1a64(kFnvOffset,
                         std::span<const std::byte>(head, sizeof(RedistHeader))),
                 payload);
}

std::vector<std::byte> seal_record(int src, int dst, std::uint32_t seq,
                                   std::span<const rel::Tuple> tuples) {
  const std::size_t payload_bytes = tuples.size() * sizeof(rel::Tuple);
  std::vector<std::byte> record(sizeof(RedistHeader) + payload_bytes);
  RedistHeader header;
  header.src = static_cast<std::uint16_t>(src);
  header.dst = static_cast<std::uint16_t>(dst);
  header.seq = seq;
  header.count = static_cast<std::uint32_t>(tuples.size());
  const auto payload = std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(tuples.data()), payload_bytes);
  header.checksum = record_checksum(header, payload);
  std::memcpy(record.data(), &header, sizeof(RedistHeader));
  std::memcpy(record.data() + sizeof(RedistHeader), payload.data(),
              payload_bytes);
  return record;
}

/// Verifies and appends a record's tuples to the destination fragment.
void absorb_record(std::span<const std::byte> record, int expect_src,
                   int expect_dst, rel::Relation* dst) {
  CJ_CHECK_MSG(record.size() >= sizeof(RedistHeader),
               "truncated redistribution record");
  RedistHeader header;
  std::memcpy(&header, record.data(), sizeof(RedistHeader));
  const auto payload = record.subspan(sizeof(RedistHeader));
  CJ_CHECK_MSG(header.magic == kRedistMagic, "bad redistribution magic");
  CJ_CHECK_MSG(header.src == expect_src && header.dst == expect_dst,
               "redistribution record delivered to the wrong host");
  CJ_CHECK_MSG(payload.size() == header.count * sizeof(rel::Tuple),
               "redistribution record size mismatch");
  CJ_CHECK_MSG(header.checksum == record_checksum(header, payload),
               "redistribution record failed its checksum");
  dst->append(std::span<const rel::Tuple>(
      reinterpret_cast<const rel::Tuple*>(payload.data()), header.count));
}

}  // namespace

int home_host(std::uint32_t key, int hosts) {
  CJ_CHECK(hosts > 0);
  // Fibonacci multiplicative mix: decorrelates the destination from the
  // low key bits the join kernels' radix partitioning consumes.
  std::uint64_t h = (static_cast<std::uint64_t>(key) + 1) * 0x9E3779B97F4A7C15ULL;
  return static_cast<int>((h >> 33) % static_cast<std::uint64_t>(hosts));
}

RedistributeStats redistribute_by_key(std::vector<rel::Relation>* fragments) {
  CJ_CHECK(fragments != nullptr && !fragments->empty());
  const int n = static_cast<int>(fragments->size());
  RedistributeStats stats;
  if (n == 1) {
    stats.rows_kept = (*fragments)[0].rows();
    return stats;
  }

  // Cut every host's fragment into one bucket per destination. Each host
  // only ever materializes its own fragment's buckets — there is no global
  // view anywhere in this function.
  std::vector<std::vector<std::vector<rel::Tuple>>> buckets(
      static_cast<std::size_t>(n));
  for (int src = 0; src < n; ++src) {
    auto& mine = buckets[static_cast<std::size_t>(src)];
    mine.resize(static_cast<std::size_t>(n));
    for (const rel::Tuple& t : (*fragments)[static_cast<std::size_t>(src)].tuples()) {
      mine[static_cast<std::size_t>(home_host(t.key, n))].push_back(t);
    }
  }

  // Seal every travelling bucket into records and charge each link it
  // crosses: src -> dst follows the ring's data direction, (dst - src + n)
  // mod n hops, link h being the (src + h) -> (src + h + 1) wire.
  std::vector<std::uint64_t> link_bytes(static_cast<std::size_t>(n), 0);
  std::vector<rel::Relation> rebuilt;
  rebuilt.reserve(static_cast<std::size_t>(n));
  for (int dst = 0; dst < n; ++dst) {
    rel::Relation frag((*fragments)[static_cast<std::size_t>(dst)].name());
    // Own bucket lands first, then sources by hop distance — the order
    // records drain off the ring, and deterministic on both backends.
    auto& home = buckets[static_cast<std::size_t>(dst)][static_cast<std::size_t>(dst)];
    stats.rows_kept += home.size();
    frag.append(home);
    home.clear();
    home.shrink_to_fit();
    for (int hops = 1; hops < n; ++hops) {
      const int src = (dst - hops + n) % n;
      auto& bucket =
          buckets[static_cast<std::size_t>(src)][static_cast<std::size_t>(dst)];
      std::uint32_t seq = 0;
      for (std::size_t off = 0; off < bucket.size(); off += kTuplesPerRecord) {
        const std::size_t take = std::min(kTuplesPerRecord, bucket.size() - off);
        const std::vector<std::byte> record = seal_record(
            src, dst, seq++,
            std::span<const rel::Tuple>(bucket.data() + off, take));
        for (int h = 0; h < hops; ++h) {
          link_bytes[static_cast<std::size_t>((src + h) % n)] += record.size();
        }
        stats.bytes_on_wire +=
            static_cast<std::uint64_t>(record.size()) * static_cast<std::uint64_t>(hops);
        ++stats.records;
        absorb_record(record, src, dst, &frag);
      }
      stats.rows_moved += bucket.size();
      bucket.clear();
      bucket.shrink_to_fit();
    }
    rebuilt.push_back(std::move(frag));
  }
  stats.max_link_bytes = *std::max_element(link_bytes.begin(), link_bytes.end());
  *fragments = std::move(rebuilt);
  return stats;
}

}  // namespace cj::ring
