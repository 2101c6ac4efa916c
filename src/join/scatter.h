// Software write-combining scatter — the staging machinery shared by the
// radix clustering passes (radix.cpp) and the staged hash-table build
// (hash_join.cpp). Extracted so both kernels amortize the same tuning:
// a high-fan-out scatter writes one interleaved stream per destination,
// more store streams than the L1/TLB keeps hot; staging kStageCap entries
// per destination in a cache-resident area and flushing each full buffer
// with one memcpy burst turns that into long sequential writes
// (Manegold, Boncz & Kersten; docs/KERNELS.md).
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "obs/prof.h"

namespace cj::join::detail {

/// Staging granularity: 16 entries x 16 B = 256 B (four cache lines) per
/// destination, flushed in bulk. At fan-out 2^8 the staging area is 64 KB —
/// resident while the destinations see long, TLB-friendly bursts instead
/// of one interleaved stream each.
constexpr std::uint32_t kStageCap = 16;

/// Below this fan-out the destination streams are few enough that direct
/// stores already combine in the cache; staging would only add copies.
constexpr std::uint32_t kMinBufferedFanout = 16;

/// The staging state of one scatter_range caller: zeroed fill counts and
/// the staging area, both empty when the scatter is not staged.
template <typename Entry>
struct ScatterBuffers {
  std::vector<std::uint32_t> fill;
  std::vector<Entry> stage;

  ScatterBuffers(bool staged, std::uint32_t fanout) {
    if (staged) {
      fill.assign(fanout, 0);
      stage.resize(static_cast<std::size_t>(fanout) * kStageCap);
    }
  }
};

/// Scatters `[begin, end)` source positions to `dst`, each to the write
/// cursor of its destination slice. With `staged`, entries accumulate in a
/// kStageCap-deep staging buffer per slice and move to `dst` in bulk
/// bursts (software write combining); `fill` must be zero on entry and is
/// zero again on return. slice_at(i) names the destination, entry_at(i)
/// produces the value to store.
template <typename Entry, typename SliceAt, typename EntryAt>
void scatter_range(std::size_t begin, std::size_t end, bool staged,
                   std::uint32_t fanout, std::vector<std::uint32_t>& cursor,
                   std::vector<std::uint32_t>& fill, std::vector<Entry>& stage,
                   Entry* dst, SliceAt&& slice_at, EntryAt&& entry_at) {
  if (!staged) {
    for (std::size_t i = begin; i < end; ++i) {
      dst[cursor[slice_at(i)]++] = entry_at(i);
    }
    return;
  }
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint32_t s = slice_at(i);
    std::uint32_t& f = fill[s];
    stage[static_cast<std::size_t>(s) * kStageCap + f] = entry_at(i);
    if (++f == kStageCap) {
      std::memcpy(dst + cursor[s], &stage[static_cast<std::size_t>(s) * kStageCap],
                  kStageCap * sizeof(Entry));
      cursor[s] += kStageCap;
      f = 0;
    }
  }
  // Profiled as its own phase: the drain is the part of the buffered
  // scatter that touches every destination once regardless of input size,
  // so its LLC behaviour is what decides kMinBufferedFanout. Its time is
  // also included in the enclosing pass phase.
  obs::prof::ScopedProfile prof(obs::prof::current(), "scatter_flush");
  for (std::uint32_t s = 0; s < fanout; ++s) {  // drain partial buffers
    if (fill[s] != 0) {
      std::memcpy(dst + cursor[s], &stage[static_cast<std::size_t>(s) * kStageCap],
                  fill[s] * sizeof(Entry));
      cursor[s] += fill[s];
      fill[s] = 0;
    }
  }
}

}  // namespace cj::join::detail
