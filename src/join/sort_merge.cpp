#include "join/sort_merge.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "join/page_pool.h"
#include "join/scatter.h"
#include "join/sort_merge_simd.h"
#include "join/staged.h"
#include "obs/prof.h"

namespace cj::join {

namespace detail {

namespace {

/// Portable compares: kLanes plain compares summed, which the compiler may
/// vectorize at the baseline ISA.
struct ScalarMergeOps {
  static std::uint32_t count_below(const std::uint32_t* k, std::uint32_t bound) {
    std::uint32_t c = 0;
    for (std::uint32_t l = 0; l < kLanes; ++l) c += k[l] < bound ? 1U : 0U;
    return c;
  }
};

}  // namespace

void window_bounds_scalar(const std::uint32_t* keys, std::uint32_t n,
                          std::uint32_t band, BoundsStream& a, std::size_t ca,
                          BoundsStream& b, std::size_t cb) {
  window_bounds<ScalarMergeOps>(keys, n, band, a, ca, b, cb);
}

BoundsFn window_bounds_fn(SimdTier tier) {
  switch (tier) {
#if defined(__x86_64__) || defined(__i386__)
    case SimdTier::kAvx2:
      return window_bounds_avx2;
#endif
#if defined(__aarch64__) || defined(__ARM_NEON)
    case SimdTier::kNeon:
      return window_bounds_neon;
#endif
    default:
      return window_bounds_scalar;
  }
}

}  // namespace detail

namespace {

static_assert(kKeyPad >= detail::kLanes, "a compare step must fit the padding");

/// Most top key bits of the MSD pass: at most 2^11 clusters, so its
/// counters (16 KB) and the scatter's write streams stay within L1/L2 reach.
constexpr int kMsdBits = 11;
/// The MSD pass aims at clusters of about 2^kClusterBits tuples: enough
/// that each cluster's counting passes cost more per tuple than per
/// counter, few enough that a cluster stays in L2 through its passes.
constexpr int kClusterBits = 12;
/// Widest LSD digit: its counters (8 KB) stay in L1.
constexpr int kMaxDigitBits = 11;
/// Clusters up to this size are insertion-sorted: below it a counting
/// pass's fixed cost (clearing and summing 2^digit counters) outweighs
/// the quadratic moves.
constexpr std::size_t kInsertionMax = 32;

void insertion_sort(rel::Tuple* t, std::size_t n) {
  for (std::size_t i = 1; i < n; ++i) {
    const rel::Tuple x = t[i];
    std::size_t j = i;
    for (; j > 0 && t[j - 1].key > x.key; --j) t[j] = t[j - 1];
    t[j] = x;
  }
}

/// Counters of one LSD pass, reused by every pass of one sort.
using DigitCounts = std::array<std::uint32_t, std::size_t{1} << kMaxDigitBits>;

/// One stable counting pass: src[0, n) into dst by the `bits`-wide digit
/// of key - base starting at bit `shift`.
void counting_pass(const rel::Tuple* src, rel::Tuple* dst, std::size_t n,
                   std::uint32_t base, int shift, int bits, DigitCounts& offsets) {
  CJ_DCHECK(n <= 0xFFFFFFFFU);
  const std::size_t buckets = std::size_t{1} << bits;
  const std::uint32_t mask = static_cast<std::uint32_t>(buckets - 1);
  std::fill_n(offsets.begin(), buckets, 0U);
  for (std::size_t i = 0; i < n; ++i) {
    ++offsets[((src[i].key - base) >> shift) & mask];
  }
  std::uint32_t sum = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::uint32_t count = offsets[b];
    offsets[b] = sum;
    sum += count;
  }
  for (std::size_t i = 0; i < n; ++i) {
    dst[offsets[((src[i].key - base) >> shift) & mask]++] = src[i];
  }
}

/// Sorts one MSD cluster t[0, n) in place. Every key - base in it shares
/// its top bits, so sorting by the bits that vary sorts by key. `scratch`
/// holds at least n tuples.
void sort_cluster(rel::Tuple* t, std::size_t n, std::uint32_t base,
                  rel::Tuple* scratch, DigitCounts& counts) {
  if (n <= kInsertionMax) {
    insertion_sort(t, n);
    return;
  }
  std::uint32_t any = 0;
  std::uint32_t all = ~0U;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t x = t[i].key - base;
    any |= x;
    all &= x;
  }
  const std::uint32_t varying = any & ~all;
  if (varying == 0) return;  // one key
  const int lo = std::countr_zero(varying);
  const int width = std::bit_width(varying) - lo;
  // The digit is sized to the cluster: at most bit_width(n) bits, fewer
  // than 2n counters, so clearing and summing them never outweighs the
  // passes over the tuples.
  const int widest = std::min(kMaxDigitBits, static_cast<int>(std::bit_width(n)));
  const int passes = (width + widest - 1) / widest;
  const int digit = (width + passes - 1) / passes;
  rel::Tuple* src = t;
  rel::Tuple* dst = scratch;
  for (int shift = lo; shift < lo + width; shift += digit) {
    const int bits = std::min(digit, lo + width - shift);
    if (((varying >> shift) & ((1U << bits) - 1)) == 0) continue;
    counting_pass(src, dst, n, base, shift, bits, counts);
    std::swap(src, dst);
  }
  if (src != t) std::memcpy(t, src, n * sizeof(rel::Tuple));
}

/// Copies t[0, n)'s keys to keys[0, n).
void copy_keys(const rel::Tuple* t, std::size_t n, std::uint32_t* keys) {
  for (std::size_t i = 0; i < n; ++i) keys[i] = t[i].key;
}

/// sort_into's stages, into `out`, or with `owner` into a buffer allocated
/// there once the key range is known; with `keys`, also the key column.
void add_sort_stages(std::span<const rel::Tuple> in, std::span<rel::Tuple> out,
                     PoolArray<rel::Tuple>* owner,
                     PoolArray<std::uint32_t>* keys, StagedJob& job) {
  const int tasks = job.tasks();
  const auto T = static_cast<std::size_t>(tasks);

  // Shared by the stages; every field is written by one task or by a serial
  // step and read only by later stages.
  struct State {
    std::span<const rel::Tuple> in;
    std::span<rel::Tuple> out;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> range;  // per task
    std::uint32_t lo = 0;
    int shift = 0;
    std::size_t clusters = 0;  // 0: nothing to sort
    /// Per task, clusters counters: the task's cluster histogram, then its
    /// write cursor per cluster.
    std::vector<std::size_t> cursor;
    std::vector<std::size_t> bounds;  // clusters + 1 offsets into out
    std::vector<std::size_t> first;   // per task: its clusters, by weight
  };
  auto st = std::make_shared<State>();
  st->in = in;
  st->out = out;
  st->range.resize(T);

  // 1. Key range, per slice; then the MSD geometry. A fragment of at most
  //    kInsertionMax tuples is one cluster, insertion-sorted in step 4.
  job.add_stage([st, tasks](int t) {
    const auto [b, e] = task_slice(st->in.size(), t, tasks);
    obs::prof::ScopedProfile prof(obs::prof::current(), "sort", e - b);
    if (b == e) return;
    // Four independent lanes: one min/max chain would bound the loop by
    // its latency.
    std::array<std::uint32_t, 4> lo;
    std::array<std::uint32_t, 4> hi;
    lo.fill(st->in[b].key);
    hi.fill(st->in[b].key);
    const rel::Tuple* in = st->in.data();
    std::size_t i = b;
    for (; i + 4 <= e; i += 4) {
      for (std::size_t k = 0; k < 4; ++k) {
        lo[k] = std::min(lo[k], in[i + k].key);
        hi[k] = std::max(hi[k], in[i + k].key);
      }
    }
    for (; i < e; ++i) {
      lo[0] = std::min(lo[0], in[i].key);
      hi[0] = std::max(hi[0], in[i].key);
    }
    st->range[static_cast<std::size_t>(t)] = {std::ranges::min(lo),
                                              std::ranges::max(hi)};
  });
  job.add_serial([st, owner, keys, tasks, T] {
    const std::size_t n = st->in.size();
    if (owner != nullptr) {
      *owner = PoolArray<rel::Tuple>(n);
      st->out = *owner;
    }
    if (keys != nullptr) {
      *keys = PoolArray<std::uint32_t>(n + kKeyPad);
      std::fill_n(keys->data() + n, kKeyPad, 0xFFFFFFFFU);
    }
    if (n == 0) return;
    std::uint32_t lo = 0xFFFFFFFFU;
    std::uint32_t hi = 0;
    for (int t = 0; t < tasks; ++t) {
      const auto [b, e] = task_slice(n, t, tasks);
      if (b == e) continue;
      lo = std::min(lo, st->range[static_cast<std::size_t>(t)].first);
      hi = std::max(hi, st->range[static_cast<std::size_t>(t)].second);
    }
    const int range_bits = std::bit_width(hi - lo);
    const int msd_bits =
        n <= kInsertionMax
            ? 0
            : std::clamp(static_cast<int>(std::bit_width(n)) - kClusterBits,
                         0, std::min(kMsdBits, range_bits));
    st->lo = lo;
    // Up to 32 when one cluster spans the whole range: the cluster index
    // shifts a 64-bit value.
    st->shift = range_bits - msd_bits;
    st->clusters = std::size_t{1} << msd_bits;
    st->cursor.assign(T * st->clusters, 0);
  });

  // 2. MSD histogram per slice; then cluster bounds, every task's write
  //    cursors (slices scatter in task order, so the scatter is stable) and
  //    the clusters each task sorts.
  job.add_stage([st, tasks](int t) {
    if (st->clusters == 0) return;
    const auto [b, e] = task_slice(st->in.size(), t, tasks);
    obs::prof::ScopedProfile prof(obs::prof::current(), "sort");
    std::size_t* count =
        st->cursor.data() + static_cast<std::size_t>(t) * st->clusters;
    const std::uint32_t lo = st->lo;
    const int shift = st->shift;
    const rel::Tuple* in = st->in.data();
    for (std::size_t i = b; i < e; ++i) {
      ++count[std::uint64_t{in[i].key - lo} >> shift];
    }
  });
  job.add_serial([st, tasks] {
    if (st->clusters == 0) return;
    st->bounds = prefix_cursors(st->cursor, st->clusters, tasks);
    st->first = split_by_weight(std::span<const std::size_t>(st->bounds), tasks);
  });

  // 3. MSD scatter per slice, in -> out, write-combined (join/scatter.h)
  //    once the clusters are enough write streams to need it.
  job.add_stage([st, tasks](int t) {
    if (st->clusters == 0) return;
    const auto [b, e] = task_slice(st->in.size(), t, tasks);
    obs::prof::ScopedProfile prof(obs::prof::current(), "sort");
    const auto fanout = static_cast<std::uint32_t>(st->clusters);
    const auto first = st->cursor.begin() + static_cast<std::ptrdiff_t>(t) * fanout;
    std::vector<std::uint32_t> cursor(first, first + fanout);
    const bool staged = fanout >= detail::kMinBufferedFanout;
    detail::ScatterBuffers<rel::Tuple> buf(staged, fanout);
    const std::uint32_t lo = st->lo;
    const int shift = st->shift;
    const rel::Tuple* in = st->in.data();
    detail::scatter_range<rel::Tuple>(
        b, e, staged, fanout, cursor, buf.fill, buf.stage, st->out.data(),
        [&](std::size_t i) {
          return static_cast<std::uint32_t>(std::uint64_t{in[i].key - lo} >> shift);
        },
        [&](std::size_t i) { return in[i]; });
  });

  // 4. Each task sorts its clusters by their remaining `shift` bits (none
  //    left: every cluster holds one key), and copies each sorted cluster's
  //    keys to the key column while the cluster is still in cache. The LSD
  //    passes borrow one scratch buffer per task, sized to the task's
  //    largest cluster.
  job.add_stage([st, keys](int t) {
    if (st->clusters == 0) return;
    obs::prof::ScopedProfile prof(obs::prof::current(), "sort");
    const std::size_t c0 = st->first[static_cast<std::size_t>(t)];
    const std::size_t c1 = st->first[static_cast<std::size_t>(t) + 1];
    std::size_t largest = 0;
    for (std::size_t c = c0; c < c1; ++c) {
      largest = std::max(largest, st->bounds[c + 1] - st->bounds[c]);
    }
    const bool sort = st->shift != 0;
    PoolArray<rel::Tuple> scratch(sort && largest > kInsertionMax ? largest : 0);
    DigitCounts counts{};
    for (std::size_t c = c0; c < c1; ++c) {
      rel::Tuple* cluster = st->out.data() + st->bounds[c];
      const std::size_t n = st->bounds[c + 1] - st->bounds[c];
      if (sort) sort_cluster(cluster, n, st->lo, scratch.data(), counts);
      if (keys != nullptr) copy_keys(cluster, n, keys->data() + st->bounds[c]);
    }
  });
}

}  // namespace

void sort_into(std::span<const rel::Tuple> in, PoolArray<rel::Tuple>* out,
               StagedJob& job, PoolArray<std::uint32_t>* keys) {
  CJ_CHECK(out != nullptr);
  add_sort_stages(in, {}, out, keys, job);
}

void sort_into(std::span<const rel::Tuple> in, std::span<rel::Tuple> out) {
  CJ_CHECK_MSG(in.size() == out.size(), "sort_into needs |out| == |in|");
  StagedJob job(1);
  add_sort_stages(in, out, nullptr, nullptr, job);
  job.run_inline();
}

void sort_fragment(std::span<rel::Tuple> fragment) {
  const PoolArray<rel::Tuple> copy{std::span<const rel::Tuple>(fragment)};
  sort_into(copy, fragment);
}

bool is_sorted_by_key(std::span<const rel::Tuple> fragment) {
  return std::is_sorted(
      fragment.begin(), fragment.end(),
      [](const rel::Tuple& a, const rel::Tuple& b) { return a.key < b.key; });
}

namespace {

/// R tuples per stream and block: one block's windows (two streams, lo and
/// hi each) stay in L1 from the bounds phase to the emission phase.
constexpr std::size_t kBlock = 256;

/// Flattened (r, s) pairs the counting emission buffers before it hashes
/// them; a window that does not fit is emitted straight from its bounds.
constexpr std::size_t kPairBuffer = 4096;

/// Emission into a counting-only result, in two branch-free passes per
/// block. Flatten: each r tuple's window [lo, hi) becomes hi - lo pair
/// slots, written kLanes at a time with one value repeated — the r index
/// and lo minus the window's first slot — so a window of up to kLanes
/// pairs costs no data-dependent branch. Hash: one pass over the slots
/// recovers each pair (slot k of r index i pairs s[k + that difference])
/// and sums pair_hash, with no dependency between pairs but the sum. The
/// matches are the slots' count.
class CountingEmitter {
 public:
  explicit CountingEmitter(const rel::Tuple* s) : s_(s) {}

  void windows(const rel::Tuple* r, const std::uint32_t* lo,
               const std::uint32_t* hi, std::size_t count) {
    std::uint64_t* slots = slots_.data();
    std::size_t fill = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t len = hi[i] - lo[i];
      if (fill + len + detail::kLanes > kPairBuffer) {
        flush(r, fill);
        fill = 0;
        if (len + detail::kLanes > kPairBuffer) {
          long_window(r[i], lo[i], len);
          continue;
        }
      }
      const std::uint64_t slot =
          (std::uint64_t{static_cast<std::uint32_t>(i)} << 32) |
          static_cast<std::uint32_t>(lo[i] - static_cast<std::uint32_t>(fill));
      std::uint32_t l = 0;
      do {
        for (std::uint32_t k = 0; k < detail::kLanes; ++k) {
          slots[fill + l + k] = slot;
        }
        l += detail::kLanes;
      } while (l < len);
      fill += len;
    }
    flush(r, fill);
  }

  std::uint64_t matches() const { return matches_; }
  std::uint64_t checksum() const { return checksum_; }

 private:
  void flush(const rel::Tuple* r, std::size_t fill) {
    std::uint64_t sum = 0;
    for (std::size_t k = 0; k < fill; ++k) {
      const std::uint64_t slot = slots_[k];
      const std::uint32_t j = static_cast<std::uint32_t>(slot) +
                              static_cast<std::uint32_t>(k);
      sum += JoinResult::pair_hash(r[slot >> 32].payload, s_[j].payload);
    }
    checksum_ += sum;
    matches_ += fill;
  }

  void long_window(const rel::Tuple& r, std::uint32_t lo, std::uint32_t len) {
    std::uint64_t sum = 0;
    for (std::uint32_t j = lo; j < lo + len; ++j) {
      sum += JoinResult::pair_hash(r.payload, s_[j].payload);
    }
    checksum_ += sum;
    matches_ += len;
  }

  const rel::Tuple* s_;
  std::uint64_t matches_ = 0;
  std::uint64_t checksum_ = 0;
  std::array<std::uint64_t, kPairBuffer> slots_;
};

/// Emission into a materializing result: rows in r order, and for one r in
/// s order.
struct RowEmitter {
  const rel::Tuple* s;
  JoinResult* out;

  void windows(const rel::Tuple* r, const std::uint32_t* lo,
               const std::uint32_t* hi, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      out->reserve_batch(hi[i] - lo[i]);
      for (std::uint32_t j = lo[i]; j < hi[i]; ++j) out->add_match(r[i], s[j]);
    }
  }
};

/// The two-phase merge over non-empty r and s. r splits into two streams,
/// r[0, half) emitted into `first` and r[half, end) into `second`; per
/// block, the bounds phase runs both streams side by side, so their
/// latency chains overlap, and then each stream's windows are emitted.
template <typename Emitter>
void merge_streams(std::span<const rel::Tuple> r, std::span<const rel::Tuple> s,
                   const std::uint32_t* keys, std::uint32_t band,
                   detail::BoundsFn bounds, Emitter& first, Emitter& second) {
  const auto n = static_cast<std::uint32_t>(s.size());
  const std::size_t half = r.size() / 2;
  const std::size_t rest = r.size() - half;
  const auto start = [&](const rel::Tuple& t) {
    return static_cast<std::uint32_t>(
        std::lower_bound(keys, keys + n, detail::band_low(t.key, band)) - keys);
  };
  std::array<std::uint32_t, 4 * kBlock> windows;
  std::uint32_t* const lo_a = windows.data();
  std::uint32_t* const hi_a = lo_a + kBlock;
  std::uint32_t* const lo_b = hi_a + kBlock;
  std::uint32_t* const hi_b = lo_b + kBlock;
  const std::uint32_t a0 = half == 0 ? 0 : start(r[0]);
  const std::uint32_t b0 = start(r[half]);
  detail::BoundsStream a{r.data(), lo_a, hi_a, a0, a0};
  detail::BoundsStream b{r.data() + half, lo_b, hi_b, b0, b0};
  for (std::size_t done = 0; done < rest; done += kBlock) {
    const std::size_t ca = done < half ? std::min(kBlock, half - done) : 0;
    const std::size_t cb = std::min(kBlock, rest - done);
    a.r = r.data() + done;
    b.r = r.data() + half + done;
    bounds(keys, n, band, a, ca, b, cb);
    first.windows(a.r, lo_a, hi_a, ca);
    second.windows(b.r, lo_b, hi_b, cb);
  }
}

}  // namespace

void band_merge_join(std::span<const rel::Tuple> r_sorted,
                     std::span<const rel::Tuple> s_sorted,
                     const std::uint32_t* s_keys, std::uint32_t band,
                     JoinResult& result, const KernelConfig& kernel) {
  obs::prof::ScopedProfile prof(obs::prof::current(), "merge", r_sorted.size());
  if (r_sorted.empty() || s_sorted.empty()) return;
  CJ_CHECK_MSG(s_sorted.size() < 0xFFFFFFFFU - kKeyPad,
               "the merge indexes S with 32-bit cursors");
  const detail::BoundsFn bounds =
      detail::window_bounds_fn(resolve_simd(kernel.simd));
  if (!result.materializes()) {
    // One emitter serves both streams: a stream flushes its pairs at the
    // end of each block.
    auto emitter = std::make_unique<CountingEmitter>(s_sorted.data());
    merge_streams(r_sorted, s_sorted, s_keys, band, bounds, *emitter, *emitter);
    result.add_counted(emitter->matches(), emitter->checksum());
    return;
  }
  // The second stream's rows follow the first's.
  JoinResult tail(true);
  RowEmitter first{s_sorted.data(), &result};
  RowEmitter second{s_sorted.data(), &tail};
  merge_streams(r_sorted, s_sorted, s_keys, band, bounds, first, second);
  result.merge(tail);
}

void band_merge_join(std::span<const rel::Tuple> r_sorted,
                     std::span<const rel::Tuple> s_sorted, std::uint32_t band,
                     JoinResult& result, const KernelConfig& kernel) {
  // R in pieces, each against the key column of just its matching window:
  // the column buffer stays near a piece's window, not |S|.
  constexpr std::size_t kPiece = 1 << 14;
  std::vector<std::uint32_t> keys;
  for (std::size_t off = 0; off < r_sorted.size(); off += kPiece) {
    const auto piece = r_sorted.subspan(off, std::min(kPiece, r_sorted.size() - off));
    const auto window =
        matching_window(s_sorted, piece.front().key, piece.back().key, band);
    keys.resize(window.size() + kKeyPad);
    copy_keys(window.data(), window.size(), keys.data());
    std::fill_n(keys.data() + window.size(), kKeyPad, 0xFFFFFFFFU);
    band_merge_join(piece, window, keys.data(), band, result, kernel);
  }
}

void merge_join(std::span<const rel::Tuple> r_sorted,
                std::span<const rel::Tuple> s_sorted, JoinResult& result,
                const KernelConfig& kernel) {
  band_merge_join(r_sorted, s_sorted, 0, result, kernel);
}

std::span<const rel::Tuple> matching_window(std::span<const rel::Tuple> s_sorted,
                                            std::uint32_t lo_key,
                                            std::uint32_t hi_key,
                                            std::uint32_t band) {
  CJ_DCHECK(lo_key <= hi_key);
  const std::uint32_t lo = detail::band_low(lo_key, band);
  const std::uint32_t hi = detail::band_high(hi_key, band);
  const auto key_less = [](const rel::Tuple& t, std::uint32_t k) { return t.key < k; };
  const auto key_greater = [](std::uint32_t k, const rel::Tuple& t) { return k < t.key; };
  auto begin = std::lower_bound(s_sorted.begin(), s_sorted.end(), lo, key_less);
  auto end = std::upper_bound(begin, s_sorted.end(), hi, key_greater);
  return s_sorted.subspan(static_cast<std::size_t>(begin - s_sorted.begin()),
                          static_cast<std::size_t>(end - begin));
}

}  // namespace cj::join
