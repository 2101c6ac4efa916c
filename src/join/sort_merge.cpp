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
#include "join/sort_merge_simd.h"
#include "join/staged.h"
#include "obs/prof.h"

namespace cj::join {

namespace detail {

std::size_t run_end_scalar(const rel::Tuple* t, std::size_t i, std::size_t n,
                           std::uint32_t key) {
  while (i < n && t[i].key == key) ++i;
  return i;
}

std::size_t window_end_scalar(const rel::Tuple* t, std::size_t i, std::size_t n,
                              std::uint32_t hi_key) {
  while (i < n && t[i].key <= hi_key) ++i;
  return i;
}

MergeScanOps merge_scan_ops(SimdTier tier) {
  switch (tier) {
#if defined(__x86_64__) || defined(__i386__)
    case SimdTier::kAvx2:
      return {run_end_avx2, window_end_avx2};
#endif
#if defined(__aarch64__) || defined(__ARM_NEON)
    case SimdTier::kNeon:
      return {run_end_neon, window_end_neon};
#endif
    default:
      return {run_end_scalar, window_end_scalar};
  }
}

}  // namespace detail

namespace {

/// Scalar steps taken inline before handing a scan to the (possibly
/// vectorized) tier function: most equal-key runs are one or two tuples
/// long, where the indirect call alone would outweigh the whole scan.
/// Only scans still going after kInlineScan steps — long duplicate runs,
/// wide band windows — pay the call and reap the vector width.
constexpr std::size_t kInlineScan = 4;

inline std::size_t run_end(const detail::MergeScanOps& ops, const rel::Tuple* t,
                           std::size_t i, std::size_t n, std::uint32_t key) {
  const std::size_t quick = std::min(n, i + kInlineScan);
  while (i < quick && t[i].key == key) ++i;
  if (i == quick && i < n && t[i].key == key) return ops.run_end(t, i, n, key);
  return i;
}

inline std::size_t window_end(const detail::MergeScanOps& ops,
                              const rel::Tuple* t, std::size_t i, std::size_t n,
                              std::uint32_t hi_key) {
  const std::size_t quick = std::min(n, i + kInlineScan);
  while (i < quick && t[i].key <= hi_key) ++i;
  if (i == quick && i < n && t[i].key <= hi_key) {
    return ops.window_end(t, i, n, hi_key);
  }
  return i;
}

/// Top key bits of the MSD pass: 2^11 clusters, so its counters (16 KB)
/// and the scatter's 2^11 write streams stay within L1/L2 reach.
constexpr int kMsdBits = 11;
/// Widest LSD digit; two digits cover the 21 bits a full 32-bit key range
/// leaves below the MSD bits.
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
  const int passes = (width + kMaxDigitBits - 1) / kMaxDigitBits;
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

/// sort_into's stages, into `out`, or with `owner` into a buffer allocated
/// there once the key range is known.
void add_sort_stages(std::span<const rel::Tuple> in, std::span<rel::Tuple> out,
                     PoolArray<rel::Tuple>* owner, StagedJob& job) {
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
    std::uint32_t lo = st->in[b].key;
    std::uint32_t hi = lo;
    const rel::Tuple* in = st->in.data();
    for (std::size_t i = b; i < e; ++i) {
      lo = std::min(lo, in[i].key);
      hi = std::max(hi, in[i].key);
    }
    st->range[static_cast<std::size_t>(t)] = {lo, hi};
  });
  job.add_serial([st, owner, tasks, T] {
    const std::size_t n = st->in.size();
    if (owner != nullptr) {
      *owner = PoolArray<rel::Tuple>(n);
      st->out = *owner;
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
        n <= kInsertionMax ? 0 : std::min(kMsdBits, range_bits);
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

  // 3. MSD scatter per slice, in -> out.
  job.add_stage([st, tasks](int t) {
    if (st->clusters == 0) return;
    const auto [b, e] = task_slice(st->in.size(), t, tasks);
    obs::prof::ScopedProfile prof(obs::prof::current(), "sort");
    std::size_t* next =
        st->cursor.data() + static_cast<std::size_t>(t) * st->clusters;
    const std::uint32_t lo = st->lo;
    const int shift = st->shift;
    const rel::Tuple* in = st->in.data();
    rel::Tuple* dst = st->out.data();
    for (std::size_t i = b; i < e; ++i) {
      const rel::Tuple& x = in[i];
      dst[next[std::uint64_t{x.key - lo} >> shift]++] = x;
    }
  });

  // 4. Each task sorts its clusters by their remaining `shift` bits (none
  //    left: every cluster holds one key). The LSD passes borrow one
  //    scratch buffer per task, sized to the task's largest cluster.
  job.add_stage([st](int t) {
    if (st->clusters == 0 || st->shift == 0) return;
    obs::prof::ScopedProfile prof(obs::prof::current(), "sort");
    const std::size_t c0 = st->first[static_cast<std::size_t>(t)];
    const std::size_t c1 = st->first[static_cast<std::size_t>(t) + 1];
    std::size_t largest = 0;
    for (std::size_t c = c0; c < c1; ++c) {
      largest = std::max(largest, st->bounds[c + 1] - st->bounds[c]);
    }
    PoolArray<rel::Tuple> scratch(largest > kInsertionMax ? largest : 0);
    DigitCounts counts{};
    for (std::size_t c = c0; c < c1; ++c) {
      sort_cluster(st->out.data() + st->bounds[c],
                   st->bounds[c + 1] - st->bounds[c], st->lo, scratch.data(),
                   counts);
    }
  });
}

}  // namespace

void sort_into(std::span<const rel::Tuple> in, PoolArray<rel::Tuple>* out,
               StagedJob& job) {
  CJ_CHECK(out != nullptr);
  add_sort_stages(in, {}, out, job);
}

void sort_into(std::span<const rel::Tuple> in, std::span<rel::Tuple> out) {
  CJ_CHECK_MSG(in.size() == out.size(), "sort_into needs |out| == |in|");
  StagedJob job(1);
  add_sort_stages(in, out, nullptr, job);
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

void merge_join(std::span<const rel::Tuple> r_sorted,
                std::span<const rel::Tuple> s_sorted, JoinResult& result,
                const KernelConfig& kernel) {
  obs::prof::ScopedProfile prof(obs::prof::current(), "merge", r_sorted.size());
  const detail::MergeScanOps ops = detail::merge_scan_ops(resolve_simd(kernel.simd));
  const rel::Tuple* r = r_sorted.data();
  const rel::Tuple* s = s_sorted.data();
  const std::size_t rn = r_sorted.size();
  const std::size_t sn = s_sorted.size();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < rn && j < sn) {
    const std::uint32_t rk = r[i].key;
    const std::uint32_t sk = s[j].key;
    if (rk < sk) {
      ++i;
    } else if (rk > sk) {
      ++j;
    } else {
      // Key group: emit the cross product of equal-key runs.
      const std::size_t i_end = run_end(ops, r, i + 1, rn, rk);
      const std::size_t j_end = run_end(ops, s, j + 1, sn, rk);
      result.reserve_batch((i_end - i) * (j_end - j));
      for (std::size_t a = i; a < i_end; ++a) {
        for (std::size_t b = j; b < j_end; ++b) {
          result.add_match(r[a], s[b]);
        }
      }
      i = i_end;
      j = j_end;
    }
  }
}

void band_merge_join(std::span<const rel::Tuple> r_sorted,
                     std::span<const rel::Tuple> s_sorted, std::uint32_t band,
                     JoinResult& result, const KernelConfig& kernel) {
  if (band == 0) {
    merge_join(r_sorted, s_sorted, result, kernel);
    return;
  }
  obs::prof::ScopedProfile prof(obs::prof::current(), "merge", r_sorted.size());
  const detail::MergeScanOps ops = detail::merge_scan_ops(resolve_simd(kernel.simd));
  const rel::Tuple* s = s_sorted.data();
  const std::size_t sn = s_sorted.size();
  // For each r (ascending), the matching s window [r.key - band,
  // r.key + band] only ever slides forward at its lower edge.
  std::size_t lo = 0;
  for (const rel::Tuple& r : r_sorted) {
    const std::uint32_t lo_key = r.key >= band ? r.key - band : 0;
    // Saturating upper bound: keys are 32-bit.
    const std::uint32_t hi_key =
        r.key > 0xFFFFFFFFU - band ? 0xFFFFFFFFU : r.key + band;
    while (lo < sn && s[lo].key < lo_key) ++lo;
    const std::size_t j_end = window_end(ops, s, lo, sn, hi_key);
    result.reserve_batch(j_end - lo);
    for (std::size_t j = lo; j < j_end; ++j) {
      result.add_match(r, s[j]);
    }
  }
}

std::span<const rel::Tuple> matching_window(std::span<const rel::Tuple> s_sorted,
                                            std::uint32_t lo_key,
                                            std::uint32_t hi_key,
                                            std::uint32_t band) {
  CJ_DCHECK(lo_key <= hi_key);
  const std::uint32_t lo = lo_key >= band ? lo_key - band : 0;
  const std::uint32_t hi = hi_key > 0xFFFFFFFFU - band ? 0xFFFFFFFFU : hi_key + band;
  const auto key_less = [](const rel::Tuple& t, std::uint32_t k) { return t.key < k; };
  const auto key_greater = [](std::uint32_t k, const rel::Tuple& t) { return k < t.key; };
  auto begin = std::lower_bound(s_sorted.begin(), s_sorted.end(), lo, key_less);
  auto end = std::upper_bound(begin, s_sorted.end(), hi, key_greater);
  return s_sorted.subspan(static_cast<std::size_t>(begin - s_sorted.begin()),
                          static_cast<std::size_t>(end - begin));
}

}  // namespace cj::join
