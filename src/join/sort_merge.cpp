#include "join/sort_merge.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <utility>

#include "common/assert.h"
#include "join/page_pool.h"
#include "join/sort_merge_simd.h"
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

}  // namespace

void sort_into(std::span<const rel::Tuple> in, std::span<rel::Tuple> out) {
  CJ_CHECK_MSG(in.size() == out.size(), "sort_into needs |out| == |in|");
  obs::prof::ScopedProfile prof(obs::prof::current(), "sort", in.size());
  const std::size_t n = in.size();
  if (n == 0) return;
  if (n <= kInsertionMax) {
    std::memcpy(out.data(), in.data(), in.size_bytes());
    insertion_sort(out.data(), n);
    return;
  }

  // 1. Key range.
  std::uint32_t lo = in[0].key;
  std::uint32_t hi = in[0].key;
  for (const rel::Tuple& t : in) {
    lo = std::min(lo, t.key);
    hi = std::max(hi, t.key);
  }
  const int range_bits = std::bit_width(hi - lo);
  const int msd_bits = std::min(kMsdBits, range_bits);
  const int shift = range_bits - msd_bits;

  // 2. MSD counting pass, in -> out.
  std::array<std::size_t, (std::size_t{1} << kMsdBits) + 1> bounds{};
  const std::size_t clusters = std::size_t{1} << msd_bits;
  for (const rel::Tuple& t : in) ++bounds[((t.key - lo) >> shift) + 1];
  std::size_t largest = 0;
  for (std::size_t c = 0; c < clusters; ++c) {
    largest = std::max(largest, bounds[c + 1]);
    bounds[c + 1] += bounds[c];
  }
  {
    std::array<std::size_t, std::size_t{1} << kMsdBits> next{};
    std::copy_n(bounds.begin(), clusters, next.begin());
    rel::Tuple* dst = out.data();
    for (const rel::Tuple& t : in) dst[next[(t.key - lo) >> shift]++] = t;
  }
  if (shift == 0) return;  // every cluster holds one key

  // 3. Each cluster by its remaining `shift` bits.
  PoolArray<rel::Tuple> scratch(largest > kInsertionMax ? largest : 0);
  DigitCounts counts{};
  for (std::size_t c = 0; c < clusters; ++c) {
    sort_cluster(out.data() + bounds[c], bounds[c + 1] - bounds[c], lo,
                 scratch.data(), counts);
  }
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
